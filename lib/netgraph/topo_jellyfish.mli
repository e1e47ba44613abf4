(** Jellyfish random topology (Singla et al., NSDI'12): [switches]
    switches of [ports] ports each, [net_ports] of them wired into a
    random (near-)regular graph of inter-switch cables, the remaining
    [ports - net_ports] ports carrying one terminal each.

    The construction is the paper's incremental one — link random
    non-adjacent switch pairs with free ports; when stuck, free ports by
    splicing an existing cable — followed by a degree-preserving
    edge-swap pass that guarantees connectivity. No self loops, no
    parallel cables. Deterministic in [rng].

    Cost: memory O(switches * net_ports), no switch-by-switch table.
    Each phase-1 cable is one draw over the count of free unlinked pairs,
    kept up to date, found by a Fenwick-tree descent (O(log switches)
    plus O(log switches) per linked neighbour skipped); each splice
    indexes the live cables the same way. doc/topology_ingestion.md
    states the bounds and measured times. *)

(** @raise Invalid_argument on [switches < 2], [net_ports < 2],
    [net_ports > ports], or [net_ports >= switches] (a simple graph
    needs enough distinct peers). *)
val make : switches:int -> ports:int -> net_ports:int -> rng:Rng.t -> Graph.t
