(** MinHop routing, modelled on OpenSM's default algorithm: minimum-hop
    forwarding with port balancing — among the min-hop out-channels toward
    a destination, each node picks the channel with the least accumulated
    route load. Not deadlock-free in general (the paper's reference
    algorithm). *)

(** [route g] computes forwarding entries for every (node, terminal)
    pair. Fails on disconnected fabrics.

    [batch]/[domains] (both default 1) select the batched-snapshot
    pipeline of DESIGN.md section 12: port loads are frozen per batch of
    [batch] destinations and each destination balances against them (a
    node reads and bumps only its own channels, so a destination never
    needs its own increments). [~batch:1] is the sequential recurrence
    (loads move after every destination); for any fixed [batch] the
    result is independent of [domains]. Hop distances come from the
    {!Spf} bucket kernel over unit weights. *)
val route : ?batch:int -> ?domains:int -> Graph.t -> (Ftable.t, string) result
