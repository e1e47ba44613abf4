(** Incremental cycle detection by dynamic topological ordering
    (Pearce & Kelly, "A Dynamic Topological Sort Algorithm for Directed
    Acyclic Graphs", JEA 2007) — the engine of the online layer
    assignment: instead of a fresh O(|C|+|E|) reachability probe per
    inserted dependency, only the affected region between the edge's
    endpoints in the maintained topological order is visited.

    The structure owns its edge set: the dependencies it has accepted
    and not forgotten are one layer's channel dependency graph, and an
    insertion that would close a cycle is reported {e before} the order
    is disturbed. Probes walk the fabric's enabled channel adjacency
    ({!Graph.out_channels} of the node a channel enters,
    {!Graph.in_channels} of the node it leaves) and cross accepted edges
    only, so {!insert} refuses an edge they could not see.

    Flat arrays throughout: the accepted edges are a bitset over the
    fabric's turns ({!Graph.turn_base}), and the probes and the reorder
    of the affected region run on int arrays made once by {!create}, so
    a structure costs O(channels + turns) memory and an insertion
    allocates nothing. *)

type t

(** [create g] is the identity order over [g]'s channels with no edge
    accepted. *)
val create : Graph.t -> t

(** [insert t ~c1 ~c2] accepts the dependency (c1, c2). Returns
    [false] — and leaves the order and the edge set untouched — if the
    edge would close a cycle; [true] otherwise, with the order updated.
    Self edges are rejected.
    @raise Invalid_argument if [c2] does not leave the node [c1] enters,
    or either channel is disabled in [g]. *)
val insert : t -> c1:int -> c2:int -> bool

(** [mem t ~c1 ~c2] is [true] iff (c1, c2) was accepted and not
    forgotten; [false] for a pair that is not a turn. *)
val mem : t -> c1:int -> c2:int -> bool

(** [forget t ~c1 ~c2] drops the dependency (c1, c2) from the accepted
    set (a rolled-back path). Once revived, it counts again only from its
    own {!insert}. A no-op for an edge never accepted. *)
val forget : t -> c1:int -> c2:int -> unit

(** Current position of a channel in the topological order (test hook). *)
val position : t -> int -> int

(** Verify that the maintained order is a valid topological order of the
    accepted edges (test hook, O(|C|+|E|)). *)
val consistent : t -> bool
