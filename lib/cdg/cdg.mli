(** Channel dependency graphs (Dally & Seitz): nodes are the fabric's
    directed channels; a directed edge (c1, c2) exists iff some route
    traverses c1 immediately followed by c2. A routing is deadlock-free if
    its CDG is acyclic (the sufficient condition the paper builds on).

    Each edge carries the multiset of routes ("pairs") inducing it — the
    bookkeeping the paper's offline algorithm needs to relocate all routes
    of a broken edge to the next virtual layer. Pair identifiers are the
    ids of a {!Route_store}. A pair counts {!Route_store.weight} times: a
    route-class slice moves as one member but weighs as many routes as it
    stands for, so edge counts — the weakest-edge heuristic's input —
    equal those of the per-pair CDG.

    Representation: a CSR (compressed-sparse-row) adjacency over channels
    — [row_ptr]/[col]/[count] int arrays built in one pass from a
    {!Route_store} by {!of_store}, with pair membership stored as arena
    slices. A CDG is built once and never grows: weakest-edge sweeps and
    reachability probes are plain array scans. Pairs can be removed
    ({!remove_pair}, the DFS oracle's eviction), which tombstones their
    membership. Membership is exact: {!edge_pairs} reports precisely the
    live inducing pairs. *)

type t

(** [of_store ?filter ?pairs store] builds the CDG of every present pair
    of [store] ([filter] restricts to pairs satisfying it — e.g. one
    virtual layer) straight into CSR form, in one pass over the
    dependencies. [pairs] replaces the full-capacity scan with an explicit
    id list (each present, no duplicates) — how the layer engines stream
    just-evicted pairs into the next layer's build. *)
val of_store : ?filter:(int -> bool) -> ?pairs:int array -> Route_store.t -> t

val graph : t -> Graph.t

(** [remove_pair t store ~pair] removes [pair]'s membership, with its
    slice's {!Route_store.weight}, from every dependency of its path in
    [store]. The caller must only remove pairs the build included, once.
    @raise Invalid_argument if an edge of the path is not live or [pair]
    is not among its inducers. *)
val remove_pair : t -> Route_store.t -> pair:int -> unit

(** [live t ~c1 ~c2] is [true] iff the edge currently has a positive
    count. *)
val live : t -> c1:int -> c2:int -> bool

(** Current weight of the routes inducing an edge (0 if absent): their
    number, in a per-pair store. *)
val edge_count : t -> c1:int -> c2:int -> int

(** Exactly the pairs currently inducing a live edge (a multiset, in
    unspecified order); [[]] if the edge is dead. *)
val edge_pairs : t -> c1:int -> c2:int -> int list

(** Slot-level access, for allocation-free DFS cursors ({!Cycle},
    {!Scc}). [slot_range t c] is the half-open slot interval of [c]'s
    row; [slot_col]/[slot_live] read one slot. *)
val slot_range : t -> int -> int * int

val slot_col : t -> int -> int

val slot_live : t -> int -> bool

(** Live inducing-route weight of one slot (0 = dead edge). *)
val slot_count : t -> int -> int

(** [iter_slot_pairs t sl f] calls [f] on each live inducing pair of
    slot [sl], without allocating. Like {!edge_pairs} this is a multiset;
    the order is unspecified but deterministic. *)
val iter_slot_pairs : t -> int -> (int -> unit) -> unit

(** [iter_successors t c f] calls [f] on each live successor of [c]
    without allocating. *)
val iter_successors : t -> int -> (int -> unit) -> unit

(** Number of live edges. *)
val num_edges : t -> int

(** Number of paths currently carried (built minus removed). *)
val num_paths : t -> int

(** [iter_edges t f] calls [f c1 c2 count] for every live edge. *)
val iter_edges : t -> (int -> int -> int -> unit) -> unit
