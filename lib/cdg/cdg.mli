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
    slices. A CDG never changes after {!of_store}: weakest-edge sweeps and
    reachability probes are plain array scans, and any number of domains
    may read one CDG at once (the SCC engine plans its components
    concurrently). Every slot is a live edge, and {!edge_pairs} reports
    precisely its inducing pairs. *)

type t

(** [of_store ?filter ?pairs store] builds the CDG of every present pair
    of [store] ([filter] restricts to pairs satisfying it — e.g. one
    virtual layer) straight into CSR form, in one pass over the
    dependencies. [pairs] replaces the full-capacity scan with an explicit
    id list (each present, no duplicates) — how the layer engine streams
    just-evicted pairs into the next layer's build. *)
val of_store : ?filter:(int -> bool) -> ?pairs:int array -> Route_store.t -> t

val graph : t -> Graph.t

(** [live t ~c1 ~c2] is [true] iff the edge exists. *)
val live : t -> c1:int -> c2:int -> bool

(** Exactly the pairs inducing an edge (a multiset, in unspecified
    order); [[]] if the edge is absent. *)
val edge_pairs : t -> c1:int -> c2:int -> int list

(** Slot-level access, for allocation-free DFS cursors ({!Cycle},
    {!Scc}). [slot_range t c] is the half-open slot interval of [c]'s
    row, one slot per successor; [slot_col] reads one slot's successor. *)
val slot_range : t -> int -> int * int

val slot_col : t -> int -> int

(** Inducing-route weight of one slot (at least 1). *)
val slot_count : t -> int -> int

(** [iter_slot_pairs t sl f] calls [f] on each inducing pair of slot
    [sl], without allocating. Like {!edge_pairs} this is a multiset; the
    order is unspecified but deterministic. *)
val iter_slot_pairs : t -> int -> (int -> unit) -> unit

(** Number of edges. *)
val num_edges : t -> int

(** Number of paths the build included. *)
val num_paths : t -> int

(** [iter_edges t f] calls [f c1 c2 count] for every edge. *)
val iter_edges : t -> (int -> int -> int -> unit) -> unit
