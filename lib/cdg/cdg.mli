(** Channel dependency graphs (Dally & Seitz): nodes are the fabric's
    directed channels; a directed edge (c1, c2) exists iff some route
    traverses c1 immediately followed by c2. A routing is deadlock-free if
    its CDG is acyclic (the sufficient condition the paper builds on).

    Each edge carries the multiset of routes ("pairs") inducing it — the
    bookkeeping the paper's offline algorithm needs to relocate all routes
    of a broken edge to the next virtual layer. Pair identifiers are
    caller-chosen dense integers.

    Representation: a CSR (compressed-sparse-row) adjacency over channels
    — [row_ptr]/[col]/[count] int arrays built in one pass from a
    {!Route_store} by {!of_store}, with pair membership stored as arena
    slices — plus a hashtable overlay for edges added afterwards. The
    overlay folds back into the CSR base on demand ({!compact}; large
    overlays compact automatically), so weakest-edge sweeps and
    reachability probes stay on cache-friendly array scans. Membership is
    exact: {!edge_pairs} reports precisely the live inducing pairs. *)

type t

(** [create g] makes an empty CDG. Allocates O(channels) ints and no
    per-channel tables; edges added before any {!of_store}/{!compact} live
    in the overlay. *)
val create : Graph.t -> t

(** [of_store ?filter ?pairs store] builds the CDG of every present pair
    of [store] ([filter] restricts to pairs satisfying it — e.g. one
    virtual layer) straight into CSR form, in one pass over the
    dependencies. [pairs] replaces the full-capacity scan with an explicit
    id list (each present, no duplicates) — how the SCC layer engine
    streams just-evicted pairs into the next layer's build. *)
val of_store : ?filter:(int -> bool) -> ?pairs:int array -> Route_store.t -> t

(** Fold the overlay (and any tombstoned membership slots) back into a
    fresh CSR base. Semantically a no-op; scans get faster. *)
val compact : t -> unit

val graph : t -> Graph.t

(** [add_path t ~pair p] inserts every dependency of path [p], crediting
    [pair]. A pair must not be added to the same CDG twice. Paths shorter
    than two channels induce nothing but still count as carried paths. *)
val add_path : t -> pair:int -> Path.t -> unit

(** [remove_path t ~pair p] removes [pair]'s membership from every
    dependency of [p]. The caller must only remove paths previously added.
    @raise Invalid_argument if an edge of [p] is not present or [pair] is
    not among its inducers. *)
val remove_path : t -> pair:int -> Path.t -> unit

(** {!add_path} / {!remove_path} reading the path from a store slice
    instead of a materialized array. *)
val add_pair : t -> Route_store.t -> pair:int -> unit

val remove_pair : t -> Route_store.t -> pair:int -> unit

(** [live t ~c1 ~c2] is [true] iff the edge currently has a positive
    count. *)
val live : t -> c1:int -> c2:int -> bool

(** Current number of inducing routes of an edge (0 if absent). *)
val edge_count : t -> c1:int -> c2:int -> int

(** Exactly the pairs currently inducing a live edge (a multiset, in
    unspecified order); [[]] if the edge is dead. *)
val edge_pairs : t -> c1:int -> c2:int -> int list

(** Snapshot of the live successor channels of [c] (fresh array). *)
val successors : t -> int -> int array

(** Slot-level access to the CSR base, for allocation-free DFS cursors
    ({!Cycle}). [slot_range t c] is the half-open slot interval of [c]'s
    base row; [slot_col]/[slot_live] read one slot. Slots cover the base
    only — overlay successors of [c] must be fetched separately with
    {!overlay_successors} — and ranges are invalidated by {!compact}. *)
val slot_range : t -> int -> int * int

val slot_col : t -> int -> int

val slot_live : t -> int -> bool

(** Live inducing-route count of one base slot (0 = dead edge). *)
val slot_count : t -> int -> int

(** [iter_slot_pairs t sl f] calls [f] on each live inducing pair of base
    slot [sl], without allocating. Like {!edge_pairs} this is a multiset;
    the order is unspecified but deterministic for an untouched base. *)
val iter_slot_pairs : t -> int -> (int -> unit) -> unit

(** Snapshot of [c]'s overlay successors; the shared empty array when the
    overlay holds none (the common case after {!of_store}/{!compact}). *)
val overlay_successors : t -> int -> int array

(** [iter_successors t c f] calls [f] on each live successor of [c]
    without allocating. *)
val iter_successors : t -> int -> (int -> unit) -> unit

(** Short-circuiting successor scan, for DFS probes over the CSR rows. *)
val for_all_successors : t -> int -> (int -> bool) -> bool

(** Number of live edges. *)
val num_edges : t -> int

(** Number of paths currently carried (added minus removed). *)
val num_paths : t -> int

val is_empty : t -> bool

(** Number of live edges currently in the overlay rather than the CSR
    base (0 right after {!of_store} or {!compact}). *)
val overlay_edges : t -> int

(** [iter_edges t f] calls [f c1 c2 count] for every live edge. *)
val iter_edges : t -> (int -> int -> int -> unit) -> unit
