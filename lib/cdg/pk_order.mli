(** Incremental cycle detection by dynamic topological ordering
    (Pearce & Kelly, "A Dynamic Topological Sort Algorithm for Directed
    Acyclic Graphs", JEA 2007) — an asymptotically better engine for the
    online layer assignment: instead of a fresh O(|C|+|E|) reachability
    probe per inserted dependency, only the affected region between the
    edge's endpoints in the maintained topological order is visited.

    The structure shadows a {!Cdg.t}: the caller adds dependencies to the
    CDG first and then registers them here; an insertion that would close
    a cycle is reported {e before} the order is disturbed. Edge deletions
    never invalidate a topological order, so the caller may remove paths
    from the CDG (rollback) without telling this structure. *)

type t

(** [create cdg] builds a topological order of [cdg]'s current live
    edges and counts them all as accepted (the identity order when [cdg]
    is empty). After that, DFS probes traverse only edges that are live in
    [cdg] {e and} were accepted — a freshly added path's not-yet-registered
    dependencies are invisible until their own {!insert}, where any cycle
    they complete is caught.
    @raise Invalid_argument if [cdg] is cyclic. *)
val create : Cdg.t -> t

(** [insert t ~c1 ~c2] registers the dependency (c1, c2).
    Returns [false] — and leaves the order untouched — if the edge would
    create a cycle (the caller must then remove it from the CDG);
    [true] otherwise, with the order updated. Self edges are rejected. *)
val insert : t -> c1:int -> c2:int -> bool

(** Current position of a channel in the topological order (test hook). *)
val position : t -> int -> int

(** Verify that the maintained order is a valid topological order of the
    CDG's live edges (test hook, O(|C|+|E|)). *)
val consistent : t -> bool
