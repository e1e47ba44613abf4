(** Incremental cycle detection by dynamic topological ordering
    (Pearce & Kelly, "A Dynamic Topological Sort Algorithm for Directed
    Acyclic Graphs", JEA 2007) — an asymptotically better engine for the
    online layer assignment: instead of a fresh O(|C|+|E|) reachability
    probe per inserted dependency, only the affected region between the
    edge's endpoints in the maintained topological order is visited.

    The structure shadows a {!Cdg.t}: the caller adds dependencies to the
    CDG first and then registers them here; an insertion that would close
    a cycle is reported {e before} the order is disturbed. A removed edge
    that was accepted must be {!forget}-ten: later reorderings no longer
    respect it, so were it revived in the CDG while still counted as
    accepted, probes would cross it out of order and miss cycles. *)

type t

(** [create cdg] starts from the identity order over [cdg], which must be
    empty; every dependency the caller later adds to [cdg] counts only
    from its own {!insert}. DFS probes traverse only edges that are live
    in [cdg] {e and} were accepted — a freshly added path's
    not-yet-registered dependencies are invisible until their own
    {!insert}, where any cycle they complete is caught.
    @raise Invalid_argument if [cdg] already has live edges. *)
val create : Cdg.t -> t

(** [insert t ~c1 ~c2] registers the dependency (c1, c2).
    Returns [false] — and leaves the order untouched — if the edge would
    create a cycle (the caller must then remove it from the CDG);
    [true] otherwise, with the order updated. Self edges are rejected. *)
val insert : t -> c1:int -> c2:int -> bool

(** [forget t ~c1 ~c2] drops the dependency (c1, c2) from the accepted
    set, after the caller removed its last occurrence from the CDG (a
    rolled-back path). Once revived, it counts again only from its own
    {!insert}. A no-op for an edge never accepted. *)
val forget : t -> c1:int -> c2:int -> unit

(** Current position of a channel in the topological order (test hook). *)
val position : t -> int -> int

(** Verify that the maintained order is a valid topological order of the
    CDG's live edges (test hook, O(|C|+|E|)). *)
val consistent : t -> bool
