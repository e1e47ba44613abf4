(** Single-destination shortest-path kernels (DESIGN.md §15).

    Every routing engine here reduces to "build a shortest-path tree
    toward each destination over the reversed graph"; this module owns
    that inner loop. Both kernels produce bit-for-bit identical
    [(dist, via, reached)] results — the relaxation rule makes [via u]
    the minimum channel id among shortest-path achievers, a quantity
    independent of the settle order — so kernel choice is purely a
    performance knob. [test/test_spf.ml] enforces the equivalence
    against the heap oracle property-style. Above this module only
    {!Sssp}'s entry points (and the fabric manager's full recompute
    through them) take a kernel; every other engine runs [Bucket]. *)

(** Kernel selector. [Bucket] is the default everywhere.

    - [Heap]: binary-heap Dijkstra with decrease-key; the oracle.
    - [Bucket]: Dial-style bucket queue for bounded small-integer weight
      ratios. Bucket width is the minimum channel weight, so every edge
      spans at least one full bucket and nodes in the current bucket
      settle in any order. Single-homed terminals other than the root
      are leaves: they settle inside their switch's relaxation loop and
      never enter the queue. Falls back to [Heap] automatically when the
      bounds put the window out of range (see {!compute}). *)
type kind = Heap | Bucket

val kind_to_string : kind -> string

(** Result of one tree computation. [order] lists the settled nodes,
    [dst] first, each after its via-parent; the first [reached] entries
    are valid ([reached < num_nodes] means some node cannot reach
    [dst]). Iterating [order] backwards visits the tree far-to-near —
    exactly the order flow accumulation needs, with no sort. [order] is
    a valid settle order, not a kernel-independent one: the heap oracle
    settles by non-decreasing [dist], while the bucket core settles a
    single-homed terminal ({!Graph.attached}) right after its switch.

    The arrays are {b owned by the workspace}: valid until the next
    {!compute}/{!compute_hops} on the same workspace, and must not be
    mutated by the caller. *)
type tree = {
  dist : int array;
  via : int array;
  order : int array;
  reached : int;
}

(** One workspace per (graph, domain): all kernel state — heap, bucket
    window, result arrays — lives here, so concurrent
    computations on separate workspaces are race-free. *)
type workspace

(** [workspace ?kernel g] allocates kernel state sized for [g].
    [kernel] defaults to [Bucket]. *)
val workspace : ?kernel:kind -> Graph.t -> workspace

(** The kernel this workspace was created with. *)
val kind : workspace -> kind

(** [compute ws g ~weights ~dst] builds the shortest-path tree
    toward [dst] over the reversed graph with per-channel [weights].

    [minw]/[maxw] are bounds on the weight values: [minw <= weights.(c)
    <= maxw] for every channel that can be relaxed. When omitted they
    are recovered by scanning [weights] (O(channels)). The bucket core
    applies iff [minw >= 1] and [ceil(maxw/minw) + 2 <= 1024]; outside
    those bounds the call silently falls back to the heap oracle (the
    ["spf.fallbacks"] counter records it), so results never depend on
    the bounds.

    @raise Invalid_argument if [dst] is out of range. *)
val compute :
  ?minw:int ->
  ?maxw:int ->
  workspace ->
  Graph.t ->
  weights:int array ->
  dst:int ->
  tree

(** [compute_hops ws g ~dst] is {!compute} over all-ones weights:
    [dist] counts hops. *)
val compute_hops : workspace -> Graph.t -> dst:int -> tree
