(** Pluggable single-destination shortest-path kernels (DESIGN.md §15).

    Every routing engine here reduces to "build a shortest-path tree
    toward each destination over the reversed graph"; this module owns
    that inner loop behind a kernel interface.  All kernels produce
    bit-for-bit identical [(dist, via, order)] results — the relaxation
    rule makes [via u] the minimum channel id among shortest-path
    achievers, a quantity independent of the settle order — so kernel
    choice is purely a performance knob.  [test/test_spf.ml] enforces
    the equivalence against the heap oracle property-style.  Above this
    module only {!Sssp}'s entry points (and the fabric manager's full
    recompute through them) take a kernel; every other engine runs
    [Auto]. *)

(** Kernel selector. [Auto] (the default everywhere) currently resolves
    to [Incremental], which embeds the bucket core and adds switch-tree
    reuse on top.

    - [Heap]: binary-heap Dijkstra with decrease-key; the oracle.
    - [Bucket]: Dial-style bucket queue for bounded small-integer weight
      ratios. Bucket width is the minimum channel weight, so every edge
      spans at least one full bucket and nodes in the current bucket
      settle in any order. Falls back to [Heap] automatically when the
      bounds put the window out of range (see {!compute}).
    - [Incremental]: derives a single-switch-attached terminal's tree
      from its switch's tree (one injection edge), reusing one core run
      across all destinations on the same switch within one weight
      snapshot. Non-terminal or multi-homed destinations fall back to
      the bucket/heap core. *)
type kind = Auto | Heap | Bucket | Incremental

val all_kinds : kind list

val kind_to_string : kind -> string

(** [resolve k] is [k] with [Auto] replaced by the concrete default
    kernel. *)
val resolve : kind -> kind

(** Result of one tree computation. [order] lists settled nodes in
    non-decreasing [dist] order; the first [reached] entries are valid
    ([reached < num_nodes] means some node cannot reach [dst]).
    Iterating [order] backwards visits the tree far-to-near — exactly
    the order flow accumulation needs, with no sort.

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
    window, incremental cache, result arrays — lives here, so concurrent
    computations on separate workspaces are race-free. *)
type workspace

(** [workspace ?kernel g] allocates kernel state sized for [g].
    [kernel] defaults to [Auto]. *)
val workspace : ?kernel:kind -> Graph.t -> workspace

(** The kernel this workspace was created with ([Auto] preserved, for
    cache-revalidation comparisons). *)
val kind : workspace -> kind

(** Weight-snapshot stamps for the incremental cache. Two calls to
    {!compute} may share a stamp {b only if} the weight array contents
    and the graph (including its enabled mask) are identical at both
    calls. Stamps come from one process-wide atomic counter, so a fresh
    stamp is never equal to any other stamp in the process — when in
    doubt, draw a fresh one and forgo reuse. *)
val fresh_stamp : unit -> int

(** [compute ws g ~weights ~stamp ~dst] builds the shortest-path tree
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
  stamp:int ->
  dst:int ->
  tree

(** [compute_hops ws g ~stamp ~dst] is {!compute} over all-ones weights:
    [dist] counts hops. Hop distances are load-independent, so one stamp
    per routing run maximises incremental reuse. *)
val compute_hops : workspace -> Graph.t -> stamp:int -> dst:int -> tree
