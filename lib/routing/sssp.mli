(** Single-source-shortest-path routing (Hoefler et al., the paper's
    Algorithm 1): iterate a weighted shortest-path tree per destination
    and, after each destination is routed, increase every used channel's
    weight by the number of routes crossing it — globally balancing
    route load.

    The initial channel weight is [|V|^2]: accumulated increments stay
    below [|V|^2], so a two-channel detour can never undercut a direct
    channel and all routes keep minimal hop count (paper Section II).
    This bound is independent of how destinations are batched, so the
    batched-snapshot pipeline below preserves minimality.

    SSSP is {e not} deadlock-free in general — see {!Dfsssp} for the
    virtual-layer extension.

    {2 Kernels}

    The per-destination tree comes from a pluggable kernel ({!Spf},
    DESIGN.md §15), selected with [?kernel] on every entry point below.
    All kernels produce bit-for-bit identical tables and weights —
    kernel choice is purely a performance knob. The [|V|^2] weight base
    also makes SSSP the bucket kernel's best case: max/min weight stays
    below 2, so the bucket window is 4.

    {2 Batched-snapshot parallelism}

    The per-destination recurrence is sequential: destination [k+1]'s
    tree reads the weights destination [k] wrote. The [?batch] argument
    relaxes this in controlled steps (DESIGN.md section 12): weights are
    frozen once per batch of [batch] destinations, every destination in
    the batch is routed against the frozen snapshot — independently, so
    the batch spreads across [?domains] OCaml domains — and the batch's
    per-channel load contributions are merged back before the next
    snapshot.

    When the pool-aware sizing ({!Batched.effective_workers}) decides
    fan-out cannot pay — single-domain hardware, batch of one, or a
    plane too small to amortise the dispatch — the same batched loop
    runs inline on the caller and skips the snapshot copy entirely: with
    contributions recorded into a delta, the live weight array already
    {e is} the frozen snapshot. Within each batch the frozen weights let
    the incremental kernel share one core tree among all destinations on
    the same switch, which is why batched mode beats the sequential
    recurrence even on one domain.

    Contract: [batch] changes the algorithm (a coarser snapshot yields a
    slightly different — still minimal, still balanced — table);
    [domains] and [kernel] never do. [~batch:1] is bit-for-bit identical
    to the sequential recurrence for any [domains] and [kernel], and for
    any fixed [batch] the table and final weights are independent of
    [domains] and [kernel]. *)

(** Batch size used by callers that opt into the pipeline without a
    preference (currently 32): small enough that balancing quality is
    indistinguishable in the Fig. 4/5 metrics, large enough to keep every
    domain busy. *)
val recommended_batch : int

(** The kernel used when [?kernel] is omitted: {!Spf.Auto}. *)
val default_kernel : Spf.kind

(** A pool of routing domains with per-domain scratch (kernel workspace,
    tree-walk arrays, load-delta accumulator). Pools are
    graph-independent — scratch is (re)validated lazily against the
    graph (and requested kernel) of each invocation via epoch stamping —
    so one pool can serve many planes, graphs and engines (e.g. a
    {!Fabric.Manager} holding a pool across incremental re-routes). Must
    be released with {!destroy_pool}. *)
type pool

(** [create_pool ?domains ()] spawns [domains - 1] worker domains
    (default {!Parallel.recommended_domains}); the calling domain
    participates as the remaining slot. *)
val create_pool : ?domains:int -> unit -> pool

val destroy_pool : pool -> unit

(** Number of domains the pool runs on (including the caller). *)
val pool_domains : pool -> int

(** [route ?initial_weight ?batch ?domains ?pool ?kernel g] fails only
    on disconnected fabrics.

    [initial_weight] overrides the [|V|^2] base weight — the paper's
    Fig. 1 shows why the default matters: with [~initial_weight:1] the
    accumulated increments can make two lightly-loaded channels cheaper
    than one loaded channel and the router takes latency-increasing
    detours. Exposed for the ablation bench; leave it alone otherwise.

    [batch] (default 1) and [domains] (default 1) select the
    batched-snapshot pipeline; [pool] reuses an existing pool (its size
    overrides [domains]). [kernel] selects the shortest-path core
    (default {!Spf.Auto}). Defaults reproduce the sequential recurrence
    exactly. *)
val route :
  ?initial_weight:int ->
  ?batch:int ->
  ?domains:int ->
  ?pool:pool ->
  ?kernel:Spf.kind ->
  Graph.t ->
  (Ftable.t, string) result

(** [route_plane g ~weights] runs one SSSP pass over an {e existing}
    weight state, updating [weights] in place with the new routes' load.
    Successive calls over the same array produce diverse forwarding planes
    — later planes avoid channels earlier planes loaded — which is exactly
    how OpenSM's SSSP routes the extra LIDs of an LMC > 0 subnet (see
    {!Dfsssp.Multipath}). [weights] must have one entry per channel, all
    >= 1. [batch]/[domains]/[pool]/[kernel] as in {!route}. *)
val route_plane :
  ?batch:int ->
  ?domains:int ->
  ?pool:pool ->
  ?kernel:Spf.kind ->
  Graph.t ->
  weights:int array ->
  (Ftable.t, string) result

(** [route_destinations g ~weights ~ft ~dsts] is {!route_plane}
    restricted to the given destination terminals, writing into an
    existing table — the batch building block behind {!route_plane}
    itself, the fabric manager's rescue ({!Fabric.Repair}) and the routing
    bench. Destinations are
    processed in [dsts] order. Stops at the first failing destination
    (lowest index, as a sequential scan would find it); on [Error],
    [weights] and [ft] retain the contributions of the destinations
    already routed. [weights] entries must all be >= 1. *)
val route_destinations :
  ?batch:int ->
  ?domains:int ->
  ?pool:pool ->
  ?kernel:Spf.kind ->
  Graph.t ->
  weights:int array ->
  ft:Ftable.t ->
  dsts:int array ->
  (unit, string) result

(** Fresh weight state for {!route_plane}: every channel at [|V|^2]. *)
val initial_weights : Graph.t -> int array

(** [route_destination ws g ~weights ~ft ~dst] runs the per-destination
    step of {!route_plane} for a single terminal [dst]: one
    shortest-path tree toward [dst] (using the kernel [ws] was created
    with), forwarding entries written into [ft], and the new routes'
    load added to [weights]. Routing a list of destinations one step
    each is {!route_destinations} without batching. Fails if some node
    cannot reach [dst]. *)
val route_destination :
  Spf.workspace -> Graph.t -> weights:int array -> ft:Ftable.t -> dst:int -> (unit, string) result
