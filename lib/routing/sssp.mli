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

    The per-destination tree comes from an {!Spf} kernel (DESIGN.md
    §15): the bucket core by default, or the heap oracle with
    [~kernel:Spf.Heap] on any entry point below. Both produce
    bit-for-bit identical tables and weights — kernel choice is purely a
    performance knob. The [|V|^2] weight base also makes SSSP the bucket
    kernel's best case: max/min weight stays below 2, so the bucket
    window is 4.

    {2 Batched-snapshot parallelism}

    The per-destination recurrence is sequential: destination [k+1]'s
    tree reads the weights destination [k] wrote. The [?batch] argument
    relaxes this in controlled steps (DESIGN.md section 12): weights are
    frozen once per batch of [batch] destinations, every destination in
    the batch is routed against the frozen snapshot — independently, so
    the batch spreads across [?domains] OCaml domains — and the batch's
    per-channel load contributions are merged back before the next
    snapshot.

    The loop is {!Batched.run}, the one destination loop of every
    engine; it owns the weights. When its pool-aware sizing decides
    fan-out cannot pay — single-domain hardware, batch of one, or a
    plane too small to amortise the dispatch — the batch runs inline on
    the caller and skips the snapshot copy entirely: with contributions
    recorded into a delta, the live weight array already {e is} the
    frozen snapshot. An inline batch of one destination adds its load
    straight into the weights: that is the sequential recurrence, with
    no delta and no merge.

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

(** A pool of routing domains with per-domain scratch (kernel workspace,
    tree-walk arrays, the driver's load-delta accumulator). Pools are
    graph-independent — scratch is rebuilt lazily when a plane arrives
    with a different node count or kernel — so one pool can serve many planes, graphs and engines (e.g. a
    {!Fabric.Manager} holding a pool across full recomputes). Must
    be released with {!destroy_pool}. *)
type pool

(** [create_pool ?domains ()] spawns [domains - 1] worker domains
    (default {!Parallel.recommended_domains}); the calling domain
    participates as the remaining slot. *)
val create_pool : ?domains:int -> unit -> pool

val destroy_pool : pool -> unit

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
    (default {!Spf.Bucket}). The defaults run the driver at batch 1 on
    the caller: the sequential recurrence, exactly. *)
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
    itself and the routing bench. Destinations are
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
