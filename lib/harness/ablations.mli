(** Ablation experiments for the design choices DESIGN.md calls out —
    beyond the paper's own evaluation:

    - the SSSP initial channel weight ([|V|^2] vs the naive 1), the point
      of the paper's Fig. 1: the naive weight trades latency for balance;
    - hardening arbitrary base routings (DOR, MinHop) with the offline
      layer assignment, showing the APP machinery is routing-agnostic;
    - a dragonfly fabric, a topology class the paper never evaluated, as a
      generality check for every algorithm in the registry;
    - the post-assignment layer balancing step (tail of Algorithm 2),
      measured with the packet-level simulator where extra lanes mean
      extra buffers. *)

(** Fig. 1 ablation: routes under initial weight 1 vs [|V|^2]. *)
val sssp_initial_weight : unit -> Report.table

(** DOR and MinHop, raw vs hardened, on a wrap-around torus.
    [batch]/[domains] run the table fills on the batched-snapshot
    pipeline ({!Runs.run_named}). *)
val hardened_routings : ?patterns:int -> ?seed:int -> ?batch:int -> ?domains:int -> unit -> Report.table

(** The full algorithm line-up on a dragonfly. [batch]/[domains] as in
    {!hardened_routings}. *)
val dragonfly : ?patterns:int -> ?seed:int -> ?batch:int -> ?domains:int -> unit -> Report.table

(** The expander-family random graphs of the zoo battery
    ({!Zoo.generator_specs}: two jellyfish and two xpander samples):
    existence feasibility, the provable VL lower bound, and the layer
    counts the deadlock-free algorithms actually pay on each. *)
val random_graphs : ?max_layers:int -> unit -> Report.table

(** Packet-simulator throughput with and without layer balancing. *)
val balancing : ?seed:int -> unit -> Report.table

(** The online assignment (Pearce-Kelly dynamic topological ordering)
    vs the paper's offline algorithm (SCC condensation): wall-clock over
    a k-ary n-tree sweep. Both produce deadlock-free assignments; the
    offline sweep is the paper's answer to the online cost. The
    one-cycle-at-a-time search's timings are in [make bench-break]. *)
val online_engines : ?max_endpoints:int -> unit -> Report.table

(** Classic adversarial permutations (bit complement/reverse, transpose,
    tornado) on a torus and a fat tree: mean bandwidth share per routing.
    Deterministic patterns expose weaknesses random bisections average
    away — tornado on the torus is the textbook case. *)
val adversarial_patterns : unit -> Report.table

(** LMC-style multipath ({!Dfsssp.Multipath}): effective bisection
    bandwidth and tornado share vs the number of forwarding planes, with
    the joint virtual-lane bill. Diversity helps adversarial patterns and
    costs lanes — on the torus, four planes no longer fit in 8 lanes
    (reported as a failed row), InfiniBand's full 16 absorb them. *)
val multipath : ?matchings:int -> ?seed:int -> unit -> Report.table

(** All-pairs routing quality (path lengths, load balance) per algorithm
    on the Deimos stand-in: the two quantities the paper trades —
    Up*/Down* sacrifices length and balance at the root, LASH sacrifices
    balance, SSSP/DFSSSP keep both. [batch]/[domains] as in
    {!hardened_routings}. *)
val routing_quality : ?scale:int -> ?batch:int -> ?domains:int -> unit -> Report.table

(** Virtual-lane budget sweep on a wrap-around torus: DFSSSP fails below
    its requirement, succeeds at it, and converts any surplus into extra
    buffering via the balancing step (drain time on the packet
    simulator keeps improving). *)
val vl_budget : ?budgets:int list -> unit -> Report.table

(** Phased collective schedules ({!Simulator.Collective}): completion time
    of pairwise-exchange all-to-all and both allreduce algorithms under
    each routing. Every round is a permutation, so the routing's balance
    is priced n-1 times — closer to what MPI puts on the wire than the
    flat Fig. 13 model. *)
val collectives : ?message_bytes:float -> unit -> Report.table

(** Empirical check of the paper's complexity analysis (Propositions 1-2):
    for the k-ary n-tree sweep, the size of the channel dependency graph,
    the number of routes, cycles broken, and the offline assignment's
    runtime — the quantities whose growth the propositions bound. The
    offline algorithm's one-amortized-sweep-per-layer claim shows as
    near-linear growth in |C| + |E| per layer. *)
val complexity : ?max_endpoints:int -> unit -> Report.table
