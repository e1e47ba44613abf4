(** DFSSSP route computation engine (see {!Dfsssp} for the public umbrella). — the
    paper's contribution. SSSP's globally-balanced minimal routes are kept
    unchanged; deadlock freedom is obtained purely by partitioning the
    routes over virtual layers so that each layer's channel dependency
    graph is acyclic (the APP problem), using the offline cycle-breaking
    of Algorithm 2 by default.

    {!build} is the one place SSSP and layer placement run together:
    {!route}, the registry, the experiments and the fabric manager all
    go through it. It runs {!Routing.Spf.Bucket} unless [kernel] says
    otherwise, and kernel choice never changes a table (DESIGN.md §15).
    Algorithm 2 has one break engine, SCC condensation (DESIGN.md §17).

    {[
      let fabric = Netgraph.Topo_torus.torus ~dims:[|4;4|] ~terminals_per_switch:2 |> fst in
      match Dfsssp.route fabric with
      | Ok ft ->
        Format.printf "virtual layers needed: %d@." (Routing.Ftable.num_layers ft)
      | Error e -> prerr_endline (Dfsssp.error_to_string e)
    ]} *)

(** How {!build} placed a table's routes on virtual layers. *)
type placement =
  | Offline  (** Algorithm 2 fit the budget *)
  | Online  (** the online placement, asked for with [~variant:Online] *)
  | Online_fallback of { offline_reason : string }
      (** Algorithm 2 ran out of layers ([offline_reason] says where),
          and the online placement of the same routes fit *)

(* Declared after [placement], so an unqualified [Offline]/[Online]
   names a variant. *)
type variant =
  | Offline  (** Algorithm 2: one amortized cycle sweep per layer (default) *)
  | Online  (** LASH-style path-at-a-time placement on SSSP routes *)

type built = {
  table : Ftable.t;
  placement : placement;
  layers : int;
      (** the layers the placement needed; [table] declares more when
          [balance] spread the routes *)
  classes : Ftable.classes;
      (** the route classes the layers were placed on, walked from
          [table] as it stands: the epoch gate reads its statistics and
          snapshot off them ({!Fabric.Epoch.try_swap}) instead of walking
          the table again *)
}

type error =
  | Routing_failed of string  (** SSSP could not route (disconnected fabric) *)
  | Layers_exhausted of string  (** no deadlock-free assignment within [max_layers] *)
  | Bad_budget of int  (** [max_layers] above the 256 layer ids a table holds *)

val error_to_string : error -> string

(** [build ?variant ?heuristic ?max_layers ?balance ?batch ?domains ?pool
    ?kernel g] is the one DFSSSP build: SSSP routes, walked once into
    route classes ({!Routing.Ftable.to_classes}), then placed on
    virtual layers. Under the default [Offline] variant Algorithm 2
    places them; when it runs out of layers, the online placement runs
    on the same class store and the result says [Online_fallback]. If
    both fail, [Error (Layers_exhausted _)] names both failures. The
    result carries that class store.

    - [heuristic] (default {!Cdg.Heuristic.Weakest}) picks the cycle edge
      to evict (Algorithm 2 only).
    - [max_layers] (default 8, the virtual lanes current InfiniBand
      hardware offers) bounds the layers for both placements.
    - [balance] (default [false]) additionally spreads routes over the
      unused layers afterwards (the tail of Algorithm 2). The table then
      declares the spread count, [max_layers], as its
      {!Routing.Ftable.num_layers}, so the declared count covers every
      layer a route uses (lint rule A004); [layers] still reports the
      number {e required}.
    - [batch]/[domains]/[pool]/[kernel] go to {!Routing.Sssp.route}
      (defaults reproduce the sequential recurrence; see DESIGN.md
      section 12) and nowhere else: layer placement runs on the calling
      domain. Only [batch] changes the table.

    The trusted checker ({!Analysis.Analyzer.certify}) accepts every
    successful result. *)
val build :
  ?variant:variant ->
  ?heuristic:Heuristic.t ->
  ?max_layers:int ->
  ?balance:bool ->
  ?batch:int ->
  ?domains:int ->
  ?pool:Routing.Sssp.pool ->
  ?kernel:Spf.kind ->
  Graph.t ->
  (built, error) result

(** [route ?variant ?heuristic ?max_layers ?balance g] is {!build}
    with the paper's semantics: a table Algorithm 2 could not place is
    refused, so the paper's failed bars are [Layers_exhausted] and the
    layer counts are Algorithm 2's own. The refusal names the layer
    count the online placement reached and the commands that serve that
    table ([fabric_tool route SPEC --online], [manage], [serve]). *)
val route :
  ?variant:variant ->
  ?heuristic:Heuristic.t ->
  ?max_layers:int ->
  ?balance:bool ->
  ?batch:int ->
  ?domains:int ->
  ?pool:Routing.Sssp.pool ->
  Graph.t ->
  (Ftable.t, error) result

(** [assign_layers ?variant ?heuristic ?max_layers ?balance ft] applies the
    cycle-breaking layer assignment to an {e existing} routing — any
    oblivious routing (DOR on a torus, MinHop on an irregular fabric)
    becomes deadlock-free this way, not only SSSP; the APP machinery is
    routing-agnostic. Overwrites [ft]'s layer table in place and returns
    it. It never falls back: [variant] picks the one placement that
    runs. [engine] has the one value [`Scc] ({!Layers.engine}) and stays
    only because the bring-up benchmark passes it (ROADMAP item 1), and
    so does [domains], which is ignored: placement runs on the calling
    domain.

    The assignment runs once per route class ({!Routing.Ftable.to_classes},
    timed by the [dfsssp.class_walk] timer), not once per pair; the
    layers, layer count and evictions equal those of
    {!Layers.assign_store} over {!Routing.Ftable.to_store}'s per-pair
    store. [Error (Bad_budget k)] if [max_layers > 256]: layer ids are
    bytes. *)
val assign_layers :
  ?variant:variant ->
  ?engine:Layers.engine ->
  ?domains:int ->
  ?heuristic:Heuristic.t ->
  ?max_layers:int ->
  ?balance:bool ->
  Ftable.t ->
  (Ftable.t, error) result
