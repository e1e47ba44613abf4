(** DFSSSP route computation engine (see {!Dfsssp} for the public umbrella). — the
    paper's contribution. SSSP's globally-balanced minimal routes are kept
    unchanged; deadlock freedom is obtained purely by partitioning the
    routes over virtual layers so that each layer's channel dependency
    graph is acyclic (the APP problem), using the offline cycle-breaking
    of Algorithm 2 by default.

    Only {!assign_layers} takes a cycle-break engine, and the
    shortest-path kernel is chosen one layer down, on
    {!Routing.Sssp}: those are the entry points the parity suites and the
    bring-up benchmark drive. {!route} runs the defaults ([`Scc],
    {!Routing.Spf.Auto}): kernel choice never changes a table, and the
    [`Dfs] oracle engine stays within one layer of [`Scc] (DESIGN.md
    §15, §17).

    {[
      let fabric = Netgraph.Topo_torus.torus ~dims:[|4;4|] ~terminals_per_switch:2 |> fst in
      match Dfsssp.route fabric with
      | Ok ft ->
        Format.printf "virtual layers needed: %d@." (Routing.Ftable.num_layers ft)
      | Error e -> prerr_endline (Dfsssp.error_to_string e)
    ]} *)

type variant =
  | Offline  (** Algorithm 2: one amortized cycle sweep per layer (default) *)
  | Online  (** LASH-style path-at-a-time placement on SSSP routes *)

type error =
  | Routing_failed of string  (** SSSP could not route (disconnected fabric) *)
  | Layers_exhausted of string  (** no deadlock-free assignment within [max_layers] *)
  | Bad_budget of int  (** [max_layers] above the 256 layer ids a table holds *)

val error_to_string : error -> string

(** [route ?variant ?heuristic ?max_layers ?balance g] routes the fabric
    deadlock-free.

    - [variant] (default [Offline]) selects the layer-assignment engine.
    - [heuristic] (default {!Cdg.Heuristic.Weakest}) picks the cycle edge
      to evict (offline variant only).
    - [max_layers] (default 8, the virtual lanes current InfiniBand
      hardware offers) bounds the layers; the paper's failed bars are
      [Layers_exhausted].
    - [balance] (default [false]) additionally spreads routes over the
      unused layers afterwards (the tail of Algorithm 2). The reported
      {!Routing.Ftable.num_layers} remains the number {e required}.
    - [batch]/[domains]/[pool] select {!Routing.Sssp}'s batched-snapshot
      pipeline for the SSSP stage (defaults reproduce the sequential
      recurrence; see DESIGN.md section 12). [domains] also fans the
      [`Scc] break planning out across components.

    The result carries per-route layers; {!Verify.deadlock_free} holds on
    every successful result. *)
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

(** [layers_required ?variant ?heuristic ?max_layers g] is the virtual
    layer count alone (the quantity of the paper's Figs. 9/10). *)
val layers_required :
  ?variant:variant ->
  ?heuristic:Heuristic.t ->
  ?max_layers:int ->
  ?batch:int ->
  ?domains:int ->
  Graph.t ->
  (int, error) result

(** [assign_layers ?variant ?heuristic ?max_layers ?balance ft] applies the
    cycle-breaking layer assignment to an {e existing} routing — any
    oblivious routing (DOR on a torus, MinHop on an irregular fabric)
    becomes deadlock-free this way, not only SSSP; the APP machinery is
    routing-agnostic. Overwrites [ft]'s layer table in place and returns
    it. [engine] (default [`Scc]) selects the offline cycle-break engine
    ({!Layers.engine}; DESIGN.md section 17; ignored by [Online]), and
    [domains] fans its [`Scc] planning out across components.

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

(** [route_min_layers ?max_layers g] runs the offline assignment under
    every heuristic and keeps the result using the fewest virtual layers
    (APP is NP-complete, so no single heuristic dominates — paper
    Section IV). Returns the winning table and its heuristic.

    [domains > 1] runs the heuristics concurrently (each inner route
    stays single-domain); the winner — by (layers, heuristic order) — is
    identical to the sequential scan's. [batch] is forwarded to the SSSP
    stage and, unlike [domains], changes the routes themselves. *)
val route_min_layers :
  ?max_layers:int ->
  ?batch:int ->
  ?domains:int ->
  Graph.t ->
  (Ftable.t * Heuristic.t, error) result
