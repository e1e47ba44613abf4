(** Offline virtual-layer assignment — the paper's Algorithm 2 ("Search
    and Remove Deadlocks"). All routes start in layer 0; cycles in each
    layer's CDG are broken by relocating the routes of
    heuristically-chosen edges to the next layer, until every layer is
    acyclic.

    Two interchangeable break engines (DESIGN.md section 17):

    - [`Scc] (default): condense the layer's CDG into strongly connected
      components once per pass (Tarjan, O(V+E)), skip every singleton
      component — already acyclic, the vast majority — and break only
      inside the non-trivial SCCs, evicting one heuristically best edge
      per surviving sub-component per pass. Components are independent,
      so planning fans out over [domains] OCaml domains; results are
      identical for any domain count.
    - [`Dfs]: the original one-cycle-at-a-time resumable DFS
      ({!Cycle}) — the oracle the SCC engine is validated against. *)

type engine =
  [ `Scc
  | `Dfs
  ]

type outcome = {
  layer_of_path : int array;  (** pair id -> virtual layer; -1 for absent pairs *)
  layers_used : int;  (** number of non-empty layers, the paper's VL count *)
  cycles_broken : int;
      (** [`Dfs]: cycles found and broken. [`Scc]: edges evicted (each
          eviction kills at least one cycle). *)
}

(** [assign_store store ~max_layers ~heuristic] distributes every present
    pair of [store] over at most [max_layers] virtual layers so every
    layer's CDG is acyclic. Layer 0's CDG is built in one CSR pass
    ({!Cdg.of_store}); under [`Scc] each next layer is likewise built in
    one pass over just the moved pairs. [layer_of_path] is indexed by
    pair id over the store's full capacity, with [-1] marking absent
    pairs. [domains] (default 1) parallelises [`Scc] planning across
    components and is ignored by [`Dfs]. Returns [Error] if a cycle
    survives in the last allowed layer (the fabric then cannot be routed
    deadlock-free with this budget — the paper's failed configurations). *)
val assign_store :
  ?engine:engine ->
  ?domains:int ->
  Route_store.t ->
  max_layers:int ->
  heuristic:Heuristic.t ->
  (outcome, string) result

(** [assign g ~paths ~max_layers ~heuristic] is {!assign_store} over a
    store holding path [i] under pair id [i] — the array-of-paths
    convenience entry point ([layer_of_path] then has no [-1]s). *)
val assign :
  ?engine:engine ->
  ?domains:int ->
  Graph.t ->
  paths:Path.t array ->
  max_layers:int ->
  heuristic:Heuristic.t ->
  (outcome, string) result

(** [balance outcome ~max_layers] spreads routes of heavily-populated
    layers over the unused layers (the tail of Algorithm 2): each unused
    layer receives a subset of exactly one original layer — subsets of an
    acyclic edge set stay acyclic, so no new cycle search is needed.
    Absent pairs stay [-1]. Returns the new per-pair layer array and the
    (now larger) number of layers in use; [layers_used] of the original
    outcome remains the VL requirement to report. *)
val balance : outcome -> max_layers:int -> int array * int
