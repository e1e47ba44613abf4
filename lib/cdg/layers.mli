(** Offline virtual-layer assignment — the paper's Algorithm 2 ("Search
    and Remove Deadlocks"). All routes start in layer 0; cycles in each
    layer's CDG are broken by relocating the routes of
    heuristically-chosen edges to the next layer, until every layer is
    acyclic.

    The break engine (DESIGN.md section 17) condenses the layer's CDG
    into strongly connected components once per pass (Tarjan, O(V+E)),
    skips every singleton component — already acyclic, the vast
    majority — and breaks only inside the non-trivial SCCs: a resumable
    cycle search per component evicts one heuristically chosen edge per
    cycle it finds. Components are planned one after another on the
    calling domain, in component order. The paper's one-cycle-at-a-time
    search over the whole layer is the test oracle the engine is
    validated against.

    The engine reads edge weights through {!Cdg}, which counts every
    slice {!Route_store.weight} times, and moves slices whole. Over a
    route-class store ({!Routing.Ftable.to_classes}) this gives every
    pair of a class the layer the per-pair store gives it, with the same
    [layers_used] and [cycles_broken] (DESIGN.md §10). *)

(** The one break engine. The type, and [?engine] on {!assign_store},
    stay one-valued only because the bring-up benchmark passes them
    (ROADMAP item 1). *)
type engine = [ `Scc ]

type outcome = {
  layer_of_path : int array;  (** pair id -> virtual layer; -1 for absent pairs *)
  layers_used : int;  (** number of non-empty layers, the paper's VL count *)
  cycles_broken : int;
      (** edges evicted, one per cycle found (each eviction kills at
          least one cycle) *)
}

(** [assign_store store ~max_layers ~heuristic] distributes every present
    pair of [store] over at most [max_layers] virtual layers so every
    layer's CDG is acyclic. Layer 0's CDG is built in one CSR pass
    ({!Cdg.of_store}); each next layer is likewise built in one pass over
    just the pairs moved into it, once the layer below is done.
    [layer_of_path] is indexed by pair id over the store's full capacity,
    with [-1] marking absent pairs. [domains] is ignored: placement runs
    on the calling domain. Like [?engine], it stays only because the
    bring-up benchmark passes it (ROADMAP item 1). Returns [Error] if a
    cycle survives in the last allowed layer (the fabric then cannot be
    routed deadlock-free with this budget — the paper's failed
    configurations). *)
val assign_store :
  ?engine:engine ->
  ?domains:int ->
  Route_store.t ->
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
