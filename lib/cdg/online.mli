(** Online (path-at-a-time) virtual-layer assignment, as used by LASH and
    by the paper's first, slower DFSSSP variant: each route is placed into
    the lowest layer where its dependencies close no cycle; a fresh layer
    is opened when none fits. Requires a cycle check per path, the cost
    the offline algorithm avoids. Each layer keeps a Pearce–Kelly dynamic
    topological order ({!Pk_order}): a path's fresh dependencies are
    registered one by one, and only the affected region between an
    edge's endpoints is visited; a rejected path's already registered
    dependencies are forgotten with its rollback. The Kahn-based
    reference placement in
    [test/test_cdg.ml] is the oracle it is checked against. *)

type outcome = {
  layer_of_path : int array;  (** pair id -> virtual layer; -1 for absent pairs *)
  layers_used : int;
  cycle_checks : int;  (** fresh dependencies registered with the Pearce–Kelly orders *)
}

(** [assign_store ?seed store ~max_layers] places every present
    pair of [store] in id order, reading dependencies from arena slices.
    [layer_of_path] covers the store's full capacity; absent pairs are
    [-1].

    [seed] (indexed by pair id over the store's capacity) pins every
    present pair with [seed.(p) >= 0] to that layer: the seeded layers'
    CDGs are built in bulk, checked acyclic once, and the remaining pairs
    are placed online around them. [Error] if the seed uses more than
    [max_layers] layers or a seeded layer is cyclic. Without [seed] the
    assignment is the plain online one.
    @raise Invalid_argument if [seed] does not span the store's capacity. *)
val assign_store :
  ?seed:int array ->
  Route_store.t ->
  max_layers:int ->
  (outcome, string) result

(** [assign g ~paths ~max_layers] is {!assign_store} over a store holding
    path [i] under pair id [i]. *)
val assign :
  Graph.t ->
  paths:Path.t array ->
  max_layers:int ->
  (outcome, string) result
