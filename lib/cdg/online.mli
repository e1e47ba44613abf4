(** Online (path-at-a-time) virtual-layer assignment, as used by LASH, by
    the paper's first, slower DFSSSP variant, and by [Dfsssp.build]
    when Algorithm 2 runs out of layers: each route is placed into
    the lowest layer where its dependencies close no cycle; a fresh layer
    is opened when none fits. Requires a cycle check per path, the cost
    the offline algorithm avoids. Each layer is a Pearce–Kelly dynamic
    topological order ({!Pk_order}) and the dependencies it has
    accepted: a path's fresh dependencies are inserted one by one, and
    only the affected region between an edge's endpoints is visited; a
    rejected path's already accepted dependencies are forgotten with
    it. Each run fires one [online.assign] timer sample and adds its
    insertions to the [online.cycle_checks] counter. The Kahn-based
    reference placement in [test/test_cdg.ml] is the oracle it is
    checked against. *)

type outcome = {
  layer_of_path : int array;  (** pair id -> virtual layer; -1 for absent pairs *)
  layers_used : int;
  cycle_checks : int;  (** fresh dependencies inserted into the Pearce–Kelly orders *)
}

(** [assign_store store ~max_layers] places every present pair of
    [store] in id order, reading dependencies from arena slices.
    [layer_of_path] covers the store's full capacity; absent pairs are
    [-1]. [Error] names the first pair that fits no layer within
    [max_layers], with the node its route leaves and the node it
    reaches.
    @raise Invalid_argument if [max_layers < 1]. *)
val assign_store : Route_store.t -> max_layers:int -> (outcome, string) result
