(** Acyclicity of channel dependency graphs by Kahn's topological sort,
    rebuilt per layer from the routes — the reference deadlock-freedom
    decision the trusted checker ([Analysis.Cert]) and the witness
    search ([Analysis.Witness]) are compared against. Deliberately
    independent of both, and of the resumable DFS in
    {!Deadlock.Cycle}. Not for production use: the shipped code asks
    [Analysis.Analyzer.certify]. *)

(** [is_acyclic cdg] is [true] iff the CDG currently has no directed
    cycle. *)
val is_acyclic : Cdg.t -> bool

(** [layers_acyclic_store store ~layer_of_path ~num_layers] builds one
    CSR CDG per layer from the store ({!Cdg.of_store} with a layer
    filter) and checks each — the end-to-end deadlock-freedom criterion
    (paper Theorem 1 direction used: acyclic => deadlock-free).
    [layer_of_path] is indexed by pair id over the store's capacity;
    absent pairs carry [-1]. *)
val layers_acyclic_store : Route_store.t -> layer_of_path:int array -> num_layers:int -> bool

(** [deadlock_free ft] rebuilds one CDG per layer from [ft]'s per-pair
    routes ({!Routing.Ftable.to_store}) under its per-pair layers
    ({!Routing.Ftable.pair_layers}) and checks each acyclic; [false]
    when some pair has no loop-free route. *)
val deadlock_free : Routing.Ftable.t -> bool
