(** LAyered SHortest-path routing (Skeie/Lysne/Theiss): minimum-hop routes
    made deadlock-free by assigning each source-destination route to a
    virtual layer, online — every route goes to the lowest layer whose
    channel dependency graph stays acyclic. The paper's deadlock-free
    reference algorithm (designed for tori; needs more layers than DFSSSP
    on sparse irregular fabrics, fewer on dense ones — its Fig. 9/10). *)

(** [route ?max_layers g] (default 16 layers, the InfiniBand ceiling).
    Fails if the fabric is disconnected or the layer budget is exceeded. *)
val route : ?max_layers:int -> Graph.t -> (Ftable.t, string) result
