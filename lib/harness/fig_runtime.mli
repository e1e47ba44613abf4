(** Routing-runtime experiments: the paper's Fig. 7 (k-ary n-tree sweep)
    and Fig. 8 (real systems). Wall-clock seconds to compute the complete
    routing (tables plus, where applicable, the virtual-layer
    assignment).

    [domains] times the batched-snapshot pipeline
    ({!Routing.Sssp.recommended_batch} destinations per snapshot) on that
    many domains; omitted, the figures measure the sequential baseline:
    the same driver at batch 1 on one domain. *)

val fig7 : ?max_endpoints:int -> ?domains:int -> unit -> Report.table

val fig8 : ?scale:int -> ?domains:int -> unit -> Report.table
