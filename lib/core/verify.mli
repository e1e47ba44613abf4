(** End-to-end verification of a routing: completeness (every terminal
    pair reachable by following the tables), minimality, and
    deadlock-freedom. The deadlock verdict is the trusted checker's
    ({!Analysis.Analyzer.certify}): a table is deadlock-free
    exactly when a topological witness for every virtual layer's channel
    dependency graph is generated and accepted — Dally & Seitz's
    sufficient condition, judged independently of the assignment
    machinery that produced the layers. The fabric manager's epoch gate
    asks the same checker and builds its report with {!of_classes} over
    the class store the table was placed on. *)

type report = {
  stats : Ftable.stats;
  num_layers : int;
  max_layer_seen : int;  (** highest layer actually used by some route *)
  deadlock_free : bool;
}

(** [of_classes ft cls ~deadlock_free] is the report of [ft]'s routes
    from its classes ({!Routing.Ftable.to_classes}): completeness is the
    classes', the statistics come from {!Routing.Ftable.class_stats}, and
    the deadlock verdict is the caller's proof, passed through.
    @raise Invalid_argument if [cls] was not walked from [ft] as it
    stands. *)
val of_classes : Ftable.t -> Ftable.classes -> deadlock_free:bool -> report

(** [report ft] certifies [ft] ({!Analysis.Analyzer.certify}) and
    reports the statistics of one class walk of [ft], with
    [deadlock_free] the checker's verdict. [Error] names the first pair
    with no loop-free route. *)
val report : Ftable.t -> (report, string) result

val pp_report : Format.formatter -> report -> unit
