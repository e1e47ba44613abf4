(** End-to-end verification of a routing: completeness (every terminal
    pair reachable by following the tables), minimality, and
    deadlock-freedom (per-layer channel dependency graphs rebuilt from
    scratch and checked acyclic — Dally & Seitz's sufficient condition,
    independent of the assignment machinery that produced the layers).

    The fabric manager's epoch gate does not run the acyclicity check:
    there the checked certificate of [Analysis.Analyzer.certify_classes]
    is the deadlock proof, and {!of_classes} turns the certifier's own
    route classes into the report. {!deadlock_free} stays as the
    independent oracle that tests and the churn soak compare the
    certificate against. *)

type report = {
  stats : Ftable.stats;
  num_layers : int;
  max_layer_seen : int;  (** highest layer actually used by some route *)
  deadlock_free : bool;
}

(** [of_classes ft cls ~deadlock_free] is the report of [ft]'s routes
    from its classes ({!Routing.Ftable.to_classes}): completeness is the
    classes', the statistics come from {!Routing.Ftable.class_stats}, and
    the deadlock verdict is the caller's proof, passed through. *)
val of_classes : Ftable.t -> Ftable.classes -> deadlock_free:bool -> report

(** [deadlock_free ?domains ft] rebuilds one CDG per virtual layer from
    the routes and checks each for cycles; [domains > 1] checks layers in
    parallel. *)
val deadlock_free : ?domains:int -> Ftable.t -> bool

(** [report ft] walks the route classes once, collects their statistics
    ({!of_classes}) and checks every layer's CDG, rebuilt from the
    classes' per-pair expansion, acyclic; [Error] names the first pair
    with no loop-free route. *)
val report : Ftable.t -> (report, string) result

val pp_report : Format.formatter -> report -> unit
