type report = {
  stats : Ftable.stats;
  num_layers : int;
  max_layer_seen : int;
  deadlock_free : bool;
}

let of_classes ft cls ~deadlock_free =
  {
    stats = Routing.Ftable.class_stats ft cls;
    num_layers = Routing.Ftable.num_layers ft;
    max_layer_seen = Routing.Ftable.max_layer ft;
    deadlock_free;
  }

(* The verdict is the checker's; the statistics come from one class
   walk, whose failure names an incomplete table's first pair. *)
let report ft =
  let deadlock_free = Result.is_ok (Analysis.Analyzer.certify ft) in
  Result.map (fun cls -> of_classes ft cls ~deadlock_free) (Routing.Ftable.to_classes ft)

let pp_report ppf r =
  Format.fprintf ppf "%a layers=%d (max used %d) deadlock_free=%b" Routing.Ftable.pp_stats r.stats
    r.num_layers r.max_layer_seen r.deadlock_free
