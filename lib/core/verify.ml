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

(* A refusal is either an incomplete table (the class walk names the
   pair) or a cyclic layer: the classes are walked again only then. *)
let report ft =
  match Analysis.Analyzer.certify_classes ft with
  | Ok (_, cls) -> Ok (of_classes ft cls ~deadlock_free:true)
  | Error _ ->
    Result.map (fun cls -> of_classes ft cls ~deadlock_free:false) (Routing.Ftable.to_classes ft)

let pp_report ppf r =
  Format.fprintf ppf "%a layers=%d (max used %d) deadlock_free=%b" Routing.Ftable.pp_stats r.stats
    r.num_layers r.max_layer_seen r.deadlock_free
