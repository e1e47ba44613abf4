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

(* The Acyclic oracle over a per-pair store of [ft]'s routes. *)
let acyclic ?domains ft store =
  let layer_of_path = Routing.Ftable.pair_layers ft in
  Acyclic.layers_acyclic_store ?domains store ~layer_of_path
    ~num_layers:(1 + Array.fold_left max 0 layer_of_path)

let deadlock_free ?(domains = 1) ft =
  match Routing.Ftable.to_store ft with
  | Error _ -> false (* some pair unroutable; report this via {!report} *)
  | Ok store -> acyclic ~domains ft store

let report ft =
  Result.map
    (fun cls -> of_classes ft cls ~deadlock_free:(acyclic ft (Routing.Ftable.expand ft cls)))
    (Routing.Ftable.to_classes ft)

let pp_report ppf r =
  Format.fprintf ppf "%a layers=%d (max used %d) deadlock_free=%b" Routing.Ftable.pp_stats r.stats
    r.num_layers r.max_layer_seen r.deadlock_free
