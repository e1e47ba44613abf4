let log_src = Logs.Src.create "dfsssp" ~doc:"deadlock-free SSSP routing"

module Log = (val Logs.src_log log_src : Logs.LOG)

type variant =
  | Offline
  | Online

type error =
  | Routing_failed of string
  | Layers_exhausted of string
  | Bad_budget of int

let error_to_string = function
  | Routing_failed msg -> "dfsssp: routing failed: " ^ msg
  | Layers_exhausted msg -> "dfsssp: virtual layers exhausted: " ^ msg
  | Bad_budget k ->
    Printf.sprintf "dfsssp: max_layers %d exceeds the %d layer ids a table holds" k
      Routing.Ftable.max_layer_ids

let t_class_walk =
  Obs.Registry.timer "dfsssp.class_walk" ~desc:"seconds per route-class walk of the layer assignment"

(* Algorithm 2 (or the online placement) runs on the table's route
   classes: one slice per (entry switch, destination), weighted by its
   pair count, so every pair of a class gets the class's layer — the
   layers the per-pair store would get (DESIGN.md §10). [balance] then
   spreads the expanded per-pair assignment. *)
let assign_layers ?(variant = Offline) ?engine ?domains ?(heuristic = Heuristic.Weakest)
    ?(max_layers = 8) ?(balance = false) ft =
  if max_layers > Routing.Ftable.max_layer_ids then Error (Bad_budget max_layers)
  else
    match Obs.Timer.time t_class_walk (fun () -> Routing.Ftable.to_classes ft) with
    | Error msg -> Error (Routing_failed msg)
    | Ok cls -> (
      let store = cls.Routing.Ftable.store in
      let assignment =
        match variant with
        | Offline ->
          Result.map
            (fun o -> (o.Layers.layer_of_path, o.Layers.layers_used, o.Layers.cycles_broken))
            (Layers.assign_store ?engine ?domains store ~max_layers ~heuristic)
        | Online ->
          Result.map
            (fun o -> (o.Online.layer_of_path, o.Online.layers_used, 0))
            (Online.assign_store store ~max_layers)
      in
      match assignment with
      | Error msg -> Error (Layers_exhausted msg)
      | Ok (class_layer, layers_used, cycles_broken) ->
        let layers_used =
          if balance then begin
            let per_pair =
              Array.map (fun k -> if k < 0 then -1 else class_layer.(k)) cls.Routing.Ftable.class_of_pair
            in
            let per_pair, used =
              Layers.balance { Layers.layer_of_path = per_pair; layers_used; cycles_broken } ~max_layers
            in
            Routing.Ftable.set_pair_layers ft per_pair;
            used
          end
          else begin
            Routing.Ftable.set_class_layers ft cls class_layer;
            layers_used
          end
        in
        Routing.Ftable.set_num_layers ft layers_used;
        Ok ft)

let route ?variant ?heuristic ?max_layers ?balance ?batch ?domains ?pool g =
  let span =
    Obs.Trace.begin_span "dfsssp.route" ~attrs:(fun () ->
        [
          ("terminals", Obs.Trace.Int (Graph.num_terminals g));
          ("channels", Obs.Trace.Int (Graph.num_channels g));
          ( "variant",
            Obs.Trace.Str (match variant with Some Online -> "online" | _ -> "offline") );
        ])
  in
  let result =
    match Routing.Sssp.route ?batch ?domains ?pool g with
    | Error msg -> Error (Routing_failed msg)
    | Ok ft -> (
      match assign_layers ?variant ?domains ?heuristic ?max_layers ?balance ft with
      | Ok ft as ok ->
        Log.info (fun m ->
            m "routed %d terminals over %d channels: %d virtual layer(s)"
              (Graph.num_terminals (Routing.Ftable.graph ft))
              (Graph.num_channels (Routing.Ftable.graph ft))
              (Routing.Ftable.num_layers ft));
        ok
      | Error e as err ->
        Log.err (fun m -> m "%s" (error_to_string e));
        err)
  in
  (match result with
  | Ok ft ->
    Obs.Trace.end_span span
      ~attrs:[ ("layers", Obs.Trace.Int (Routing.Ftable.num_layers ft)) ]
  | Error e -> Obs.Trace.end_span span ~attrs:[ ("error", Obs.Trace.Str (error_to_string e)) ]);
  result

let layers_required ?variant ?heuristic ?max_layers ?batch ?domains g =
  match route ?variant ?heuristic ?max_layers ?batch ?domains g with
  | Error e -> Error e
  | Ok ft -> Ok (Routing.Ftable.num_layers ft)

let route_min_layers ?(max_layers = 8) ?batch ?(domains = 1) g =
  (* Try every cycle-breaking heuristic and keep the assignment with the
     fewest layers — cheap insurance against the APP heuristic gap the
     paper leaves open (Section IV). With [domains > 1] the heuristics
     run concurrently (each full route is independent of the others; the
     inner routes stay single-domain so the machine is not
     oversubscribed); the winner is picked by (layers, heuristic order),
     identical to the sequential scan. *)
  let heuristics = Array.of_list Heuristic.all in
  let nh = Array.length heuristics in
  let results = Array.make nh (Error (Routing_failed "not attempted")) in
  let run _scratch i =
    results.(i) <- route ~heuristic:heuristics.(i) ~max_layers ?batch g
  in
  if domains > 1 && nh > 1 then
    Parallel.Pool.with_pool ~domains
      (fun _slot -> ())
      (fun pool -> Parallel.Pool.run pool ~n:nh ~grain:1 run)
  else
    for i = 0 to nh - 1 do
      run () i
    done;
  let best = ref None in
  let last_error = ref None in
  Array.iteri
    (fun i result ->
      match result with
      | Error e -> last_error := Some e
      | Ok ft -> (
        let layers = Routing.Ftable.num_layers ft in
        match !best with
        | Some (_, _, best_layers) when best_layers <= layers -> ()
        | _ -> best := Some (ft, heuristics.(i), layers)))
    results;
  match (!best, !last_error) with
  | Some (ft, heuristic, _), _ -> Ok (ft, heuristic)
  | None, Some e -> Error e
  | None, None -> Error (Routing_failed "no heuristic available")
