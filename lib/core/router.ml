let log_src = Logs.Src.create "dfsssp" ~doc:"deadlock-free SSSP routing"

module Log = (val Logs.src_log log_src : Logs.LOG)

(* [placement] comes first so that an unqualified [Offline]/[Online]
   still names a [variant] (the type defined last wins). *)
type placement =
  | Offline
  | Online
  | Online_fallback of { offline_reason : string }

type variant =
  | Offline
  | Online

type built = {
  table : Ftable.t;
  placement : placement;
  layers : int;
  classes : Ftable.classes;
}

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

(* Layer placement runs on the table's route classes: one slice per
   (entry switch, destination), weighted by its pair count, so every
   pair of a class gets the class's layer — the layers the per-pair
   store would get (DESIGN.md §10). Both placements only read the class
   store, so when Algorithm 2 runs out of layers and [fallback] is set,
   the online placement runs on the same store: one class walk either
   way. [balance] then spreads the expanded per-pair assignment. *)
let place ~variant ~fallback ?engine ?domains ?(heuristic = Heuristic.Weakest) ?(max_layers = 8)
    ?(balance = false) ft =
  if max_layers > Routing.Ftable.max_layer_ids then Error (Bad_budget max_layers)
  else
    match Obs.Timer.time t_class_walk (fun () -> Routing.Ftable.to_classes ft) with
    | Error msg -> Error (Routing_failed msg)
    | Ok cls -> (
      let store = cls.Routing.Ftable.store in
      let online () =
        Result.map
          (fun o -> (o.Online.layer_of_path, o.Online.layers_used, 0))
          (Online.assign_store store ~max_layers)
      in
      let placed =
        match variant with
        | Online -> Result.map (fun a -> (a, (Online : placement))) (online ())
        | Offline -> (
          match Layers.assign_store ?engine ?domains store ~max_layers ~heuristic with
          | Ok o -> Ok ((o.Layers.layer_of_path, o.Layers.layers_used, o.Layers.cycles_broken), Offline)
          | Error offline when fallback -> (
            match online () with
            | Ok a -> Ok (a, Online_fallback { offline_reason = offline })
            | Error online ->
              Error
                (Printf.sprintf "offline layer assignment failed: %s; online placement failed: %s"
                   offline online))
          | Error _ as e -> e)
      in
      match placed with
      | Error msg -> Error (Layers_exhausted msg)
      | Ok ((class_layer, layers_used, cycles_broken), placement) ->
        let used =
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
        Routing.Ftable.set_num_layers ft used;
        Ok { table = ft; placement; layers = layers_used; classes = cls })

let assign_layers ?(variant = Offline) ?engine ?domains ?heuristic ?max_layers ?balance ft =
  Result.map
    (fun b -> b.table)
    (place ~variant ~fallback:false ?engine ?domains ?heuristic ?max_layers ?balance ft)

let placement_to_string : placement -> string = function
  | Offline -> "offline"
  | Online -> "online"
  | Online_fallback _ -> "online fallback"

let build ?(variant = Offline) ?heuristic ?max_layers ?balance ?batch ?domains ?pool ?kernel g =
  let result =
    match Routing.Sssp.route ?batch ?domains ?pool ?kernel g with
    | Error msg -> Error (Routing_failed msg)
    | Ok ft -> place ~variant ~fallback:true ?domains ?heuristic ?max_layers ?balance ft
  in
  Result.iter
    (fun b ->
      Log.info (fun m ->
          m "routed %d terminals over %d channels: %d virtual layer(s), placed %s" (Graph.num_terminals g)
            (Graph.num_channels g) b.layers (placement_to_string b.placement)))
    result;
  result

(* The paper's DFSSSP: a table Algorithm 2 could not place is refused,
   so Figs. 9/10 report its own layer count. The refusal names what the
   online placement of the same routes reached. *)
let route ?variant ?heuristic ?max_layers ?balance ?batch ?domains ?pool g =
  match build ?variant ?heuristic ?max_layers ?balance ?batch ?domains ?pool g with
  | Error _ as e -> e
  | Ok { table; placement = Offline | Online; _ } -> Ok table
  | Ok { placement = Online_fallback { offline_reason }; layers; _ } ->
    Error
      (Layers_exhausted
         (Printf.sprintf
            "%s; the online placement fits these routes in %d layer(s): fabric_tool route SPEC \
             --online serves that table, and so do manage and serve"
            offline_reason layers))
