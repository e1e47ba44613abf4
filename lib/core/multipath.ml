type t = {
  planes : Ftable.t array;
  num_layers : int;
}

let planes t = t.planes

let num_layers t = t.num_layers

(* Combined arena over all planes: pair id [plane * nt^2 + si * nt + di],
   so one joint layer assignment sees every plane's routes. *)
let combined_store planes =
  let g = Routing.Ftable.graph planes.(0) in
  let terminals = Graph.terminals g in
  let nt = Array.length terminals in
  let per_plane = nt * nt in
  let store = Route_store.create g ~capacity:(Array.length planes * per_plane) in
  Array.iteri
    (fun plane ft ->
      Array.iteri
        (fun si src ->
          Array.iteri
            (fun di dst ->
              if si <> di then
                match Routing.Ftable.path ft ~src ~dst with
                | Some p -> Route_store.set_path store ~pair:((plane * per_plane) + (si * nt) + di) p
                | None -> failwith (Printf.sprintf "Multipath: no route %d -> %d in plane %d" src dst plane))
            terminals)
        terminals)
    planes;
  store

let decode_pair planes pair =
  let terminals = Graph.terminals (Routing.Ftable.graph planes.(0)) in
  let nt = Array.length terminals in
  let per_plane = nt * nt in
  let plane = pair / per_plane and rest = pair mod per_plane in
  (plane, terminals.(rest / nt), terminals.(rest mod nt))

let route ?(planes = 2) ?(heuristic = Heuristic.Weakest) ?(max_layers = 8) g =
  if planes < 1 then invalid_arg "Multipath.route: planes < 1";
  let weights = Routing.Sssp.initial_weights g in
  let rec build i acc =
    if i >= planes then Ok (Array.of_list (List.rev acc))
    else
      match Routing.Sssp.route_plane g ~weights with
      | Error msg -> Error (Router.Routing_failed msg)
      | Ok ft -> build (i + 1) (ft :: acc)
  in
  match build 0 [] with
  | Error _ as e -> e
  | Ok plane_tables -> (
    let store = combined_store plane_tables in
    match Layers.assign_store store ~max_layers ~heuristic with
    | Error msg -> Error (Router.Layers_exhausted msg)
    | Ok outcome ->
      Route_store.iter_pairs store (fun pair ->
          let plane, src, dst = decode_pair plane_tables pair in
          Routing.Ftable.set_layer plane_tables.(plane) ~src ~dst
            outcome.Layers.layer_of_path.(pair));
      Array.iter
        (fun ft -> Routing.Ftable.set_num_layers ft outcome.Layers.layers_used)
        plane_tables;
      Ok { planes = plane_tables; num_layers = outcome.Layers.layers_used })

let spread_paths t ~flows =
  let k = Array.length t.planes in
  Array.mapi
    (fun i (src, dst) ->
      if src = dst then [||]
      else
        match Routing.Ftable.path t.planes.(i mod k) ~src ~dst with
        | Some p -> p
        | None -> failwith (Printf.sprintf "Multipath.spread_paths: no route %d -> %d" src dst))
    flows
