let log_src = Logs.Src.create "deadlock.online" ~doc:"online virtual-layer assignment"

module Log = (val Logs.src_log log_src : Logs.LOG)

type outcome = {
  layer_of_path : int array;
  layers_used : int;
  cycle_checks : int;
}

let t_assign = Obs.Registry.timer "online.assign" ~desc:"seconds per online layer assignment"

let c_checks =
  Obs.Registry.counter "online.cycle_checks"
    ~desc:"dependencies registered with the online placement's Pearce-Kelly orders"

(* The refusal names the route by its endpoints: the node its first
   channel leaves and the node its last channel enters. *)
let refusal store ~pair ~max_layers =
  let g = Route_store.graph store in
  let name v = (Graph.node g v).Node.name in
  let first = Route_store.get store ~pair 0
  and last = Route_store.get store ~pair (Route_store.length store ~pair - 1) in
  Printf.sprintf "route %d (%s -> %s) fits no layer (max %d)" pair
    (name (Graph.channel g first).Channel.src)
    (name (Graph.channel g last).Channel.dst)
    max_layers

(* Places every present pair in id order into the lowest layer it keeps
   acyclic, opening layers up to [max_layers]. A layer is its
   Pearce–Kelly order's accepted edge set. A path's fresh dependencies —
   those the layer does not hold yet; the others cannot close anything
   new — are inserted one by one; a rejected edge leaves the order
   untouched, and the fresh edges accepted before it are forgotten with
   the path: later reorderings stop respecting them, so a later path
   reviving one must insert it anew. *)
let place store ~max_layers =
  let layer_of_path = Array.make (Route_store.capacity store) (-1) in
  let pks = ref [||] in
  let checks = ref 0 in
  let error = ref None in
  let rejects pk fresh =
    let rec go = function
      | [] -> false
      | (a, b) :: rest ->
        incr checks;
        if Pk_order.insert pk ~c1:a ~c2:b then go rest else true
    in
    go fresh
  in
  Route_store.iter_pairs store (fun i ->
      if !error = None then begin
        let placed = ref false in
        let vl = ref 0 in
        while (not !placed) && !error = None do
          if !vl >= Array.length !pks then
            if Array.length !pks >= max_layers then error := Some (refusal store ~pair:i ~max_layers)
            else pks := Array.append !pks [| Pk_order.create (Route_store.graph store) |];
          if !error = None then begin
            let pk = !pks.(!vl) in
            let fresh = ref [] in
            Route_store.iter_deps store ~pair:i (fun a b ->
                if not (Pk_order.mem pk ~c1:a ~c2:b) then fresh := (a, b) :: !fresh);
            let fresh = List.rev !fresh in
            if rejects pk fresh then begin
              List.iter (fun (a, b) -> Pk_order.forget pk ~c1:a ~c2:b) fresh;
              incr vl
            end
            else begin
              layer_of_path.(i) <- !vl;
              placed := true
            end
          end
        done
      end);
  Obs.Counter.incr ~n:!checks c_checks;
  match !error with
  | Some msg -> Error msg
  | None ->
    let layers_used = 1 + Array.fold_left max 0 layer_of_path in
    Log.info (fun m ->
        m "placed %d routes over %d layer(s) with %d cycle probes" (Route_store.num_paths store)
          layers_used !checks);
    Ok { layer_of_path; layers_used; cycle_checks = !checks }

let assign_store store ~max_layers =
  if max_layers < 1 then invalid_arg "Online.assign: max_layers < 1";
  Obs.Timer.time t_assign (fun () -> place store ~max_layers)

let assign g ~paths ~max_layers = assign_store (Route_store.of_paths g paths) ~max_layers
