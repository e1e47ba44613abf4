let log_src = Logs.Src.create "deadlock.online" ~doc:"online virtual-layer assignment"

module Log = (val Logs.src_log log_src : Logs.LOG)

type outcome = {
  layer_of_path : int array;
  layers_used : int;
  cycle_checks : int;
}

let fresh_dependencies cdg store ~pair =
  let fresh = ref [] in
  Route_store.iter_deps store ~pair (fun a b ->
      if not (Cdg.live cdg ~c1:a ~c2:b) then fresh := (a, b) :: !fresh);
  !fresh

(* Places every present pair in id order into the lowest layer it keeps
   acyclic, opening layers up to [max_layers]. Each layer's Pearce–Kelly
   order registers a path's fresh dependencies one by one (only 0->1
   count transitions: dependencies the layer already carried cannot
   close anything new); a rejected edge leaves the order untouched and
   the path is rolled out of the CDG. Edge deletions never invalidate a
   topological order, but the fresh edges the order accepted before the
   rejection are forgotten with it: later reorderings stop respecting
   them, so a later path reviving one must register it anew. *)
let assign_store store ~max_layers =
  if max_layers < 1 then invalid_arg "Online.assign: max_layers < 1";
  let g = Route_store.graph store in
  let layer_of_path = Array.make (Route_store.capacity store) (-1) in
  let cdgs = ref [||] and pks = ref [||] in
  let checks = ref 0 in
  let error = ref None in
  let rejects pk fresh =
    let rec go = function
      | [] -> false
      | (a, b) :: rest ->
        incr checks;
        if Pk_order.insert pk ~c1:a ~c2:b then go rest else true
    in
    go (List.rev fresh)
  in
  Route_store.iter_pairs store (fun i ->
      if !error = None then begin
        let placed = ref false in
        let vl = ref 0 in
        while (not !placed) && !error = None do
          if !vl >= Array.length !cdgs then
            if Array.length !cdgs >= max_layers then
              error := Some (Printf.sprintf "path %d fits no layer (max %d)" i max_layers)
            else begin
              let cdg = Cdg.create g in
              cdgs := Array.append !cdgs [| cdg |];
              pks := Array.append !pks [| Pk_order.create cdg |]
            end;
          if !error = None then begin
            let cdg = !cdgs.(!vl) in
            let fresh = fresh_dependencies cdg store ~pair:i in
            Cdg.add_pair cdg store ~pair:i;
            if rejects !pks.(!vl) fresh then begin
              Cdg.remove_pair cdg store ~pair:i;
              List.iter (fun (a, b) -> Pk_order.forget !pks.(!vl) ~c1:a ~c2:b) fresh;
              incr vl
            end
            else begin
              layer_of_path.(i) <- !vl;
              placed := true
            end
          end
        done
      end);
  match !error with
  | Some msg -> Error msg
  | None ->
    let layers_used = 1 + Array.fold_left max 0 layer_of_path in
    Log.info (fun m ->
        m "placed %d routes over %d layer(s) with %d cycle probes" (Route_store.num_paths store)
          layers_used !checks);
    Ok { layer_of_path; layers_used; cycle_checks = !checks }

let assign g ~paths ~max_layers = assign_store (Route_store.of_paths g paths) ~max_layers
