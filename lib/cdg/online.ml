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

(* Places every pair not yet in [layer_of_path] into the lowest layer of
   [cdgs] it keeps acyclic, opening layers up to [max_layers]. Each layer's
   Pearce–Kelly order registers a path's fresh dependencies one by one
   (only 0->1 count transitions: dependencies the layer already carried
   cannot close anything new); a rejected edge leaves the order untouched
   and the path is rolled out of the CDG (edge deletions never invalidate
   a topological order). *)
let place store ~max_layers layer_of_path cdgs =
  let g = Route_store.graph store in
  let cdgs = ref cdgs in
  let pks = ref (Array.map Pk_order.create !cdgs) in
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
      if !error = None && layer_of_path.(i) < 0 then begin
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

let assign_store ?seed store ~max_layers =
  if max_layers < 1 then invalid_arg "Online.assign: max_layers < 1";
  let n = Route_store.capacity store in
  let seed = Option.value seed ~default:(Array.make n (-1)) in
  if Array.length seed <> n then invalid_arg "Online.assign_store: seed does not cover the store";
  (* Seeded pairs are pinned: each seeded layer's CDG is built in bulk from
     them and checked once, instead of probing their dependencies. *)
  let layer_of_path = Array.make n (-1) in
  Route_store.iter_pairs store (fun p -> layer_of_path.(p) <- seed.(p));
  let layers = 1 + Array.fold_left max (-1) layer_of_path in
  if layers > max_layers then Error (Printf.sprintf "seed uses %d layer(s) (max %d)" layers max_layers)
  else
    let cdgs =
      Array.init (max 1 layers) (fun vl -> Cdg.of_store ~filter:(fun p -> layer_of_path.(p) = vl) store)
    in
    match List.find_opt (fun vl -> not (Acyclic.is_acyclic cdgs.(vl))) (List.init layers Fun.id) with
    | Some vl -> Error (Printf.sprintf "seeded layer %d is cyclic" vl)
    | None -> place store ~max_layers layer_of_path cdgs

let assign g ~paths ~max_layers = assign_store (Route_store.of_paths g paths) ~max_layers
