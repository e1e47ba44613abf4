let log_src = Logs.Src.create "deadlock.online" ~doc:"online virtual-layer assignment"

module Log = (val Logs.src_log log_src : Logs.LOG)

type outcome = {
  layer_of_path : int array;
  layers_used : int;
  cycle_checks : int;
}

(* Adding path edges E_new to an acyclic CDG creates a cycle iff some
   {e newly created} edge (a, b) has a directed route from b back to a
   afterwards — dependencies the layer already carried cannot close
   anything new, so only 0->1 count transitions are probed (this is what
   keeps LASH tractable on fabrics with millions of routes: distinct
   routes share almost all their dependencies). One DFS from each new
   edge's head suffices; stamped visit marks avoid reinitialization, and
   the probe walks CSR successor rows without allocating. *)
let creates_cycle cdg fresh_edges stamp stamps checks =
  let rec probe = function
    | [] -> false
    | (a, b) :: rest ->
      incr checks;
      incr stamp;
      let target = a in
      let rec dfs c =
        if c = target then true
        else if stamps.(c) = !stamp then false
        else begin
          stamps.(c) <- !stamp;
          Cdg.exists_successor cdg c dfs
        end
      in
      if dfs b then true else probe rest
  in
  probe fresh_edges

let fresh_dependencies cdg store ~pair =
  let fresh = ref [] in
  Route_store.iter_deps store ~pair (fun a b ->
      if not (Cdg.live cdg ~c1:a ~c2:b) then fresh := (a, b) :: !fresh);
  !fresh

(* Places every pair not yet in [layer_of_path] into the lowest layer of
   [cdgs] it keeps acyclic, opening layers up to [max_layers]. *)
let place ~engine store ~max_layers layer_of_path cdgs =
  let g = Route_store.graph store in
  let pk_of cdg = match engine with `Pk -> Some (Pk_order.create cdg) | `Dfs -> None in
  let pks = ref (Array.map pk_of cdgs) in
  let cdgs = ref cdgs in
  let stamps = Array.make (Graph.num_channels g) 0 in
  let stamp = ref 0 in
  let checks = ref 0 in
  let error = ref None in
  (* [`Pk] registers the fresh dependencies one by one; a rejected edge
     leaves the order untouched and the path is rolled out of the CDG
     (edge deletions never invalidate a topological order). *)
  let pk_rejects pk fresh =
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
              pks := Array.append !pks [| pk_of cdg |]
            end;
          if !error = None then begin
            let cdg = !cdgs.(!vl) in
            let fresh = fresh_dependencies cdg store ~pair:i in
            Cdg.add_pair cdg store ~pair:i;
            let rejected =
              match !pks.(!vl) with
              | Some pk -> pk_rejects pk fresh
              | None -> creates_cycle cdg fresh stamp stamps checks
            in
            if rejected then begin
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

let assign_store ?(engine = `Dfs) ?seed store ~max_layers =
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
    | None -> place ~engine store ~max_layers layer_of_path cdgs

let assign ?engine g ~paths ~max_layers =
  assign_store ?engine (Route_store.of_paths g paths) ~max_layers
