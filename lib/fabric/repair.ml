let log_src = Logs.Src.create "fabric.repair" ~doc:"rescue route repair"

module Log = (val Logs.src_log log_src : Logs.LOG)

let affected_destinations ft ~channels =
  let g = Ftable.graph ft in
  let n = Graph.num_nodes g in
  let listed = Array.make (Graph.num_channels g) false in
  List.iter (fun c -> listed.(c) <- true) channels;
  let hit_dsts = ref [] in
  Array.iter
    (fun dst ->
      let hit = ref false in
      let u = ref 0 in
      while (not !hit) && !u < n do
        (match Ftable.next ft ~node:!u ~dst with
        | Some c when listed.(c) -> hit := true
        | _ -> ());
        incr u
      done;
      if !hit then hit_dsts := dst :: !hit_dsts)
    (Graph.terminals g);
  List.rev !hit_dsts

let patch ?kernel ~graph ~old ~dsts ~weights ~max_layers () =
  let ( let* ) = Result.bind in
  let n = Graph.num_nodes graph in
  let repaired = Array.make n false in
  List.iter (fun d -> repaired.(d) <- true) dsts;
  let ft = Ftable.create graph ~algorithm:(Ftable.algorithm old) in
  (* Kept destinations: copy the whole forwarding tree verbatim. *)
  Array.iter
    (fun dst ->
      if not repaired.(dst) then
        for u = 0 to n - 1 do
          Option.iter (fun c -> Ftable.set_next ft ~node:u ~dst ~channel:c) (Ftable.next old ~node:u ~dst)
        done)
    (Graph.terminals graph);
  let* () = Sssp.route_destinations ?kernel graph ~weights ~ft ~dsts:(Array.of_list dsts) in
  let* store = Ftable.to_store ft in
  (* Kept pairs keep their layer; pairs toward repaired destinations are
     placed online around them. *)
  let seed = Ftable.pair_layers old in
  Route_store.iter_pairs store (fun p ->
      if repaired.(snd (Ftable.pair_of_id ft p)) then seed.(p) <- -1);
  let* o = Online.assign_store ~seed store ~max_layers in
  Ftable.set_pair_layers ft o.Online.layer_of_path;
  Ftable.set_num_layers ft o.Online.layers_used;
  Log.debug (fun m ->
      m "patched %d destination(s) over %d layer(s)" (List.length dsts) o.Online.layers_used);
  Ok ft
