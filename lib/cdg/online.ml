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
   reviving one must insert it anew. Dependencies are read from the
   arena, and a path's fresh ones are collected into one int buffer. *)
let place store ~max_layers =
  let buf = Route_store.buffer store
  and off = Route_store.offsets store
  and len = Route_store.lengths store in
  let layer_of_path = Array.make (Route_store.capacity store) (-1) in
  (* fresh dependency k is [fresh.(2k)] -> [fresh.(2k + 1)] *)
  let fresh = Array.make (2 * Array.fold_left max 0 len) 0 in
  let pks = ref [||] in
  let checks = ref 0 in
  let error = ref None in
  for i = 0 to Array.length len - 1 do
    if len.(i) >= 0 && !error = None then begin
      let placed = ref false in
      let vl = ref 0 in
      while (not !placed) && !error = None do
        if !vl >= Array.length !pks then
          if Array.length !pks >= max_layers then error := Some (refusal store ~pair:i ~max_layers)
          else pks := Array.append !pks [| Pk_order.create (Route_store.graph store) |];
        if !error = None then begin
          let pk = !pks.(!vl) in
          let nfresh = ref 0 in
          for h = off.(i) to off.(i) + len.(i) - 2 do
            let a = buf.(h) and b = buf.(h + 1) in
            if not (Pk_order.mem pk ~c1:a ~c2:b) then begin
              fresh.(2 * !nfresh) <- a;
              fresh.((2 * !nfresh) + 1) <- b;
              incr nfresh
            end
          done;
          let k = ref 0 and rejected = ref false in
          while (not !rejected) && !k < !nfresh do
            incr checks;
            if Pk_order.insert pk ~c1:fresh.(2 * !k) ~c2:fresh.((2 * !k) + 1) then incr k
            else rejected := true
          done;
          if !rejected then begin
            for k = 0 to !nfresh - 1 do
              Pk_order.forget pk ~c1:fresh.(2 * k) ~c2:fresh.((2 * k) + 1)
            done;
            incr vl
          end
          else begin
            layer_of_path.(i) <- !vl;
            placed := true
          end
        end
      done
    end
  done;
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
  if max_layers < 1 then invalid_arg "Online.assign_store: max_layers < 1";
  Obs.Timer.time t_assign (fun () -> place store ~max_layers)
