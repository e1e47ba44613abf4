open Routing

(* ------------------------------------------------------------------ *)
(* SSSP                                                                 *)
(* ------------------------------------------------------------------ *)

let scan_bounds weights =
  let minw = ref max_int and maxw = ref 1 in
  Array.iter
    (fun w ->
      if w < !minw then minw := w;
      if w > !maxw then maxw := w)
    weights;
  (!minw, !maxw)

(* One destination: the kernel's tree toward [dst], its entries, then the
   tree's terminal flows accumulated far-to-near (the settle order walked
   backwards) straight into the live weights, keeping the running max up
   to date. *)
let sssp_destination ws g ~weights ~minw ~maxw ~flow ~ft ~dst =
  let { Spf.via; order; reached; _ } = Spf.compute ws g ~weights ~minw ~maxw:!maxw ~dst in
  let n = Graph.num_nodes g in
  if reached < n then Error (Printf.sprintf "sssp: node unreachable toward %d" dst)
  else begin
    Array.iteri (fun u c -> if u <> dst && c >= 0 then Ftable.set_next ft ~node:u ~dst ~channel:c) via;
    for v = 0 to n - 1 do
      flow.(v) <- (if Graph.is_terminal g v && v <> dst then 1 else 0)
    done;
    for i = n - 1 downto 0 do
      let u = order.(i) in
      if u <> dst && flow.(u) > 0 then begin
        let c = via.(u) in
        let w = weights.(c) + flow.(u) in
        weights.(c) <- w;
        if w > !maxw then maxw := w;
        let v = (Graph.channel g c).Channel.dst in
        flow.(v) <- flow.(v) + flow.(u)
      end
    done;
    Ok ()
  end

let sssp_destinations ?(kernel = Spf.Heap) g ~weights ~ft ~dsts =
  let n = Graph.num_nodes g in
  let ws = Spf.workspace ~kernel g in
  let flow = Array.make n 0 in
  let minw, maxw0 = scan_bounds weights in
  let maxw = ref maxw0 in
  let nt = Array.length dsts in
  let rec go i =
    if i >= nt then Ok ()
    else
      match sssp_destination ws g ~weights ~minw ~maxw ~flow ~ft ~dst:dsts.(i) with
      | Ok () -> go (i + 1)
      | Error _ as e -> e
  in
  go 0

let sssp_plane ?kernel g ~weights =
  let ft = Ftable.create g ~algorithm:"sssp" in
  match sssp_destinations ?kernel g ~weights ~ft ~dsts:(Graph.terminals g) with
  | Error _ as e -> e
  | Ok () -> Ok ft

(* ------------------------------------------------------------------ *)
(* MinHop                                                               *)
(* ------------------------------------------------------------------ *)

(* Each node picks the least-loaded min-hop channel over the live loads,
   then bumps it. *)
let minhop_destination g ws ~n ~load ~ft ~dst =
  let { Spf.dist; reached; _ } = Spf.compute_hops ws g ~dst in
  if reached < n then Error (Printf.sprintf "minhop: node unreachable toward %d" dst)
  else begin
    let error = ref None in
    let u = ref 0 in
    while !error = None && !u < n do
      let u0 = !u in
      if u0 <> dst then begin
        let best = ref (-1) in
        Array.iter
          (fun c ->
            let v = (Graph.channel g c).Channel.dst in
            if dist.(v) + 1 = dist.(u0) && (!best < 0 || load.(c) < load.(!best)) then best := c)
          (Graph.out_channels g u0);
        match !best with
        | -1 -> error := Some (Printf.sprintf "minhop: no min-hop channel at %d toward %d" u0 dst)
        | c ->
          Ftable.set_next ft ~node:u0 ~dst ~channel:c;
          load.(c) <- load.(c) + 1
      end;
      incr u
    done;
    match !error with
    | Some msg -> Error msg
    | None -> Ok ()
  end

let minhop g =
  let n = Graph.num_nodes g in
  let ft = Ftable.create g ~algorithm:"minhop" in
  let load = Array.make (Graph.num_channels g) 0 in
  let dsts = Graph.terminals g in
  let ws = Spf.workspace ~kernel:Spf.Heap g in
  let nt = Array.length dsts in
  let rec go i =
    if i >= nt then Ok ft
    else
      match minhop_destination g ws ~n ~load ~ft ~dst:dsts.(i) with
      | Ok () -> go (i + 1)
      | Error _ as e -> e
  in
  go 0

(* ------------------------------------------------------------------ *)
(* Up*/Down*                                                            *)
(* ------------------------------------------------------------------ *)

let pick_root g =
  let switches = Graph.switches g in
  if Array.length switches = 0 then Error "updown: no switches"
  else begin
    let best = ref (-1) and best_ecc = ref max_int in
    Array.iter
      (fun s ->
        let dist = Graph.bfs_dist g s in
        let ecc = Array.fold_left (fun acc d -> if d = max_int then max_int else max acc d) 0 dist in
        if ecc < !best_ecc then begin
          best_ecc := ecc;
          best := s
        end)
      switches;
    if !best_ecc = max_int then Error "updown: disconnected fabric" else Ok !best
  end

(* Steps 1-4 of the per-destination construction (all-down distances,
   up continuations with the load tie-break, down-closure, emission);
   every load read precedes the destination's own increments. *)
let updown_destination g ~up ~order ~load ~ft ~dst =
  let n = Graph.num_nodes g in
  let d_down = Array.make n max_int and down_via = Array.make n (-1) in
  let d_up = Array.make n max_int and up_via = Array.make n (-1) in
  let down_mode = Array.make n false in
  let queue = Queue.create () in
  d_down.(dst) <- 0;
  Queue.add dst queue;
  while not (Queue.is_empty queue) do
    let v = Queue.take queue in
    Array.iter
      (fun c ->
        let u = (Graph.channel g c).Channel.src in
        if (not up.(c)) && d_down.(u) = max_int then begin
          d_down.(u) <- d_down.(v) + 1;
          down_via.(u) <- c;
          Queue.add u queue
        end)
      (Graph.in_channels g v)
  done;
  Array.iter
    (fun u ->
      if u <> dst then
        Array.iter
          (fun c ->
            if up.(c) then begin
              let v = (Graph.channel g c).Channel.dst in
              let dv = min d_up.(v) d_down.(v) in
              if dv < max_int then begin
                let cand = dv + 1 in
                if
                  cand < d_up.(u) || (cand = d_up.(u) && up_via.(u) >= 0 && load.(c) < load.(up_via.(u)))
                then begin
                  d_up.(u) <- cand;
                  up_via.(u) <- c
                end
              end
            end)
          (Graph.out_channels g u))
    order;
  Array.iter (fun u -> if u <> dst then down_mode.(u) <- d_down.(u) <= d_up.(u)) order;
  let rec force u =
    if u <> dst && not down_mode.(u) then begin
      down_mode.(u) <- true;
      force (Graph.channel g down_via.(u)).Channel.dst
    end
  in
  Array.iter
    (fun u ->
      if u <> dst && down_mode.(u) && down_via.(u) >= 0 then
        force (Graph.channel g down_via.(u)).Channel.dst)
    order;
  let error = ref None in
  let i = ref 0 in
  let nn = Array.length order in
  while !error = None && !i < nn do
    let u = order.(!i) in
    if u <> dst then begin
      let c = if down_mode.(u) then down_via.(u) else up_via.(u) in
      if c < 0 then error := Some (Printf.sprintf "updown: node %d cannot reach %d" u dst)
      else begin
        Ftable.set_next ft ~node:u ~dst ~channel:c;
        load.(c) <- load.(c) + 1
      end
    end;
    incr i
  done;
  match !error with
  | Some msg -> Error msg
  | None -> Ok ()

let updown g =
  match pick_root g with
  | Error msg -> Error msg
  | Ok root ->
    let n = Graph.num_nodes g in
    let rank = Graph.bfs_dist g root in
    let key v = (rank.(v), v) in
    let up = Array.map (fun (c : Channel.t) -> key c.dst < key c.src) (Graph.channels g) in
    let ft = Ftable.create g ~algorithm:"updown" in
    let order = Array.init n (fun i -> i) in
    Array.sort (fun a b -> compare (key a) (key b)) order;
    let load = Array.make (Graph.num_channels g) 0 in
    let dsts = Graph.terminals g in
    let nt = Array.length dsts in
    let rec go i =
      if i >= nt then Ok ft
      else
        match updown_destination g ~up ~order ~load ~ft ~dst:dsts.(i) with
        | Ok () -> go (i + 1)
        | Error _ as e -> e
    in
    go 0
