(* Channel (u -> v) is "up" iff (rank v, v) < (rank u, u) lexicographically,
   where rank is the BFS depth from the chosen root. The strict total order
   makes the up-relation acyclic.

   Forwarding tables must stay legal end-to-end: if a node's entry takes a
   down channel, the next node's entry must also take a down channel.
   Construction per destination (DESIGN.md):
   1. d_down: BFS from dst over reversed down channels (all-down routes).
   2. d_up(u) = min over up channels (u -> v) of 1 + min(d_up v, d_down v),
      computed in increasing (rank, id) order (up strictly decreases it).
   3. Nodes preferring down are closed transitively along their down
      parents (forcing keeps legality; only lengths can grow).

   All load reads (the step-2 tie-break) happen before any of the same
   destination's load increments (step 4), so every batch mode of the
   driver reads the same loads — no per-destination overlay. *)

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

let rank_and_orientation g root =
  let rank = Graph.bfs_dist g root in
  let key v = (rank.(v), v) in
  let up = Array.map (fun (c : Channel.t) -> key c.dst < key c.src) (Graph.channels g) in
  (rank, up)

type scratch = {
  d_down : int array;
  down_via : int array;
  d_up : int array;
  up_via : int array;
  down_mode : bool array;
  queue : int Queue.t;
}

let fresh_scratch n _slot =
  {
    d_down = Array.make n max_int;
    down_via = Array.make n (-1);
    d_up = Array.make n max_int;
    up_via = Array.make n (-1);
    down_mode = Array.make n false;
    queue = Queue.create ();
  }

let route_destination g ~up ~order (view : Batched.view) sc ~ft ~dst =
  let n = Graph.num_nodes g in
  Array.fill sc.d_down 0 n max_int;
  Array.fill sc.down_via 0 n (-1);
  Array.fill sc.d_up 0 n max_int;
  Array.fill sc.up_via 0 n (-1);
  Array.fill sc.down_mode 0 n false;
  (* 1. All-down distances: BFS from dst across reversed down channels. *)
  sc.d_down.(dst) <- 0;
  Queue.clear sc.queue;
  Queue.add dst sc.queue;
  while not (Queue.is_empty sc.queue) do
    let v = Queue.take sc.queue in
    Array.iter
      (fun c ->
        let u = (Graph.channel g c).Channel.src in
        if (not up.(c)) && sc.d_down.(u) = max_int then begin
          sc.d_down.(u) <- sc.d_down.(v) + 1;
          sc.down_via.(u) <- c;
          Queue.add u sc.queue
        end)
      (Graph.in_channels g v)
  done;
  (* 2. Up continuations, bottom-up in the (rank, id) order. *)
  Array.iter
    (fun u ->
      if u <> dst then
        Array.iter
          (fun c ->
            if up.(c) then begin
              let v = (Graph.channel g c).Channel.dst in
              let dv = min sc.d_up.(v) sc.d_down.(v) in
              if dv < max_int then begin
                let cand = dv + 1 in
                if
                  cand < sc.d_up.(u)
                  || (cand = sc.d_up.(u) && sc.up_via.(u) >= 0 && view.reads.(c) < view.reads.(sc.up_via.(u)))
                then begin
                  sc.d_up.(u) <- cand;
                  sc.up_via.(u) <- c
                end
              end
            end)
          (Graph.out_channels g u))
    order;
  (* 3. Mode selection with transitive down-closure. *)
  Array.iter (fun u -> if u <> dst then sc.down_mode.(u) <- sc.d_down.(u) <= sc.d_up.(u)) order;
  (* Force every node on a down-mode node's parent chain into down mode as
     well; chains of already-forced nodes are walked by their own outer
     iteration. *)
  let rec force u =
    if u <> dst && not sc.down_mode.(u) then begin
      sc.down_mode.(u) <- true;
      force (Graph.channel g sc.down_via.(u)).Channel.dst
    end
  in
  Array.iter
    (fun u ->
      if u <> dst && sc.down_mode.(u) && sc.down_via.(u) >= 0 then
        force (Graph.channel g sc.down_via.(u)).Channel.dst)
    order;
  (* 4. Emit entries. *)
  let error = ref None in
  let i = ref 0 in
  let nn = Array.length order in
  while !error = None && !i < nn do
    let u = order.(!i) in
    if u <> dst then begin
      let c = if sc.down_mode.(u) then sc.down_via.(u) else sc.up_via.(u) in
      if c < 0 then error := Some (Printf.sprintf "updown: node %d cannot reach %d" u dst)
      else begin
        Ftable.set_next ft ~node:u ~dst ~channel:c;
        view.add c 1
      end
    end;
    incr i
  done;
  match !error with
  | Some msg -> Error msg
  | None -> Ok ()

let route ?(batch = 1) ?(domains = 1) g =
  match pick_root g with
  | Error msg -> Error msg
  | Ok root ->
    let n = Graph.num_nodes g in
    let m = Graph.num_channels g in
    let rank, up = rank_and_orientation g root in
    let ft = Ftable.create g ~algorithm:"updown" in
    (* Nodes in increasing (rank, id): up channels point strictly earlier. *)
    let order = Array.init n (fun i -> i) in
    Array.sort (fun a b -> compare (rank.(a), a) (rank.(b), b)) order;
    let result =
      Batched.with_pool ~domains (fresh_scratch n) (fun pool ->
          Batched.run ~cost:m ~pool ~batch ~state:(Array.make m 0) ~dsts:(Graph.terminals g)
            (fun sc view dst -> route_destination g ~up ~order view sc ~ft ~dst))
    in
    (match result with
    | Error _ as e -> e
    | Ok () -> Ok ft)
