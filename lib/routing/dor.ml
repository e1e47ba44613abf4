(* Forwarding is a pure function of (current switch coordinate, destination
   switch coordinate): find the lowest-index dimension where they differ
   and step toward the destination, wrapping when the torus direction is
   shorter (ties go the positive way). Because it is a pure function, the
   per-destination fills share no state at all and parallelize with no
   snapshot; tables are identical for any domain count. *)

let step dims wrap cur goal d =
  let size = dims.(d) in
  let fwd = (goal - cur + size) mod size in
  let back = (cur - goal + size) mod size in
  if wrap.(d) && size > 2 then if fwd <= back then (cur + 1) mod size else (cur + size - 1) mod size
  else if goal > cur then cur + 1
  else cur - 1

(* Find the channel from switch [u] to switch [v] (first cable). *)
let channel_between g u v =
  let found = ref (-1) in
  Array.iter
    (fun c -> if !found < 0 && (Graph.channel g c).Channel.dst = v then found := c)
    (Graph.out_channels g u);
  !found

let switch_of_terminal g t = (Graph.channel g (Graph.out_channels g t).(0)).Channel.dst

let route_destination g coords ~dims ~wrap ~ndims ~ft ~dst =
  let n = Graph.num_nodes g in
  let error = ref None in
  let fail fmt = Format.kasprintf (fun s -> if !error = None then error := Some s) fmt in
  let dst_sw = switch_of_terminal g dst in
  let goal = Coords.get coords dst_sw in
  let u = ref 0 in
  while !error = None && !u < n do
    let u0 = !u in
    if u0 <> dst then
      if Graph.is_terminal g u0 then
        Ftable.set_next ft ~node:u0 ~dst ~channel:(Graph.out_channels g u0).(0)
      else if u0 = dst_sw then begin
        (* Deliver to the attached terminal. *)
        let c = channel_between g u0 dst in
        if c < 0 then fail "dor: lost terminal channel at %d" u0
        else Ftable.set_next ft ~node:u0 ~dst ~channel:c
      end
      else begin
        let cur = Coords.get coords u0 in
        let rec first_diff d =
          if d >= ndims then -1 else if cur.(d) <> goal.(d) then d else first_diff (d + 1)
        in
        let d = first_diff 0 in
        if d < 0 then fail "dor: distinct switches share coordinate (%d, %d)" u0 dst_sw
        else begin
          let next_coord = Array.copy cur in
          next_coord.(d) <- step dims wrap cur.(d) goal.(d) d;
          match Coords.node_at coords next_coord with
          | exception Not_found -> fail "dor: no switch at neighbour coordinate from %d" u0
          | v ->
            let c = channel_between g u0 v in
            if c < 0 then fail "dor: missing grid channel %d -> %d" u0 v
            else Ftable.set_next ft ~node:u0 ~dst ~channel:c
        end
      end;
    incr u
  done;
  match !error with
  | Some msg -> Error msg
  | None -> Ok ()

let route ?(domains = 1) g coords =
  let ft = Ftable.create g ~algorithm:"dor" in
  let dims = Coords.dims coords and wrap = Coords.wrap coords in
  let ndims = Array.length dims in
  let missing = ref None in
  Array.iter
    (fun sw ->
      if !missing = None && not (Coords.mem coords sw) then
        missing := Some (Printf.sprintf "dor: switch %d has no coordinate" sw))
    (Graph.switches g);
  let result =
    match !missing with
    | Some msg -> Error msg
    | None ->
      let dsts = Graph.terminals g in
      Batched.with_pool ~domains
        (fun _slot -> ())
        (fun pool ->
          Batched.run ~cost:(Graph.num_channels g) ~pool ~batch:(Array.length dsts) ~state:[||] ~dsts
            (fun () _ dst -> route_destination g coords ~dims ~wrap ~ndims ~ft ~dst))
  in
  match result with
  | Error _ as e -> e
  | Ok () -> Ok ft
