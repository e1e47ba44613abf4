let levels g =
  let n = Graph.num_nodes g in
  let level = Array.make n max_int in
  let queue = Queue.create () in
  Array.iter
    (fun t ->
      let sw = (Graph.channel g (Graph.out_channels g t).(0)).Channel.dst in
      if level.(sw) = max_int then begin
        level.(sw) <- 0;
        Queue.add sw queue
      end)
    (Graph.terminals g);
  if Queue.is_empty queue then Error "ftree: no terminals"
  else begin
    while not (Queue.is_empty queue) do
      let u = Queue.take queue in
      Array.iter
        (fun c ->
          let v = (Graph.channel g c).Channel.dst in
          if Graph.is_switch g v && level.(v) = max_int then begin
            level.(v) <- level.(u) + 1;
            Queue.add v queue
          end)
        (Graph.out_channels g u)
    done;
    Ok level
  end

(* One destination is a pure function of (level map, destination): mark
   ancestors level by level, then emit entries — no balancing state is
   shared between destinations, so destinations parallelize with no
   snapshot at all and the tables are identical for any domain count. *)
let route_destination g ~level ~up_channels ~order_by_level ~anc_channel ~ft ~dst =
  let n = Graph.num_nodes g in
  let error = ref None in
  let fail fmt = Format.kasprintf (fun s -> if !error = None then error := Some s) fmt in
  let dst_injection = (Graph.out_channels g dst).(0) in
  let dst_sw = (Graph.channel g dst_injection).Channel.dst in
  Array.fill anc_channel 0 n (-1);
  (* Ancestor marking, level by level upward: u is an ancestor iff a down
     channel leads to an ancestor (or to dst's leaf switch); parallel
     candidate cables are spread over destinations (d-mod-k on the way
     down too). *)
  let dst_index = Ftable.dst_index ft dst in
  Array.iter
    (fun u ->
      if Graph.is_switch g u && level.(u) < max_int && u <> dst_sw && anc_channel.(u) < 0 then begin
        let candidates = ref [] in
        Array.iter
          (fun c ->
            let v = (Graph.channel g c).Channel.dst in
            if Graph.is_switch g v && level.(v) = level.(u) - 1 && (v = dst_sw || anc_channel.(v) >= 0)
            then candidates := c :: !candidates)
          (Graph.out_channels g u);
        match List.rev !candidates with
        | [] -> ()
        | l ->
          let arr = Array.of_list l in
          anc_channel.(u) <- arr.(dst_index mod Array.length arr)
      end)
    order_by_level;
  let u = ref 0 in
  while !error = None && !u < n do
    let u0 = !u in
    if u0 <> dst then
      if Graph.is_terminal g u0 then
        Ftable.set_next ft ~node:u0 ~dst ~channel:(Graph.out_channels g u0).(0)
      else if u0 = dst_sw then begin
        (* Deliver to the terminal itself. *)
        match Graph.reverse_channel g dst_injection with
        | Some c -> Ftable.set_next ft ~node:u0 ~dst ~channel:c
        | None -> fail "ftree: terminal %d has a one-way cable" dst
      end
      else if anc_channel.(u0) >= 0 then Ftable.set_next ft ~node:u0 ~dst ~channel:anc_channel.(u0)
      else begin
        let ups = up_channels.(u0) in
        if Array.length ups = 0 then
          fail "ftree: not a fat tree (switch %d cannot reach destination %d)" u0 dst
        else Ftable.set_next ft ~node:u0 ~dst ~channel:ups.(dst_index mod Array.length ups)
      end;
    incr u
  done;
  match !error with
  | Some msg -> Error msg
  | None -> Ok ()

let route ?(domains = 1) g =
  match levels g with
  | Error msg -> Error msg
  | Ok level ->
    let n = Graph.num_nodes g in
    let result = ref (Ok ()) in
    let fail fmt = Format.kasprintf (fun s -> if !result = Ok () then result := Error s) fmt in
    (* Tree check: switch-switch cables span exactly one level. *)
    Array.iter
      (fun (c : Channel.t) ->
        if Graph.is_switch g c.src && Graph.is_switch g c.dst then begin
          if level.(c.src) = max_int || level.(c.dst) = max_int then
            fail "ftree: switch without level (disconnected switch layer)"
          else if abs (level.(c.src) - level.(c.dst)) <> 1 then
            fail "ftree: not a fat tree (cable %d spans levels %d and %d)" c.id level.(c.src) level.(c.dst)
        end)
      (Graph.channels g);
    (match !result with
    | Error msg -> Error msg
    | Ok () ->
      let ft = Ftable.create g ~algorithm:"ftree" in
      let up_channels =
        (* up = toward higher level *)
        Array.map
          (fun u ->
            if Graph.is_switch g u then
              Array.of_list
                (List.filter
                   (fun c ->
                     let v = (Graph.channel g c).Channel.dst in
                     Graph.is_switch g v && level.(v) = level.(u) + 1)
                   (Array.to_list (Graph.out_channels g u)))
            else [||])
          (Array.init n (fun i -> i))
      in
      let order_by_level = Array.init n (fun i -> i) in
      Array.sort
        (fun a b -> compare (if level.(a) = max_int then -1 else level.(a)) (if level.(b) = max_int then -1 else level.(b)))
        order_by_level;
      let dsts = Graph.terminals g in
      let routed =
        Batched.with_pool ~domains
          (fun _slot -> Array.make n (-1))
          (fun pool ->
            Batched.run ~cost:(Graph.num_channels g) ~pool ~batch:(Array.length dsts) ~state:[||] ~dsts
              (fun anc_channel _ dst ->
                route_destination g ~level ~up_channels ~order_by_level ~anc_channel ~ft ~dst))
      in
      (match routed with
      | Error msg -> Error msg
      | Ok () -> Ok ft))
