type config = {
  bandwidth : float;
  latency : float;
  mtu : int;
  credits : int;
  num_vls : int;
  max_events : int;
}

let default_config =
  { bandwidth = 1e9; latency = 1e-6; mtu = 4096; credits = 4; num_vls = 8; max_events = 50_000_000 }

let packet_config = { default_config with bandwidth = 1.0; latency = 0.0; mtu = 1; credits = 2 }

type flow_stat = {
  src : int;
  dst : int;
  bytes : int;
  start : float;
  finish : float;
}

let bandwidth_of s = if s.finish > s.start then float_of_int s.bytes /. (s.finish -. s.start) else 0.0

type outcome =
  | Completed of {
      makespan : float;
      flows : flow_stat array;
      packets : int;
      mean_packet_latency : float;
    }
  | Deadlocked of {
      time : float;
      delivered : int;
      stuck : int;
    }
  | Out_of_events of { delivered : int }

type packet = {
  flow : int;
  size : int;
  mutable hop : int; (* index into the flow's path of the requested channel *)
  mutable born : float; (* first transmission start; -1 until then *)
}

type event =
  | Wire_free of int
  | Arrived of packet
  | Credit of int * int (* channel, vl *)

let run ?(config = default_config) ft ~flows =
  if config.bandwidth <= 0.0 || config.latency < 0.0 then invalid_arg "Netsim.run: bad link parameters";
  if config.mtu < 1 then invalid_arg "Netsim.run: mtu < 1";
  if config.credits < 1 then invalid_arg "Netsim.run: credits < 1";
  if config.num_vls < 1 then invalid_arg "Netsim.run: num_vls < 1";
  let g = Ftable.graph ft in
  let m = Netgraph.Graph.num_channels g in
  let nflows = Array.length flows in
  (* One arena slice per flow (pair id = flow index): the hot loop below
     indexes channels straight out of the flat buffer, never materialising
     a per-packet path. *)
  let store = Deadlock.Route_store.create g ~capacity:nflows in
  Array.iteri
    (fun f (src, dst, bytes) ->
      if src = dst then invalid_arg "Netsim.run: flow with src = dst";
      if bytes < 0 then invalid_arg "Netsim.run: negative flow size";
      match Ftable.path ft ~src ~dst with
      | Some p -> Deadlock.Route_store.set_path store ~pair:f p
      | None -> failwith (Printf.sprintf "Netsim.run: no route %d -> %d" src dst))
    flows;
  let counts =
    Array.map (fun (_, _, bytes) -> (bytes / config.mtu) + if bytes mod config.mtu > 0 then 1 else 0) flows
  in
  (* Every delivered packet costs at least one event: refuse a workload
     that could never complete before queuing any of it. The sum stops at
     the limit, so it cannot overflow. *)
  let total_packets =
    Array.fold_left
      (fun sum count ->
        if count > config.max_events - sum then
          invalid_arg
            (Printf.sprintf "Netsim.run: %d or more packets exceed max_events %d"
               (if count > max_int - sum then count else sum + count)
               config.max_events);
        sum + count)
      0 counts
  in
  let poff = Array.init nflows (fun f -> Deadlock.Route_store.offset store ~pair:f) in
  let plen = Array.init nflows (fun f -> Deadlock.Route_store.length store ~pair:f) in
  (* fetched after the last write: arena growth replaces the buffer *)
  let pbuf = Deadlock.Route_store.buffer store in
  let channel_at f hop = pbuf.(poff.(f) + hop) in
  let vls =
    Array.map
      (fun (src, dst, _) ->
        let vl = Ftable.layer ft ~src ~dst in
        if vl >= config.num_vls then
          invalid_arg (Printf.sprintf "Netsim.run: flow uses lane %d >= num_vls %d" vl config.num_vls);
        vl)
      flows
  in
  (* channel state *)
  let wire_busy = Array.make m false in
  let rr = Array.make m 0 in
  let waiting = Array.init m (fun _ -> Array.init config.num_vls (fun _ -> Queue.create ())) in
  let credits = Array.make_matrix m config.num_vls config.credits in
  (* flow state *)
  let first_start = Array.make nflows infinity in
  let last_finish = Array.make nflows 0.0 in
  let events = Eventq.create () in
  let delivered = ref 0 in
  let latency_total = ref 0.0 in
  let makespan = ref 0.0 in
  let clock = ref 0.0 in
  let processed = ref 0 in
  (* Inject: segment each flow into MTU packets, queued at its first
     channel (the source HCA's injection wire serializes them). *)
  Array.iteri
    (fun f (_, _, bytes) ->
      let full = bytes / config.mtu in
      for i = 0 to counts.(f) - 1 do
        let size = if i < full then config.mtu else bytes mod config.mtu in
        Queue.push { flow = f; size; hop = 0; born = -1.0 } waiting.(channel_at f 0).(vls.(f))
      done)
    flows;
  let is_last p = p.hop = plen.(p.flow) - 1 in
  (* Attempt to start a transmission on channel [c] at time [now]. *)
  let try_start now c =
    if not wire_busy.(c) then begin
      (* round-robin over lanes; a head packet needs a downstream credit *)
      let chosen = ref (-1) in
      let probe = ref 0 in
      while !chosen < 0 && !probe < config.num_vls do
        let vl = (rr.(c) + !probe) mod config.num_vls in
        if (not (Queue.is_empty waiting.(c).(vl))) && credits.(c).(vl) > 0 then chosen := vl
        else incr probe
      done;
      if !chosen >= 0 then begin
        let vl = !chosen in
        rr.(c) <- (vl + 1) mod config.num_vls;
        let p = Queue.pop waiting.(c).(vl) in
        credits.(c).(vl) <- credits.(c).(vl) - 1;
        wire_busy.(c) <- true;
        if p.born < 0.0 then begin
          p.born <- now;
          if now < first_start.(p.flow) then first_start.(p.flow) <- now
        end;
        (* leaving the upstream buffer returns its credit *)
        if p.hop > 0 then begin
          let prev = channel_at p.flow (p.hop - 1) in
          Eventq.schedule events ~at:(now +. config.latency) (Credit (prev, vl))
        end;
        let tx = float_of_int (max p.size 1) /. config.bandwidth in
        Eventq.schedule events ~at:(now +. tx) (Wire_free c);
        Eventq.schedule events ~at:(now +. tx +. config.latency) (Arrived p)
      end
    end
  in
  let handle now = function
    | Wire_free c ->
      wire_busy.(c) <- false;
      try_start now c
    | Credit (c, vl) ->
      credits.(c).(vl) <- credits.(c).(vl) + 1;
      try_start now c
    | Arrived p ->
      let c = channel_at p.flow p.hop in
      let vl = vls.(p.flow) in
      if is_last p then begin
        (* delivered: the HCA consumes instantly, buffer slot frees *)
        Eventq.schedule events ~at:(now +. config.latency) (Credit (c, vl));
        incr delivered;
        latency_total := !latency_total +. (now -. p.born);
        if now > !makespan then makespan := now;
        if now > last_finish.(p.flow) then last_finish.(p.flow) <- now
      end
      else begin
        p.hop <- p.hop + 1;
        let nc = channel_at p.flow p.hop in
        Queue.push p waiting.(nc).(vl);
        try_start now nc
      end
  in
  (* prime every injection wire *)
  for c = 0 to m - 1 do
    try_start 0.0 c
  done;
  let result = ref None in
  while !result = None do
    if !processed >= config.max_events then result := Some (Out_of_events { delivered = !delivered })
    else
      match Eventq.next events with
      | Some (now, ev) ->
        incr processed;
        clock := now;
        handle now ev
      | None ->
        if !delivered = total_packets then begin
          let stats =
            Array.init nflows (fun f ->
                let src, dst, bytes = flows.(f) in
                {
                  src;
                  dst;
                  bytes;
                  start = (if first_start.(f) = infinity then 0.0 else first_start.(f));
                  finish = last_finish.(f);
                })
          in
          result :=
            Some
              (Completed
                 {
                   makespan = !makespan;
                   flows = stats;
                   packets = total_packets;
                   mean_packet_latency =
                     (if !delivered = 0 then 0.0 else !latency_total /. float_of_int !delivered);
                 })
        end
        else
          result :=
            Some (Deadlocked { time = !clock; delivered = !delivered; stuck = total_packets - !delivered })
  done;
  Option.get !result

let pp_outcome ppf = function
  | Completed { makespan; packets; mean_packet_latency; _ } ->
    Format.fprintf ppf "completed %d packets in %.6fs (mean packet latency %.2fus)" packets makespan
      (1e6 *. mean_packet_latency)
  | Deadlocked { time; delivered; stuck } ->
    Format.fprintf ppf "DEADLOCK at %.6fs (%d delivered, %d stuck)" time delivered stuck
  | Out_of_events { delivered } -> Format.fprintf ppf "out of events (%d delivered)" delivered
