type config = {
  buffer_slots : int;
  num_vls : int;
  max_cycles : int;
}

let default_config = { buffer_slots = 2; num_vls = 8; max_cycles = 1_000_000 }

type latency = {
  delivered : int;
  min_cycles : int;
  max_cycles : int;
  mean_cycles : float;
}

type outcome =
  | Delivered of { cycles : int; delivered : int; latency : latency }
  | Deadlocked of { cycles : int; delivered : int; in_flight : int }
  | Out_of_cycles of { delivered : int; in_flight : int }

type packet = {
  flow : int;
  injected_at : int;
  mutable hop : int; (* index into the flow's path of the occupied channel *)
  mutable moved_at : int; (* cycle of the last move, to cap at 1 hop/cycle *)
}

let run ?(config = default_config) ft ~flows =
  if config.buffer_slots < 1 then invalid_arg "Flitsim.run: buffer_slots < 1";
  if config.num_vls < 1 then invalid_arg "Flitsim.run: num_vls < 1";
  let g = Ftable.graph ft in
  let m = Netgraph.Graph.num_channels g in
  let nflows = Array.length flows in
  (* Per-flow arena slices (pair id = flow index); the cycle loop reads
     channels by flat index with zero per-hop allocation. *)
  let store = Deadlock.Route_store.create g ~capacity:nflows in
  Array.iteri
    (fun f (src, dst, packets) ->
      if src = dst then invalid_arg "Flitsim.run: flow with src = dst";
      if packets < 0 then invalid_arg "Flitsim.run: negative packet count";
      match Ftable.path ft ~src ~dst with
      | Some p -> Deadlock.Route_store.set_path store ~pair:f p
      | None -> failwith (Printf.sprintf "Flitsim.run: no route %d -> %d" src dst))
    flows;
  let poff = Array.init nflows (fun f -> Deadlock.Route_store.offset store ~pair:f) in
  (* fetched after the last write: arena growth replaces the buffer *)
  let pbuf = Deadlock.Route_store.buffer store in
  let channel_at f hop = pbuf.(poff.(f) + hop) in
  let vls =
    Array.map
      (fun (src, dst, _) ->
        let vl = Ftable.layer ft ~src ~dst in
        if vl >= config.num_vls then
          invalid_arg (Printf.sprintf "Flitsim.run: flow uses layer %d >= num_vls %d" vl config.num_vls);
        vl)
      flows
  in
  let remaining = Array.map (fun (_, _, packets) -> packets) flows in
  let total = Array.fold_left ( + ) 0 remaining in
  let buffers = Array.init m (fun _ -> Array.init config.num_vls (fun _ -> Queue.create ())) in
  let snapshot = Array.make_matrix m config.num_vls 0 in
  let accepted = Array.make_matrix m config.num_vls 0 in
  let channel_granted = Array.make m false in
  let delivered = ref 0 in
  let lat_min = ref max_int and lat_max = ref 0 and lat_total = ref 0 in
  let in_flight = ref 0 in
  let waiting = ref total in
  let cycle = ref 0 in
  let result = ref None in
  let is_sink c = Netgraph.Graph.is_terminal g (Netgraph.Graph.channel g c).Netgraph.Channel.dst in
  while !result = None do
    if !in_flight = 0 && !waiting = 0 then begin
      let latency =
        {
          delivered = !delivered;
          min_cycles = (if !delivered = 0 then 0 else !lat_min);
          max_cycles = !lat_max;
          mean_cycles =
            (if !delivered = 0 then 0.0 else float_of_int !lat_total /. float_of_int !delivered);
        }
      in
      result := Some (Delivered { cycles = !cycle; delivered = !delivered; latency })
    end
    else if !cycle >= config.max_cycles then
      result := Some (Out_of_cycles { delivered = !delivered; in_flight = !in_flight })
    else begin
      let progress = ref false in
      (* Start-of-cycle snapshot of buffer occupancy. *)
      for c = 0 to m - 1 do
        channel_granted.(c) <- false;
        for vl = 0 to config.num_vls - 1 do
          snapshot.(c).(vl) <- Queue.length buffers.(c).(vl);
          accepted.(c).(vl) <- 0
        done
      done;
      (* Movement, rotating the arbitration start point each cycle. A hop
         onto a terminal-bound channel consumes the packet immediately
         (the HCA sinks at wire speed; the ejection channel still forwards
         at most one packet per cycle). *)
      let try_move c vl =
        let q = buffers.(c).(vl) in
        if not (Queue.is_empty q) then begin
          let p = Queue.peek q in
          if p.moved_at < !cycle then begin
            let next_c = channel_at p.flow (p.hop + 1) in
            if is_sink next_c then begin
              if not channel_granted.(next_c) then begin
                let p = Queue.pop q in
                channel_granted.(next_c) <- true;
                let lat = !cycle - p.injected_at + 1 in
                if lat < !lat_min then lat_min := lat;
                if lat > !lat_max then lat_max := lat;
                lat_total := !lat_total + lat;
                incr delivered;
                decr in_flight;
                progress := true
              end
            end
            else if
              (not channel_granted.(next_c))
              && snapshot.(next_c).(vl) + accepted.(next_c).(vl) < config.buffer_slots
            then begin
              let p = Queue.pop q in
              p.hop <- p.hop + 1;
              p.moved_at <- !cycle;
              Queue.push p buffers.(next_c).(vl);
              accepted.(next_c).(vl) <- accepted.(next_c).(vl) + 1;
              channel_granted.(next_c) <- true;
              progress := true
            end
          end
        end
      in
      for i = 0 to m - 1 do
        let c = (i + !cycle) mod m in
        if not (is_sink c) then
          for j = 0 to config.num_vls - 1 do
            let vl = (j + !cycle) mod config.num_vls in
            try_move c vl
          done
      done;
      (* Injection, also rotating over flows. *)
      for i = 0 to nflows - 1 do
        let f = (i + !cycle) mod nflows in
        if remaining.(f) > 0 then begin
          let first = channel_at f 0 in
          let vl = vls.(f) in
          if
            (not channel_granted.(first))
            && snapshot.(first).(vl) + accepted.(first).(vl) < config.buffer_slots
          then begin
            Queue.push { flow = f; injected_at = !cycle; hop = 0; moved_at = !cycle } buffers.(first).(vl);
            accepted.(first).(vl) <- accepted.(first).(vl) + 1;
            channel_granted.(first) <- true;
            remaining.(f) <- remaining.(f) - 1;
            decr waiting;
            incr in_flight;
            progress := true
          end
        end
      done;
      incr cycle;
      if (not !progress) && !in_flight > 0 then
        result := Some (Deadlocked { cycles = !cycle; delivered = !delivered; in_flight = !in_flight })
      else if (not !progress) && !in_flight = 0 && !waiting > 0 then
        (* Unreachable: empty buffers always accept; defensive stop. *)
        result := Some (Out_of_cycles { delivered = !delivered; in_flight = 0 })
    end
  done;
  Option.get !result

let pp_outcome ppf = function
  | Delivered { cycles; delivered; latency } ->
    Format.fprintf ppf "delivered %d packets in %d cycles (latency min/mean/max %d/%.1f/%d)" delivered
      cycles latency.min_cycles latency.mean_cycles latency.max_cycles
  | Deadlocked { cycles; delivered; in_flight } ->
    Format.fprintf ppf "DEADLOCK after %d cycles (%d delivered, %d wedged)" cycles delivered in_flight
  | Out_of_cycles { delivered; in_flight } ->
    Format.fprintf ppf "out of cycles (%d delivered, %d in flight)" delivered in_flight
