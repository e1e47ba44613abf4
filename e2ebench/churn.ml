(* serve-churn: a separate [fabric_tool serve] daemon with default flags,
   driven open loop by two generator threads on two connections. One
   sends link down/up events at [event_rate], the other route queries at
   [query_rate]; each request is timed from its due time to its reply,
   so a stall counts against everything it delays. Replies are only
   timestamped while the clock runs; all checking happens afterwards. *)

open Kit

let fabric = "jellyfish:32,10,6:3"
let event_rate = 4.0
let query_rate = 1000.0

(* A phase whose generator sent later than this at p99 measured its own
   lateness, not the daemon's, and is repeated. *)
let late_limit_ms = 25.0

(* How long replies may trail the last due time before they count as lost. *)
let grace_s = 15.0

(* Daemon spawns per run for the set-up median. *)
let spawn_reps = 9

(* In-process bring-ups of the served fabric, for build_ms. *)
let build_seconds = 6.0

(* ------------------------------------------------------------------ *)
(* Daemon lifecycle                                                    *)
(* ------------------------------------------------------------------ *)

(* A process this run started: a daemon with its socket path, or the
   host-speed probe (no socket). *)
type child = {
  pid : int;
  sock : string;
  mutable alive : bool;
}

let live : child list ref = ref []
let spawned = ref 0

(* Wait up to [timeout] for the daemon to exit, then kill it; always
   unlink its socket. [true] iff it exited by itself. *)
let reap d ~timeout =
  let t_end = now () +. timeout in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ when now () < t_end ->
      Unix.sleepf 0.01;
      wait ()
    | 0, _ ->
      (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
      (try ignore (Unix.waitpid [] d.pid) with Unix.Unix_error _ -> ());
      false
    | _ -> true
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
    | exception Unix.Unix_error _ -> true
  in
  let clean = if d.alive then wait () else true in
  d.alive <- false;
  if d.sock <> "" then (try Unix.unlink d.sock with Unix.Unix_error _ -> ());
  clean

(* Every exit path ends here: kill whatever is still running. *)
let kill_all () =
  List.iter
    (fun d ->
      if d.alive then (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (reap d ~timeout:5.0))
    !live;
  live := []

let addr d = Service.Proto.Unix_path d.sock

(* Spawn a daemon on a fresh socket path in the working directory and
   wait for its first successful ping; [Ok seconds] from spawn to ping. *)
let spawn ~daemon =
  incr spawned;
  let sock = Printf.sprintf ".e2ebench-%d-%d.sock" (Unix.getpid ()) !spawned in
  (try Unix.unlink sock with Unix.Unix_error _ -> ());
  let t0 = now () in
  let pid =
    Unix.create_process daemon [| daemon; "serve"; fabric; "--socket"; sock |] Unix.stdin
      Unix.stderr Unix.stderr
  in
  let d = { pid; sock; alive = true } in
  live := d :: !live;
  let rec wait () =
    if now () -. t0 > 60.0 then Error "daemon did not answer a ping within 60 s"
    else
      match Unix.waitpid [ Unix.WNOHANG ] pid with
      | p, _ when p <> 0 ->
        d.alive <- false;
        Error "daemon exited during start-up"
      | _ -> (
        match
          if Sys.file_exists sock then Service.Client.with_connect (addr d) Service.Client.ping
          else Error "not bound yet"
        with
        | Ok _ -> Ok (now () -. t0)
        | Error _ ->
          Unix.sleepf 0.002;
          wait ())
  in
  (d, wait ())

let stop d =
  ignore (Service.Client.with_connect (addr d) Service.Client.shutdown);
  reap d ~timeout:10.0

(* Host speed during the daemon phase, from a separate process (see
   Kit.Host): it samples the reference kernel every [probe_period_s] for
   [seconds] and prints the samples, one per line. *)
let probe_period_s = 0.25

let probe_main seconds =
  let t_end = now () +. seconds in
  let samples = ref [] in
  while now () < t_end do
    samples := Host.sample () :: !samples;
    Unix.sleepf probe_period_s
  done;
  List.iter (fun ms -> Printf.printf "%.6f\n" ms) !samples;
  0

let start_probe ~self ~seconds =
  let r, w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process self [| self; "--host-probe"; string_of_float seconds |] Unix.stdin w
      Unix.stderr
  in
  Unix.close w;
  let c = { pid; sock = ""; alive = true } in
  live := c :: !live;
  (c, r)

let finish_probe (c, r) =
  let text = In_channel.input_all (Unix.in_channel_of_descr r) in
  Unix.close r;
  ignore (reap c ~timeout:10.0);
  String.split_on_char '\n' text |> List.filter_map float_of_string_opt |> Array.of_list

(* ------------------------------------------------------------------ *)
(* Open-loop generator lanes                                           *)
(* ------------------------------------------------------------------ *)

type lane = {
  due : float array;
  frames : Bytes.t array; (* length-prefixed request frames *)
  sent : float array;
  replied : float array;
  replies : string array;
  mutable received : int;
  mutable error : string option;
}

let lane ~due payloads =
  let n = Array.length due in
  let frame p =
    let b = Bytes.create (4 + String.length p) in
    Bytes.set_int32_be b 0 (Int32.of_int (String.length p));
    Bytes.blit_string p 0 b 4 (String.length p);
    b
  in
  {
    due;
    frames = Array.map frame payloads;
    sent = Array.make n nan;
    replied = Array.make n nan;
    replies = Array.make n "";
    received = 0;
    error = None;
  }

let request_with_id req id =
  match Service.Proto.request_to_json req with
  | Obs.Json.Obj fields ->
    Obs.Json.to_string (Obs.Json.Obj (fields @ [ ("id", Obs.Json.Num (float_of_int id)) ]))
  | j -> Obs.Json.to_string j

let rec write_all fd b off len =
  if len > 0 then begin
    let k = Unix.write fd b off len in
    write_all fd b (off + k) (len - k)
  end

(* Send each request at its due time without waiting for replies, and
   timestamp replies as they arrive (the daemon answers each connection
   in order; ids are checked afterwards). *)
let drive l fd ~deadline =
  let n = Array.length l.due in
  let next = ref 0 in
  let buf = ref (Bytes.create 65536) and len = ref 0 in
  let chunk = Bytes.create 65536 in
  let take_frames t =
    let pos = ref 0 and more = ref true in
    while !more && !len - !pos >= 4 do
      let flen = Int32.to_int (Bytes.get_int32_be !buf !pos) in
      if !len - !pos >= 4 + flen then begin
        if l.received < n then begin
          l.replied.(l.received) <- t;
          l.replies.(l.received) <- Bytes.sub_string !buf (!pos + 4) flen
        end;
        l.received <- l.received + 1;
        pos := !pos + 4 + flen
      end
      else more := false
    done;
    Bytes.blit !buf !pos !buf 0 (!len - !pos);
    len := !len - !pos
  in
  let running = ref true in
  while !running && l.received < n && now () < deadline do
    let t = now () in
    if !next < n && t >= l.due.(!next) then begin
      l.sent.(!next) <- t;
      let f = l.frames.(!next) in
      write_all fd f 0 (Bytes.length f);
      incr next
    end
    else begin
      let wait = if !next < n then l.due.(!next) -. t else deadline -. t in
      match Unix.select [ fd ] [] [] (Float.max 0.0 wait) with
      | [], _, _ -> ()
      | _ -> (
        match Unix.read fd chunk 0 (Bytes.length chunk) with
        | 0 ->
          l.error <- Some "daemon closed the connection";
          running := false
        | k ->
          let t = now () in
          if !len + k > Bytes.length !buf then begin
            let nb = Bytes.create (2 * (!len + k)) in
            Bytes.blit !buf 0 nb 0 !len;
            buf := nb
          end;
          Bytes.blit chunk 0 !buf !len k;
          len := !len + k;
          take_frames t)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    end
  done

let run_lane l d ~deadline =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      try
        Unix.connect fd (Unix.ADDR_UNIX d.sock);
        drive l fd ~deadline
      with e -> l.error <- Some (Printexc.to_string e))

(* ------------------------------------------------------------------ *)
(* Reply checks (after the clock stops)                                *)
(* ------------------------------------------------------------------ *)

let member path j =
  List.fold_left (fun acc k -> Option.bind acc (Obs.Json.member k)) (Some j) path

let num path j = Option.value ~default:0.0 (Option.bind (member path j) Obs.Json.to_float)

let str path j = Option.bind (member path j) Obs.Json.to_str

let check_reply ops l i ~what ~ok =
  attempt ops;
  if i >= l.received || Float.is_nan l.replied.(i) then fail ops (what ^ ": no reply")
  else
    match Obs.Json.of_string l.replies.(i) with
    | Error e -> fail ops (what ^ ": unparsable reply: " ^ e)
    | Ok j ->
      if num [ "id" ] j <> float_of_int i then fail ops (what ^ ": reply id mismatch")
      else if str [ "status" ] j <> Some "ok" then
        fail ops (Printf.sprintf "%s: %s" what l.replies.(i))
      else if not (ok j) then fail ops (Printf.sprintf "%s: bad reply %s" what l.replies.(i))

let route_ok g ~src ~dst j =
  let layer = num [ "layer" ] j and layers = num [ "layers" ] j in
  match Option.bind (member [ "path" ] j) Obs.Json.to_list with
  | None -> false
  | Some xs ->
    let path = Array.of_list (List.map (fun x -> Option.value ~default:(-1) (Obs.Json.to_int x)) xs) in
    layer >= 0.0 && layer < layers && Bringup.walk_ok g ~src ~dst path

(* ------------------------------------------------------------------ *)
(* In-process replay of the same schedule                              *)
(* ------------------------------------------------------------------ *)

type replay = {
  final_epoch : int;
  final_layers : int;
  incremental_ms : float array;
  full_ms : float array;
  repair_ms : float array;
  proof_ms : float array;
  snapshot_ms : float array;
}

(* Same Manager config as the daemon, with Obs enabled and a span ring
   of the daemon's default capacity as the sink. *)
let replay g schedule =
  let cap = Service.Server.default_config.Service.Server.trace_capacity in
  let ring = Array.make cap None and next = ref 0 in
  let sink =
    {
      Obs.Trace.emit =
        (fun s ->
          ring.(!next mod cap) <- Some s;
          incr next);
      flush = ignore;
    }
  in
  let prev = Obs.Control.enabled () in
  Obs.Control.set_enabled true;
  Obs.Trace.set_sink (Some sink);
  Fun.protect
    ~finally:(fun () ->
      Obs.Trace.set_sink None;
      Obs.Control.set_enabled prev)
    (fun () ->
      match Fabric.Manager.create ~config:Bringup.config g with
      | Error msg -> Error msg
      | Ok m ->
        let inc = Samples.create () and full = Samples.create () and snaps = Samples.create () in
        List.iter
          (fun ev ->
            let o, ms = timed (fun () -> Fabric.Manager.apply m ev) in
            (match o.Fabric.Manager.action with
            | Fabric.Manager.Incremental _ -> Samples.add inc ms
            | Fabric.Manager.Full _ -> Samples.add full ms
            | Fabric.Manager.Noop -> ());
            let _, ms = timed (fun () -> Fabric.Manager.snapshot m) in
            Samples.add snaps ms)
          schedule;
        let metrics = Fabric.Manager.metrics m in
        let r =
          {
            final_epoch = Fabric.Manager.epoch m;
            final_layers = Ftable.num_layers (Fabric.Manager.tables m);
            incremental_ms = Samples.to_array inc;
            full_ms = Samples.to_array full;
            repair_ms = Array.map ms_of_s (Obs.Timer.samples metrics.Fabric.Metrics.repair);
            proof_ms =
              (match Fabric.Manager.epoch_history m with
              | _initial :: swaps -> Array.of_list (List.map (fun e -> ms_of_s e.Fabric.Epoch.verify_s) swaps)
              | [] -> [||]);
            snapshot_ms = Samples.to_array snaps;
          }
        in
        Fabric.Manager.shutdown m;
        Ok r)

(* One daemon phase on the running daemon [d]: the two lanes for
   [seconds] with the host probe beside them, then the daemon's own
   end-of-run state, then a graceful stop. *)
type phase = {
  events : lane;
  queries : lane;
  probe_ms : float array;
  daemon_rss : float;
  final : (Service.Client.route_reply * Obs.Json.t * bool, string) result;
  stopped : bool;
}

let daemon_phase ~self ~seconds ~schedule ~qpairs d =
  let probe = start_probe ~self ~seconds in
  let t_start = now () +. 0.05 in
  let events =
    lane
      ~due:(Array.mapi (fun i _ -> t_start +. ((float_of_int i +. 0.5) /. event_rate)) schedule)
      (Array.mapi (fun i ev -> request_with_id (Service.Proto.Event ev) i) schedule)
  in
  let queries =
    lane
      ~due:(Array.mapi (fun i _ -> t_start +. (float_of_int i /. query_rate)) qpairs)
      (Array.mapi (fun i (src, dst) -> request_with_id (Service.Proto.Route { src; dst }) i) qpairs)
  in
  let deadline = t_start +. seconds +. grace_s in
  let threads =
    List.map (fun l -> Thread.create (fun () -> run_lane l d ~deadline) ()) [ events; queries ]
  in
  List.iter Thread.join threads;
  let probe_ms = finish_probe probe in
  let daemon_rss = peak_rss_mb ~pid:d.pid () in
  let final =
    Service.Client.with_connect (addr d) (fun c ->
        let src, dst = qpairs.(0) in
        match (Service.Client.route c ~src ~dst, Service.Client.stats c, Service.Client.analyze c) with
        | Ok r, Ok stats, Ok (certified, _) -> Ok (r, stats, certified)
        | Error e, _, _ | _, Error e, _ | _, _, Error e -> Error e)
  in
  let stopped = stop d in
  { events; queries; probe_ms; daemon_rss; final; stopped }

(* Output checks of one phase, outside the timed region. *)
let check_phase ops g ~schedule ~qpairs p =
  List.iter (fun l -> Option.iter (fun e -> fail ops ("generator: " ^ e)) l.error) [ p.events; p.queries ];
  check ops p.stopped "daemon did not exit after shutdown";
  attempt ops;
  (match p.final with
  | Error e -> fail ops ("final queries: " ^ e)
  | Ok (_, stats, certified) ->
    if not certified then fail ops "daemon's analyze op does not report certified";
    List.iter
      (fun (name, what) ->
        let v = num [ "service"; name; "value" ] stats in
        check ops (v = 0.0) (Printf.sprintf "daemon reports %.0f %s" v what))
      [ ("service.busy_replies", "busy replies"); ("service.route_errors", "route errors") ]);
  Array.iteri
    (fun i ev ->
      check_reply ops p.events i ~what:("event " ^ Fabric.Event.to_string ev) ~ok:(fun j ->
          Obs.Json.member "applied" j = Some (Obs.Json.Bool true)))
    schedule;
  Array.iteri
    (fun i (src, dst) ->
      check_reply ops p.queries i ~what:(Printf.sprintf "route %d->%d" src dst) ~ok:(route_ok g ~src ~dst))
    qpairs

(* Milliseconds from each request's due time to [stamps]; requests
   never sent or never answered have a NaN stamp and are skipped. *)
let since_due (ln : lane) stamps =
  Array.mapi (fun i t -> ms_of_s (t -. ln.due.(i))) stamps
  |> Array.to_list
  |> List.filter (fun x -> not (Float.is_nan x))
  |> Array.of_list

(* How far behind schedule the generator sent, p99 over both lanes. *)
let late_p99 p =
  percentile 0.99 (Array.append (since_due p.events p.events.sent) (since_due p.queries p.queries.sent))

(* A phase whose probe ran this much slower than the idle reference
   measured just before it shared the host with heavy outside load; it is
   repeated once on a fresh daemon and the quieter attempt is reported. *)
let contention_limit = 1.2

(* For each event, the longest wait of a query due between that event
   and the next: how long reads stalled behind the swap and the first
   read's snapshot. Per-swap figures, so their median moves with the
   swap's cost and not with how many of the run's queries a stall
   happened to delay. *)
let stalls p =
  let ev = p.events.due and q = p.queries in
  let n = Array.length ev and nq = Array.length q.due in
  let k = ref 0 in
  Array.init n (fun i ->
      let until = if i + 1 < n then ev.(i + 1) else infinity in
      while !k < nq && q.due.(!k) < ev.(i) do
        incr k
      done;
      let worst = ref nan in
      while !k < nq && q.due.(!k) < until do
        let ms = ms_of_s (q.replied.(!k) -. q.due.(!k)) in
        if Float.is_nan !worst || ms > !worst then worst := ms;
        incr k
      done;
      !worst)
  |> Array.to_list
  |> List.filter (fun x -> not (Float.is_nan x))
  |> Array.of_list

(* ------------------------------------------------------------------ *)
(* The workload                                                        *)
(* ------------------------------------------------------------------ *)

let run ~self ~daemon ~seed ~seconds ~trace =
  let ops = ops () in
  let g = Bringup.generate fabric in
  Printf.printf "fabric %s: %d switches, %d terminals, %d channels\n" fabric (Graph.num_switches g)
    (Graph.num_terminals g) (Graph.num_channels g);
  (* Set-up: spawn to first ping, [spawn_reps] times; the last daemon
     stays up for the run. *)
  let spawn_s = Samples.create () in
  let start () =
    let d, r = spawn ~daemon in
    attempt ops;
    match r with
    | Error msg ->
      ignore (reap d ~timeout:1.0);
      fail ops msg;
      None
    | Ok s ->
      Samples.add spawn_s s;
      Some d
  in
  let rec setup k =
    match start () with
    | None -> None
    | Some d when k = 1 -> Some d
    | Some d ->
      check ops (stop d) "daemon did not exit after shutdown";
      setup (k - 1)
  in
  match setup spawn_reps with
  | None -> (ops, [], [])
  | Some d ->
    let n_events = int_of_float (Float.ceil (seconds *. event_rate)) in
    (* Link flaps: each link down is followed by its up. With a lower
       up_fraction the number of links down wanders with the seed, and so
       does every event's cost, moving the run's medians together. *)
    let schedule =
      Array.of_list
        (Fabric.Schedule.generate g ~rng:(Rng.create seed) ~events:n_events ~up_fraction:1.0 ())
    in
    let n_queries = int_of_float (seconds *. query_rate) in
    let qpairs = Bringup.pairs g ~seed:(seed + 1) ~n:n_queries in
    let idle = Array.init 20 (fun _ -> Host.sample ()) in
    let idle_ms = median idle in
    let first = daemon_phase ~self ~seconds ~schedule ~qpairs d in
    check_phase ops g ~schedule ~qpairs first;
    let late p = late_p99 p > late_limit_ms in
    let contended p = late p || median p.probe_ms > contention_limit *. idle_ms in
    let p =
      if not (contended first) then first
      else begin
        Printf.printf
          "host contended during the daemon phase (probe reference %.2f ms, idle %.2f ms, \
           generator late %.2f ms at p99); repeating it\n"
          (median first.probe_ms) idle_ms (late_p99 first);
        match start () with
        | None -> first
        | Some d ->
          let second = daemon_phase ~self ~seconds ~schedule ~qpairs d in
          check_phase ops g ~schedule ~qpairs second;
          let key p = (late p, median p.probe_ms) in
          if compare (key second) (key first) < 0 then second else first
      end
    in
    let stats, final_epoch, final_layers =
      match p.final with
      | Error _ -> (Obs.Json.Obj [], -1, 0)
      | Ok (r, stats, _) -> (stats, r.Service.Client.epoch, r.Service.Client.layers)
    in
    let rp = replay g (Array.to_list schedule) in
    attempt ops;
    (match rp with
    | Error msg -> fail ops ("replay: " ^ msg)
    | Ok rp ->
      if rp.final_epoch <> final_epoch || rp.final_layers <> final_layers then
        fail ops
          (Printf.sprintf "daemon ends at epoch %d with %d layers, replay at epoch %d with %d"
             final_epoch final_layers rp.final_epoch rp.final_layers));
    (* In-process bring-ups of the served fabric. *)
    let l =
      Bringup.loop ops ~spec:fabric ~g ~seed ~until:(now () +. build_seconds) ~trace
    in
    let epoch_ms = since_due p.events p.events.replied in
    let query_ms = since_due p.queries p.queries.replied in
    let late_p99 = late_p99 p in
    Printf.printf "seed=%d events=%d (%d replies) queries=%d (%d replies) gen.late_p99_ms=%.3f\n" seed
      (Array.length schedule) (Array.length epoch_ms) n_queries (Array.length query_ms) late_p99;
    Printf.printf "final epoch %d, %d layers; in-process builds=%d\n" final_epoch final_layers
      (Array.length l.Bringup.builds_ms);
    if late_p99 > late_limit_ms then
      Printf.printf
        "warning: generator ran %.1f ms behind schedule at p99 (limit %.0f ms) in both attempts\n"
        late_p99 late_limit_ms;
    let epoch_p50 = median epoch_ms in
    (* Host-speed factors: the probe's samples for what the daemon
       measured, the build loop's for what this process measured after. *)
    let sd = Host.factor p.probe_ms and sl = Bringup.factor l in
    Printf.printf "host: reference median %.3f ms over %d probe samples in the daemon phase, scale %.4f\n"
      (median p.probe_ms) (Array.length p.probe_ms) sd;
    (* Layer count of the epoch that served each query. *)
    let served_layers =
      Array.to_list p.queries.replies
      |> List.filter_map (fun r ->
             match Obs.Json.of_string r with
             | Ok j -> Option.bind (Obs.Json.member "layers" j) Obs.Json.to_float
             | Error _ -> None)
      |> Array.of_list
    in
    let e2e =
      [ metric ~scale:(Host.factor idle) "setup_s" "s" (median (Samples.to_array spawn_s)) ]
      @ Bringup.build_metrics l
      @ [
          metric ~scale:sd "epoch_p50_ms" "ms" epoch_p50;
          metric ~scale:sd "epoch_p90_ms" "ms" (percentile 0.9 epoch_ms);
          metric ~scale:sd "query_stall_ms" "ms" (median (stalls p));
          metric "peak_rss_mb" "MB" p.daemon_rss;
          metric "layers" "count" (float_of_int l.Bringup.layers);
        ]
    in
    let per_layer =
      if not trace then []
      else begin
        let mgr name field = num [ "manager"; name; field ] stats in
        let mean_ms name =
          let c = mgr name "count" in
          if c > 0.0 then 1000.0 *. mgr name "sum_s" /. c else 0.0
        in
        let svc name field = num [ "service"; name; field ] stats in
        let apply_ms = 1000.0 *. num [ "service"; "service.apply_s"; "seconds"; "median" ] stats in
        let route_c = svc "service.route_s" "count" in
        let dsts_total = mgr "fabric.dsts_total" "value" in
        let rp_metrics =
          match rp with
          | Error _ -> []
          | Ok rp ->
            [
              metric ~scale:sl "fabric.incremental_apply_ms" "ms" (median rp.incremental_ms);
              metric "fabric.incremental_count" "count" (float_of_int (Array.length rp.incremental_ms));
              metric ~scale:sl "fabric.full_apply_ms" "ms" (median rp.full_ms);
              metric "fabric.full_count" "count" (float_of_int (Array.length rp.full_ms));
              metric ~scale:sl "fabric.repair_ms" "ms" (median rp.repair_ms);
              metric ~scale:sl "fabric.swap_proof_ms" "ms" (median rp.proof_ms);
              metric ~scale:sl "fabric.snapshot_ms" "ms" (median rp.snapshot_ms);
            ]
        in
        List.filter (fun m -> m.name <> "fabric.snapshot_ms") (Bringup.traced_metrics ~scale:sl l)
        @ rp_metrics
        @ [
            metric "fabric.incremental_repairs" "count" (mgr "fabric.incremental_repairs" "value");
            metric "fabric.full_recomputes" "count" (mgr "fabric.full_recomputes" "value");
            metric "fabric.fallbacks" "count" (mgr "fabric.fallbacks" "value");
            metric "fabric.repaired_fraction" "ratio"
              (if dsts_total > 0.0 then mgr "fabric.dsts_repaired" "value" /. dsts_total else 0.0);
            metric ~scale:sd "fabric.repair_ms_mean" "ms" (mean_ms "fabric.repair");
            metric ~scale:sd "fabric.verify_ms_mean" "ms" (mean_ms "fabric.verify");
            metric ~scale:sd "service.apply_ms" "ms" apply_ms;
            metric ~scale:sd "service.route_serve_ms" "ms"
              (if route_c > 0.0 then 1000.0 *. svc "service.route_s" "sum_s" /. route_c else 0.0);
            metric ~scale:sd "service.event_wait_ms" "ms" (epoch_p50 -. apply_ms);
            metric "service.busy_replies" "count" (svc "service.busy_replies" "value");
            metric "service.route_errors" "count" (svc "service.route_errors" "value");
            metric "service.queue_peak" "count" (svc "service.queue_peak" "value");
            metric ~scale:sd "gen.query_p50_ms" "ms" (median query_ms);
            metric ~scale:sd "gen.query_p99_ms" "ms" (percentile 0.99 query_ms);
            metric "gen.late_p99_ms" "ms" late_p99;
            metric "fabric.served_layers_mean" "count" (mean served_layers);
          ]
      end
    in
    (ops, e2e, per_layer)
