(* Benchmark gate for the fabric controller service (DESIGN.md §14).

   Starts a real server (select loop, unix socket) in-process, then
   hammers it: [clients] threads issue route queries back to back while
   a writer thread churns the topology with down/up events, exactly the
   serving mix the daemon exists for. Reports sustained throughput and
   per-query latency percentiles into bench_results/service_latency.json.

   The [throughput] gate is a carried-forward baseline: the first run
   records its qps as [baseline_qps] and the host reference kernel's
   time (Kit.host_ref_ms) as [baseline_ref_ms] (the gate is skipped);
   later runs must stay above [gate_fraction] of that baseline scaled
   to this host's reference time (and re-record the old baseline, so
   the floor does not creep down with noisy runs). A baseline carried
   without a reference time cannot be scaled, so it is replaced like a
   missing one. The ratio is loose on purpose — this catches a
   serving-path regression (an accidental copy, a lost batch, a
   quadratic scan), not scheduler jitter, and the scaling keeps a
   slower host from reading as one. The [no_errors] gate fails on any
   refused query or event. *)

let clients = 16
let queries_per_client = 1_500
let churn_events = 24
let gate_fraction = 0.4

let sock_path =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "fabsvc_bench_%d.sock" (Unix.getpid ()))

let () =
  (try Unix.unlink sock_path with Unix.Unix_error _ -> ());
  let ref_before = Kit.host_ref_ms () in
  let g = fst (Topo_torus.torus ~dims:[| 6; 6 |] ~terminals_per_switch:1) in
  let config =
    {
      Service.Server.default_config with
      addr = Service.Proto.Unix_path sock_path;
      tick_s = 0.002;
      trace_capacity = 0;
    }
  in
  Printf.eprintf "routing the initial fabric...\n%!";
  let server =
    match Service.Server.create ~config g with
    | Ok s -> s
    | Error msg ->
      Printf.eprintf "service_bench: %s\n" msg;
      exit 1
  in
  let server_thread = Thread.create Service.Server.serve server in
  let addr = Service.Proto.Unix_path sock_path in
  let terms = Graph.terminals g in
  let nt = Array.length terms in

  (* Warmup: fault in the first epoch's snapshot and touch the socket
     path once before the clock starts. *)
  (match Service.Client.with_connect addr (fun c -> Service.Client.ping c) with
  | Ok _ -> ()
  | Error msg ->
    Printf.eprintf "service_bench: warmup: %s\n" msg;
    exit 1);

  let latencies = Array.make_matrix clients queries_per_client 0.0 in
  let errors = Atomic.make 0 in
  let reader tid =
    match Service.Client.connect addr with
    | Error _ -> Atomic.incr errors
    | Ok c ->
      Fun.protect ~finally:(fun () -> Service.Client.close c) (fun () ->
          let rng = Rng.create (0xBE7C + tid) in
          for q = 0 to queries_per_client - 1 do
            let src = terms.(Rng.int rng nt) in
            let dst = ref terms.(Rng.int rng nt) in
            while !dst = src do
              dst := terms.(Rng.int rng nt)
            done;
            let t0 = Unix.gettimeofday () in
            (match Service.Client.route c ~src ~dst:!dst with
            | Ok _ -> ()
            | Error _ -> Atomic.incr errors);
            latencies.(tid).(q) <- (Unix.gettimeofday () -. t0) *. 1e3
          done)
  in
  let churn_applied = ref 0 in
  let writer () =
    match Service.Client.connect addr with
    | Error _ -> Atomic.incr errors
    | Ok c ->
      Fun.protect ~finally:(fun () -> Service.Client.close c) (fun () ->
          let schedule =
            Fabric.Schedule.generate g ~rng:(Rng.create 4242) ~events:churn_events ()
          in
          List.iter
            (fun ev ->
              let rec push retries =
                match Service.Client.event c ev with
                | Ok (Service.Client.Applied _) -> incr churn_applied
                | Ok (Service.Client.Busy _) when retries > 0 ->
                  Thread.delay 0.001;
                  push (retries - 1)
                | Ok (Service.Client.Busy _) | Error _ -> Atomic.incr errors
              in
              push 200)
            schedule)
  in
  Printf.eprintf "%d clients x %d queries under %d churn events...\n%!" clients
    queries_per_client churn_events;
  let t0 = Unix.gettimeofday () in
  let threads =
    Thread.create writer () :: List.init clients (fun tid -> Thread.create reader tid)
  in
  List.iter Thread.join threads;
  let wall_s = Unix.gettimeofday () -. t0 in

  (match Service.Client.with_connect addr (fun c -> Service.Client.shutdown c) with
  | Ok () -> ()
  | Error msg -> Printf.eprintf "service_bench: shutdown: %s\n" msg);
  Thread.join server_thread;

  let ref_ms = (ref_before +. Kit.host_ref_ms ()) /. 2.0 in
  let total = clients * queries_per_client in
  let flat = Array.concat (Array.to_list latencies) in
  Array.sort compare flat;
  let qps = float_of_int total /. wall_s in
  let p50 = Obs.Stat.percentile 0.50 flat in
  let p99 = Obs.Stat.percentile 0.99 flat in
  let pmax = flat.(Array.length flat - 1) in
  let final_epoch = Fabric.Manager.epoch (Service.Server.manager server) in

  let prior = Kit.read_baseline "bench_results/service_latency.json" in
  let carried field = Option.bind prior (fun doc -> Option.bind (Obs.Json.member field doc) Obs.Json.to_float) in
  let baseline =
    match (carried "baseline_qps", carried "baseline_ref_ms") with
    | Some b, Some r -> Ok (b, r)
    | Some _, None -> Error "carried baseline has no reference time; this run's qps and reference time replace it"
    | None, _ -> Error "no baseline; this run's qps and reference time are recorded as it"
  in
  let baseline_qps, baseline_ref_ms = match baseline with Ok br -> br | Error _ -> (qps, ref_ms) in
  let scaled_qps = Kit.scale_rate baseline_qps ~baseline_ref_ms ~ref_ms in
  let target =
    Printf.sprintf "qps >= %.0f%% of carried baseline, scaled by host reference time, under churn"
      (100.0 *. gate_fraction)
  in
  let gates =
    [
      (match baseline with
      | Error why -> { Kit.name = "throughput"; target; status = Kit.Skipped why }
      | Ok _ -> Kit.gate "throughput" ~target (qps >= gate_fraction *. scaled_qps));
      Kit.gate "no_errors" ~target:"every query and churn event answered" (Atomic.get errors = 0);
    ]
  in
  Kit.write_json ~benchmark:"service_latency"
    Obs.Json.
      [
        ("topology", Str "torus-6x6");
        ("clients", Kit.json_int clients);
        ("queries", Kit.json_int total);
        ("churn_events_applied", Kit.json_int !churn_applied);
        ("final_epoch", Kit.json_int final_epoch);
        ("errors", Kit.json_int (Atomic.get errors));
        ("wall_s", Num wall_s);
        ("qps", Num qps);
        ("latency_ms", Obj [ ("p50", Num p50); ("p99", Num p99); ("max", Num pmax) ]);
        ("ref_ms", Num ref_ms);
        ("baseline_qps", Num baseline_qps);
        ("baseline_ref_ms", Num baseline_ref_ms);
        ("scaled_baseline_qps", Num scaled_qps);
      ]
    gates;
  Printf.printf "service_latency: %d queries in %.2f s (%.0f qps), p50 %.3f ms, p99 %.3f ms\n"
    total wall_s qps p50 p99;
  Printf.printf
    "churn: %d/%d events applied, final epoch %d, %d errors (baseline %.0f qps at reference %.2f ms, \
     %.0f qps at this host's %.2f ms)\n"
    !churn_applied churn_events final_epoch (Atomic.get errors) baseline_qps baseline_ref_ms scaled_qps
    ref_ms;
  Kit.finish gates
