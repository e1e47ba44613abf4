(* Benchmark gate for the domain-parallel routing pipeline (DESIGN.md
   section 12) and the pluggable SSSP kernels behind it (§15). Per
   topology it measures:

   - the SSSP + cycle-breaking pipeline sequentially (the legacy
     per-destination recurrence) and through the batched-snapshot
     driver, with the parallel run decomposed into its snapshot-freeze
     and tree-compute stages via the always-on [sssp.snapshot] /
     [sssp.route_destinations] timers;
   - each kernel in isolation — binary-heap oracle, bucket queue,
     incremental reuse — over one frozen weight plane (one stamp, so
     the incremental cache is allowed to work);

   and writes bench_results/routing_parallel.json. Gates:

   - parallel SSSP >= 1.0x sequential on every topology. The hardware
     may have a single domain: the batched driver then runs inline,
     skipping the snapshot copy, and per-batch stamps let the
     incremental kernel reuse switch trees that the per-destination
     sequential recurrence cannot — so batching must pay even with no
     parallelism at all.
   - bucket kernel >= 1.3x the heap oracle on the torus and XGFT
     workloads (uniform weight planes are the bucket core's home turf).
   - the default kernel ([Spf.resolve Spf.Auto]) is the fastest
     measured kernel on every topology, within a 5% noise allowance.
   - pipeline speedup >= 2x on the 4096-endpoint XGFT — only
     enforceable with >= 4 hardware domains; recorded as skipped (exit
     0) otherwise.
   - obs compiled in but disabled keeps the sequential SSSP stage
     within 50% of the previous run — a coarse tripwire for
     instrumentation accidentally becoming unconditional
     (bench_results/obs_overhead.json).

   [--equivalence] runs a seconds-long cross-kernel table-equality
   check instead (wired into `make check`): every kernel must produce
   the heap oracle's tables and final weights bit-for-bit. *)

(* Compact before sampling: the workloads allocate multi-hundred-MB
   tables, and whichever variant is measured after a big allocation
   otherwise pays the previous variant's major-GC debt. *)
let time_best f =
  Gc.compact ();
  let best = ref infinity in
  let result = ref None in
  for _ = 1 to 3 do
    let t0 = Unix.gettimeofday () in
    let r = f () in
    let dt = Unix.gettimeofday () -. t0 in
    if dt < !best then best := dt;
    result := Some r
  done;
  (1000.0 *. !best, Option.get !result)

(* Interleaved best-of-N for variants being compared against each
   other: alternating the thunks each round exposes both to the same
   noise (GC phase, neighbours on a shared box) instead of letting one
   sample a calm window the other never sees. *)
let time_race ?(rounds = 4) thunks =
  Gc.compact ();
  let best = Array.make (Array.length thunks) infinity in
  for _ = 1 to rounds do
    Array.iteri
      (fun i f ->
        let t0 = Unix.gettimeofday () in
        f ();
        let dt = Unix.gettimeofday () -. t0 in
        if dt < best.(i) then best.(i) <- dt)
      thunks
  done;
  Array.map (fun b -> 1000.0 *. b) best

let timer_sum name =
  match Obs.Registry.find_timer (Obs.Registry.default ()) name with
  | Some t -> Obs.Timer.sum_s t
  | None -> 0.0

(* ------------------------------------------------------------------ *)
(* Workloads: the cdg_bench trio, routed toward a contiguous block of
   terminals grouped by attached switch (see build_workload).           *)
(* ------------------------------------------------------------------ *)

type workload = {
  name : string;
  graph : Graph.t;
  dsts : int array;
  bucket_gated : bool; (* torus/xgft: bucket-vs-heap gate applies *)
}

let attached_switch g t =
  let inc = Graph.in_channels g t in
  if Array.length inc = 0 then -1 else (Graph.channel g inc.(0)).Channel.src

(* A contiguous terminal block, grouped by attached switch. Grouping is
   the destination order a locality-aware controller feeds
   route_destinations: consecutive same-switch terminals are what the
   incremental kernel converts into cache hits. On tori the terminal id
   order already attaches contiguously, so the sort is the identity;
   XGFTs attach endpoints round-robin across leaves, and without the
   sort no block of any size would ever repeat a switch. *)
let build_workload name g ~num_dsts ~bucket_gated =
  let terminals = Array.copy (Graph.terminals g) in
  Array.stable_sort (fun a b -> compare (attached_switch g a) (attached_switch g b)) terminals;
  let num_dsts = min num_dsts (Array.length terminals) in
  { name; graph = g; dsts = Array.sub terminals 0 num_dsts; bucket_gated }

(* ------------------------------------------------------------------ *)
(* The pipeline: SSSP toward the destination subset, then path
   extraction into a route store and offline cycle-breaking
   (Algorithm 2) — the work fabric_tool does per routing pass.          *)
(* ------------------------------------------------------------------ *)

let sssp_stage ?batch ?domains ?pool ?kernel w () =
  let weights = Sssp.initial_weights w.graph in
  let ft = Ftable.create w.graph ~algorithm:"bench" in
  (match Sssp.route_destinations ?batch ?domains ?pool ?kernel w.graph ~weights ~ft ~dsts:w.dsts with
  | Ok () -> ()
  | Error msg -> failwith (Printf.sprintf "%s: routing failed: %s" w.name msg));
  ft

let break_stage ?domains w ft () =
  let terminals = Graph.terminals w.graph in
  let num_dsts = Array.length w.dsts in
  let store = Route_store.create w.graph ~capacity:(Array.length terminals * num_dsts) in
  Array.iteri
    (fun si src ->
      Array.iteri
        (fun j dst ->
          if src <> dst then
            match Ftable.path ft ~src ~dst with
            | Some p -> Route_store.set_path store ~pair:((si * num_dsts) + j) p
            | None -> failwith (Printf.sprintf "%s: no route %d -> %d" w.name src dst))
        w.dsts)
    terminals;
  match Layers.assign_store ?domains store ~max_layers:64 ~heuristic:Heuristic.Weakest with
  | Ok o -> o.Layers.layers_used
  | Error msg -> failwith (Printf.sprintf "%s: cycle breaking failed: %s" w.name msg)

(* One kernel, in isolation: shortest-path trees toward every sampled
   destination over a frozen uniform weight plane — no table fills, no
   flow walks, one stamp for the whole sweep. This is the number the
   kernel-selection gates compare. *)
let kernel_sweep kernel w =
  let ws = Spf.workspace ~kernel w.graph in
  let weights = Sssp.initial_weights w.graph in
  fun () ->
    let stamp = Spf.fresh_stamp () in
    let settled = ref 0 in
    Array.iter
      (fun dst ->
        let t = Spf.compute ws w.graph ~weights ~stamp ~dst in
        settled := !settled + t.Spf.reached)
      w.dsts;
    !settled

type row = {
  wname : string;
  endpoints : int;
  num_dsts : int;
  bucket_gated : bool;
  seq_sssp_ms : float;
  seq_break_ms : float;
  par_sssp_ms : float;
  par_break_ms : float;
  par_snapshot_ms : float; (* snapshot-freeze share of one parallel run *)
  par_compute_ms : float; (* the rest of that run *)
  kernel_ms : (Spf.kind * float) list; (* isolated sweeps, one per kernel *)
  layers : int;
}

let sssp_speedup r = r.seq_sssp_ms /. r.par_sssp_ms

let pipeline_speedup r =
  (r.seq_sssp_ms +. r.seq_break_ms) /. (r.par_sssp_ms +. r.par_break_ms)

let concrete_kernels = [ Spf.Heap; Spf.Bucket; Spf.Incremental ]

let default_kernel = Spf.resolve Spf.Auto

let kernel_time r k = List.assoc k r.kernel_ms

let measure ~batch ~domains ~pool w =
  Printf.eprintf "measuring %s...\n%!" w.name;
  let n = Graph.num_nodes w.graph in
  let weights = Sssp.initial_weights w.graph in
  let ft_seq = Ftable.create w.graph ~algorithm:"bench" in
  let ft_par = Ftable.create w.graph ~algorithm:"bench" in
  let route ft ?batch ?pool () =
    Array.fill weights 0 (Array.length weights) (n * n);
    match Sssp.route_destinations ?batch ?pool w.graph ~weights ~ft ~dsts:w.dsts with
    | Ok () -> ()
    | Error msg -> failwith (Printf.sprintf "%s: routing failed: %s" w.name msg)
  in
  (* First-touch warmup of both freshly allocated tables, doubling as
     the determinism smoke: two parallel runs into the two tables must
     agree entry-for-entry (test/test_parallel.ml proves the full
     contract). *)
  route ft_seq ~batch ~pool ();
  route ft_par ~batch ~pool ();
  if (Ftable.diff ft_seq ft_par).Ftable.entries_changed <> 0 then
    failwith (w.name ^ ": parallel pipeline not deterministic");
  (* The gated comparison: route_destinations itself, sequential vs
     batched, over the same preallocated table/weight storage — the
     table allocation the stage shares with every variant is not part
     of what batching can speed up, so it is kept out of the timed
     region. *)
  let times =
    time_race [| (fun () -> route ft_seq ()); (fun () -> route ft_par ~batch ~pool ()) |]
  in
  let seq_sssp_ms = times.(0) and par_sssp_ms = times.(1) in
  (* Stage decomposition of one parallel run, from the always-on
     timers: snapshot freezes vs everything else (tree computes, table
     fills, flow walks, merges). *)
  let snap0 = timer_sum "sssp.snapshot" and plane0 = timer_sum "sssp.route_destinations" in
  route ft_par ~batch ~pool ();
  let par_snapshot_ms = 1000.0 *. (timer_sum "sssp.snapshot" -. snap0) in
  let par_compute_ms =
    (1000.0 *. (timer_sum "sssp.route_destinations" -. plane0)) -. par_snapshot_ms
  in
  (* After the race, ft_seq holds the sequential tables and ft_par the
     batched ones; break each so the pipeline totals stay comparable. *)
  route ft_seq ();
  let seq_break_ms, seq_layers = time_best (break_stage w ft_seq) in
  let par_break_ms, par_layers = time_best (break_stage ~domains w ft_par) in
  let kernel_thunks =
    List.map
      (fun k ->
        let sweep = kernel_sweep k w in
        fun () -> ignore (sweep ()))
      concrete_kernels
  in
  let kernel_times = time_race (Array.of_list kernel_thunks) in
  let kernel_ms = List.mapi (fun i k -> (k, kernel_times.(i))) concrete_kernels in
  {
    wname = w.name;
    endpoints = Graph.num_terminals w.graph;
    num_dsts = Array.length w.dsts;
    bucket_gated = w.bucket_gated;
    seq_sssp_ms;
    seq_break_ms;
    par_sssp_ms;
    par_break_ms;
    par_snapshot_ms;
    par_compute_ms;
    kernel_ms;
    layers = max seq_layers par_layers;
  }

let json_row r =
  let kernels =
    String.concat ", "
      (List.map
         (fun (k, ms) -> Printf.sprintf "\"%s\": %.3f" (Spf.kind_to_string k) ms)
         r.kernel_ms)
  in
  Printf.sprintf
    {|    {
      "name": "%s", "endpoints": %d, "destinations": %d, "layers": %d,
      "sssp_ms": {"sequential": %.3f, "parallel": %.3f, "speedup": %.2f},
      "stage_ms": {"snapshot": %.3f, "compute": %.3f},
      "kernel_ms": {%s, "default": "%s"},
      "break_ms": {"sequential": %.3f, "parallel": %.3f},
      "pipeline_ms": {"sequential": %.3f, "parallel": %.3f, "speedup": %.2f}
    }|}
    r.wname r.endpoints r.num_dsts r.layers r.seq_sssp_ms r.par_sssp_ms (sssp_speedup r)
    r.par_snapshot_ms r.par_compute_ms kernels
    (Spf.kind_to_string default_kernel)
    r.seq_break_ms r.par_break_ms
    (r.seq_sssp_ms +. r.seq_break_ms)
    (r.par_sssp_ms +. r.par_break_ms)
    (pipeline_speedup r)

(* ------------------------------------------------------------------ *)
(* Observability overhead (DESIGN.md section 13): the sequential SSSP
   stage with obs compiled in but disabled must stay within 50% of the
   previous run's times (read from routing_parallel.json before this
   run overwrites it), and the cost of enabled tracing is recorded
   informationally. 50% is a noise ceiling for this cross-process
   wall-clock comparison on a shared box, not the expected cost — the
   disabled fast path is one atomic load.                               *)
(* ------------------------------------------------------------------ *)

(* name -> sequential pipeline ms of the previous routing_parallel.json *)
let read_baseline path =
  if not (Sys.file_exists path) then None
  else
    let text = In_channel.with_open_text path In_channel.input_all in
    match Obs.Json.of_string text with
    | Error _ -> None
    | Ok doc ->
      let open Obs.Json in
      let rows =
        match member "topologies" doc with
        | Some j -> Option.value ~default:[] (to_list j)
        | None -> []
      in
      let entry row =
        match (member "name" row, member "sssp_ms" row) with
        | Some name, Some sssp -> (
          match (to_str name, Option.bind (member "sequential" sssp) to_float) with
          | Some n, Some ms -> Some (n, ms)
          | _ -> None)
        | _ -> None
      in
      let entries = List.filter_map entry rows in
      if entries = [] then None else Some entries

let measure_enabled_overhead w =
  Printf.eprintf "measuring %s with tracing enabled...\n%!" w.name;
  let pipeline () =
    let ft = sssp_stage w () in
    ignore (break_stage w ft ())
  in
  let off_ms, () = time_best pipeline in
  let spans = Obs.Registry.counter ~registry:(Obs.Registry.create ()) "bench.spans" in
  let on_ms, () =
    Obs.Control.with_enabled true (fun () ->
        Obs.Trace.with_sink (Obs.Trace.counting_sink spans) (fun () -> time_best pipeline))
  in
  (w.name, off_ms, on_ms, Obs.Counter.value spans)

(* ------------------------------------------------------------------ *)
(* --equivalence: the `make check` slice. Cross-kernel bit-for-bit
   table and weight equality on two small fabrics, in well under a
   second — the full property net lives in test/test_spf.ml.            *)
(* ------------------------------------------------------------------ *)

let run_equivalence () =
  let fabrics =
    [
      ("torus-8x8", fst (Topo_torus.torus ~dims:[| 8; 8 |] ~terminals_per_switch:2));
      ("xgft-128", Topo_xgft.make ~ms:[| 8; 16 |] ~ws:[| 1; 8 |] ~endpoints:128);
    ]
  in
  let failures = ref 0 in
  List.iter
    (fun (name, g) ->
      let run kernel =
        let weights = Sssp.initial_weights g in
        match Sssp.route_plane ~batch:Sssp.recommended_batch ~kernel g ~weights with
        | Ok ft -> (ft, weights)
        | Error msg -> failwith (Printf.sprintf "%s (%s): %s" name (Spf.kind_to_string kernel) msg)
      in
      let oft, ow = run Spf.Heap in
      List.iter
        (fun kernel ->
          let ft, w = run kernel in
          let ok = (Ftable.diff oft ft).Ftable.entries_changed = 0 && w = ow in
          Printf.printf "equivalence %-10s %-12s %s\n" name (Spf.kind_to_string kernel)
            (if ok then "ok" else "MISMATCH");
          if not ok then incr failures)
        [ Spf.Auto; Spf.Bucket; Spf.Incremental ])
    fabrics;
  if !failures > 0 then begin
    Printf.printf "kernel equivalence: FAIL (%d mismatches)\n" !failures;
    exit 1
  end;
  Printf.printf "kernel equivalence: PASS\n"

(* ------------------------------------------------------------------ *)
(* Main                                                                 *)
(* ------------------------------------------------------------------ *)

let () =
  if Array.exists (( = ) "--equivalence") Sys.argv then begin
    run_equivalence ();
    exit 0
  end;
  let available = Domain.recommended_domain_count () in
  (* Clamp to the hardware: requesting more domains than cores measures
     oversubscription noise, not parallel speedup (the 1-core CI box
     used to run 2 domains here). Both values land in the JSON. *)
  let domains = max 1 (min available 4) in
  let batch = Sssp.recommended_batch in
  let baseline = read_baseline "bench_results/routing_parallel.json" in
  let workloads =
    [
      build_workload "xgft-4096"
        (Topo_xgft.make ~ms:[| 32; 64 |] ~ws:[| 1; 32 |] ~endpoints:4096)
        ~num_dsts:64 ~bucket_gated:true;
      build_workload "torus-16x16"
        (fst (Topo_torus.torus ~dims:[| 16; 16 |] ~terminals_per_switch:4))
        ~num_dsts:128 ~bucket_gated:true;
      build_workload "torus-64x64"
        (fst (Topo_torus.torus ~dims:[| 64; 64 |] ~terminals_per_switch:2))
        ~num_dsts:16 ~bucket_gated:true;
    ]
  in
  let pool = Sssp.create_pool ~domains () in
  let rows =
    Fun.protect
      ~finally:(fun () -> Sssp.destroy_pool pool)
      (fun () -> List.map (measure ~batch ~domains ~pool) workloads)
  in
  List.iter
    (fun r ->
      Printf.printf
        "%-12s %5d endpoints, %3d dsts | sssp %8.2f vs %8.2f ms (%.2fx; snap %.2f + compute %.2f) \
         | pipeline %.2fx\n"
        r.wname r.endpoints r.num_dsts r.seq_sssp_ms r.par_sssp_ms (sssp_speedup r)
        r.par_snapshot_ms r.par_compute_ms (pipeline_speedup r);
      List.iter
        (fun (k, ms) ->
          Printf.printf "             kernel %-12s %8.2f ms (%.2fx vs heap)%s\n"
            (Spf.kind_to_string k) ms
            (kernel_time r Spf.Heap /. ms)
            (if k = default_kernel then "  [default]" else ""))
        r.kernel_ms)
    rows;
  let big = List.find (fun r -> r.endpoints >= 4096) rows in
  (* ---- gates ---- *)
  let pipeline_enforced = available >= 4 in
  let pipeline_ok = pipeline_speedup big >= 2.0 in
  let pipeline_status =
    if not pipeline_enforced then
      Printf.sprintf "skipped: %d hardware domain%s available (gate needs >= 4)" available
        (if available = 1 then "" else "s")
    else if pipeline_ok then "pass"
    else "fail"
  in
  let parallel_ok = List.for_all (fun r -> sssp_speedup r >= 1.0) rows in
  let bucket_rows = List.filter (fun r -> r.bucket_gated) rows in
  let bucket_ok =
    List.for_all (fun r -> kernel_time r Spf.Heap /. kernel_time r Spf.Bucket >= 1.3) bucket_rows
  in
  (* 5% noise allowance: the default must not measurably lose to any
     alternative kernel anywhere. *)
  let default_ok =
    List.for_all
      (fun r ->
        let d = kernel_time r default_kernel in
        List.for_all (fun (_, ms) -> d <= ms *. 1.05) r.kernel_ms)
      rows
  in
  let status ok = if ok then "pass" else "fail" in
  (try
     if not (Sys.file_exists "bench_results") then Unix.mkdir "bench_results" 0o755;
     let oc = open_out "bench_results/routing_parallel.json" in
     Printf.fprintf oc
       "{\n  \"benchmark\": \"routing_parallel\",\n  \"domains_available\": %d,\n  \
        \"domains_used\": %d,\n  \"batch\": %d,\n  \"default_kernel\": \"%s\",\n  \
        \"topologies\": [\n%s\n  ],\n  \"gate\": {\"target\": \"pipeline speedup >= 2.0 on %s \
        with >= 4 domains\", \"status\": \"%s\"},\n  \"gates\": {\n    \"parallel_not_slower\": \
        {\"target\": \"parallel sssp >= 1.0x sequential on every topology\", \"status\": \
        \"%s\"},\n    \"bucket_kernel\": {\"target\": \"bucket >= 1.3x heap on torus/xgft \
        kernel sweeps\", \"status\": \"%s\"},\n    \"default_kernel_fastest\": {\"target\": \
        \"default kernel within 5%% of the fastest on every topology\", \"status\": \"%s\"}\n  \
        }\n}\n"
       available domains batch
       (Spf.kind_to_string default_kernel)
       (String.concat ",\n" (List.map json_row rows))
       big.wname pipeline_status (status parallel_ok) (status bucket_ok) (status default_ok);
     close_out oc
   with Unix.Unix_error _ | Sys_error _ -> prerr_endline "warning: could not write bench_results");
  Printf.printf "speedup gate (>= 2x pipeline on %s, %d domains available): %s\n" big.wname
    available
    (String.uppercase_ascii pipeline_status);
  Printf.printf "parallel-not-slower gate (>= 1.0x sssp everywhere): %s\n"
    (String.uppercase_ascii (status parallel_ok));
  Printf.printf "bucket kernel gate (>= 1.3x heap on torus/xgft): %s\n"
    (String.uppercase_ascii (status bucket_ok));
  Printf.printf "default kernel gate (%s fastest within 5%%): %s\n"
    (Spf.kind_to_string default_kernel)
    (String.uppercase_ascii (status default_ok));
  (* ---- observability overhead ---- *)
  let disabled_cmp =
    match baseline with
    | None -> None
    | Some base ->
      let matched =
        List.filter_map
          (fun r -> Option.map (fun b -> (r.wname, b, r.seq_sssp_ms)) (List.assoc_opt r.wname base))
          rows
      in
      if matched = [] then None
      else
        let bsum = List.fold_left (fun a (_, b, _) -> a +. b) 0.0 matched in
        let csum = List.fold_left (fun a (_, _, c) -> a +. c) 0.0 matched in
        Some (matched, bsum, csum, (csum -. bsum) /. bsum)
  in
  (* The gate compares the sequential SSSP stage only — the path the
     sssp.*/spf.* instrumentation actually sits on. The cycle-breaking
     stage is excluded on purpose: its allocation-heavy seconds swing
     2x+ with ambient heap state, which would drown any signal. Even
     so, a cross-process wall-clock comparison on shared hardware
     carries +-30% of ambient noise, so this is a coarse tripwire for
     instrumentation accidentally becoming unconditional (always 2x+
     on this path), not a profiler: the threshold is 50%. The finer
     number — same-process enabled vs disabled tracing — is recorded
     alongside, informationally. *)
  let obs_gate_ok = match disabled_cmp with None -> true | Some (_, _, _, d) -> d < 0.50 in
  let obs_gate_status =
    match disabled_cmp with
    | None -> "skipped: no baseline"
    | Some _ when obs_gate_ok -> "pass"
    | Some _ -> "fail"
  in
  (* the smallest workload carries the enabled-tracing measurement; the
     number is informational, not a gate *)
  let en_name, en_off, en_on, en_spans =
    measure_enabled_overhead (List.nth workloads (List.length workloads - 1))
  in
  let overhead_json =
    let open Obs.Json in
    Obj
      [
        ("benchmark", Str "obs_overhead");
        ( "disabled",
          Obj
            (( "gate",
               Str
                 (Printf.sprintf "sequential SSSP stage with obs compiled in but disabled within \
                                  50%% of the previous run: %s" obs_gate_status) )
            ::
            (match disabled_cmp with
            | None -> []
            | Some (matched, bsum, csum, delta) ->
              [
                ("baseline_sssp_ms", Num bsum);
                ("current_sssp_ms", Num csum);
                ("overhead_fraction", Num delta);
                ( "topologies",
                  Obj
                    (List.map
                       (fun (n, b, c) ->
                         (n, Obj [ ("baseline_ms", Num b); ("current_ms", Num c) ]))
                       matched) );
              ])) );
        ( "enabled",
          Obj
            [
              ("workload", Str en_name);
              ("disabled_ms", Num en_off);
              ("traced_ms", Num en_on);
              ("spans", Num (float_of_int en_spans));
              ("overhead_fraction", Num ((en_on -. en_off) /. en_off));
            ] );
      ]
  in
  (try
     Out_channel.with_open_text "bench_results/obs_overhead.json" (fun oc ->
         Out_channel.output_string oc (Obs.Json.to_string overhead_json);
         Out_channel.output_char oc '\n')
   with Sys_error _ -> prerr_endline "warning: could not write bench_results/obs_overhead.json");
  (match disabled_cmp with
  | None -> Printf.printf "obs overhead gate: SKIPPED (no baseline)\n"
  | Some (_, bsum, csum, delta) ->
    Printf.printf "obs overhead gate (<50%% disabled, sequential sssp %.1f -> %.1f ms): %s (%+.2f%%)\n"
      bsum csum (String.uppercase_ascii obs_gate_status) (100.0 *. delta));
  Printf.printf "enabled tracing on %s: %.2f -> %.2f ms (%d spans, %+.2f%%)\n" en_name en_off en_on
    en_spans
    (100.0 *. (en_on -. en_off) /. en_off);
  if (pipeline_enforced && not pipeline_ok) || not parallel_ok || not bucket_ok || not default_ok
     || not obs_gate_ok
  then exit 1
