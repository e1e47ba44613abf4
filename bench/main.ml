(* Regenerates every table and figure of the paper's evaluation — every
   entry of Harness.Experiments (see DESIGN.md for the per-experiment
   index) — at scaled default sizes, then runs a bechamel
   micro-benchmark suite over the routing engines.

   Environment knobs:
     BENCH_SCALE    divisor for real-system sizes      (default 4)
     BENCH_MAX_EP   largest sweep size (Figs. 5-7)     (default 512)
     BENCH_PATTERNS bisection patterns per eBB cell    (default 30)
     BENCH_TRIALS   random-topology seeds (Fig. 9)     (default 5)
     BENCH_SKIP_MICRO  set to skip the bechamel suite
   Full paper scale: BENCH_SCALE=1 BENCH_MAX_EP=4096 BENCH_PATTERNS=1000
   BENCH_TRIALS=100 (CPU-hours). *)

open Netgraph

let env_int name default =
  match Sys.getenv_opt name with
  | None -> default
  | Some v -> ( match int_of_string_opt v with Some i when i > 0 -> i | _ -> default)

let params =
  {
    Harness.Experiments.scale = env_int "BENCH_SCALE" 4;
    max_endpoints = env_int "BENCH_MAX_EP" 512;
    patterns = env_int "BENCH_PATTERNS" 30;
    trials = env_int "BENCH_TRIALS" 5;
    domains = None;
  }

let show table =
  Harness.Report.print table;
  (try
     if not (Sys.file_exists "bench_results") then Unix.mkdir "bench_results" 0o755;
     ignore (Harness.Report.save_csv ~dir:"bench_results" table)
   with Unix.Unix_error _ | Sys_error _ -> ());
  print_newline ()

let timed_section title f =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '#');
  let t0 = Unix.gettimeofday () in
  f ();
  Printf.printf "[section took %.1fs]\n" (Unix.gettimeofday () -. t0)

let micro () =
  let open Bechamel in
  let g = Topo_tree.make ~k:6 ~n:2 ~endpoints:64 () in
  let bench name f = Test.make ~name (Staged.stage f) in
  let expect label = function
    | Ok x -> x
    | Error _ -> failwith (label ^ ": routing failed")
  in
  let tests =
    Test.make_grouped ~name:"routing(64-endpoint 6-ary 2-tree)"
      [
        bench "minhop" (fun () -> expect "minhop" (Routing.Minhop.route g));
        bench "sssp" (fun () -> expect "sssp" (Routing.Sssp.route g));
        bench "updown" (fun () -> expect "updown" (Routing.Updown.route g));
        bench "ftree" (fun () -> expect "ftree" (Routing.Ftree.route g));
        bench "lash" (fun () -> expect "lash" (Routing.Lash.route g));
        bench "dfsssp-offline" (fun () ->
            match Dfsssp.route g with Ok ft -> ft | Error _ -> failwith "dfsssp");
        bench "dfsssp-online" (fun () ->
            match Dfsssp.route ~variant:Dfsssp.Online g with Ok ft -> ft | Error _ -> failwith "dfsssp");
      ]
  in
  let benchmark test =
    let instance = Toolkit.Instance.monotonic_clock in
    let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 1.0) ~kde:(Some 100) () in
    Benchmark.all cfg [ instance ] test
  in
  let analyze results =
    let ols =
      Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
    in
    Analyze.all ols Toolkit.Instance.monotonic_clock results
  in
  let results = analyze (benchmark tests) in
  Hashtbl.iter
    (fun name ols ->
      match Analyze.OLS.estimates ols with
      | Some [ est ] -> Printf.printf "  %-45s %12.3f us/run\n" name (est /. 1000.0)
      | _ -> Printf.printf "  %-45s (no estimate)\n" name)
    results

let () =
  Printf.printf "DFSSSP reproduction bench — scale=1/%d, sweeps to %d endpoints, %d patterns, %d trials\n"
    params.scale params.max_endpoints params.patterns params.trials;
  List.iter
    (fun { Harness.Experiments.title; full_scale; run; _ } ->
      if not full_scale then timed_section title (fun () -> show (run params)))
    Harness.Experiments.all;
  if Sys.getenv_opt "BENCH_SKIP_MICRO" = None then
    timed_section "Bechamel micro-benchmarks" micro;
  print_newline ();
  print_endline "bench: all experiments completed"
