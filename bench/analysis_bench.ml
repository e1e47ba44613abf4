(* Microbenchmark for the topology-level static analyzer (DESIGN.md,
   doc/static_analysis.md): Existence.analyze — the SCC passes, the
   clean-core labeling and the piercing arithmetic — must stay a small
   fraction of the route-build work it gates. Measured on a
   4096-endpoint XGFT (the paper-scale fabric of bench/cdg_bench.ml)
   plus a 1024-endpoint torus, with witness generation + trusted
   re-check timed on a 64-switch unidirectional ring where the bound is
   nontrivial. Results land in bench_results/analysis.json; exits
   non-zero if the analyzer exceeds 10% of the dfsssp route-build time
   on the 4096-endpoint fabric. *)

let time_best f =
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

(* A unidirectional ring (only clockwise switch->switch channels), the
   fabric family where the lower bound is tight at ceil n/2 and the
   core witness path does real work. *)
let one_way_ring ~switches =
  let g = Topo_ring.make ~switches ~terminals_per_switch:1 in
  let sws = Graph.switches g in
  let n = Array.length sws in
  let next = Hashtbl.create n in
  Array.iteri (fun i s -> Hashtbl.replace next s sws.((i + 1) mod n)) sws;
  let enabled =
    Array.map
      (fun (c : Channel.t) ->
        if Graph.is_switch g c.Channel.src && Graph.is_switch g c.Channel.dst then
          Hashtbl.find next c.Channel.src = c.Channel.dst
        else true)
      (Graph.channels g)
  in
  Graph.with_enabled g ~enabled

type row = {
  name : string;
  endpoints : int;
  channels : int;
  build_ms : float;
  analyze_ms : float;
  lb : int;
  layers : int;
  ratio : float;
}

let measure name g =
  Printf.eprintf "measuring %s...\n%!" name;
  (* the cost being gated: one full dfsssp route build over the fabric
     (routes, cycle breaking, layer assignment) as shipped — recommended
     SSSP batch, default kernel, default break engine — timed once, it
     is the dominant term by design *)
  let t0 = Unix.gettimeofday () in
  let ft =
    match Harness.Runs.run_named ~max_layers:64 ~batch:Routing.Sssp.recommended_batch "dfsssp" g with
    | Ok ft -> ft
    | Error msg -> failwith (Printf.sprintf "%s: dfsssp refused: %s" name msg)
  in
  let build_ms = 1000.0 *. (Unix.gettimeofday () -. t0) in
  let analyze_ms, ex = time_best (fun () -> Analysis.Existence.analyze g) in
  {
    name;
    endpoints = Graph.num_terminals g;
    channels = Graph.num_channels g;
    build_ms;
    analyze_ms;
    lb = ex.Analysis.Existence.min_layers_lb;
    layers = Routing.Ftable.num_layers ft;
    ratio = analyze_ms /. build_ms;
  }

let json_row r =
  Printf.sprintf
    {|    {"name": "%s", "endpoints": %d, "channels": %d,
     "route_build_ms": %.3f, "analyze_ms": %.3f, "analyze_over_build": %.4f,
     "min_layers_lb": %d, "layers_achieved": %d}|}
    r.name r.endpoints r.channels r.build_ms r.analyze_ms r.ratio r.lb r.layers

let () =
  let rows =
    [
      measure "xgft-4096" (Topo_xgft.make ~ms:[| 64; 64 |] ~ws:[| 1; 32 |] ~endpoints:4096);
      measure "torus-16x16" (fst (Topo_torus.torus ~dims:[| 16; 16 |] ~terminals_per_switch:4));
    ]
  in
  List.iter
    (fun r ->
      Printf.printf
        "%-12s %5d endpoints | route build %8.2f ms | existence %6.3f ms (%.2f%%) | lb %d, \
         achieved %d\n"
        r.name r.endpoints r.build_ms r.analyze_ms (100.0 *. r.ratio) r.lb r.layers)
    rows;
  (* witness path: generate a budget-infeasibility counterexample on a
     64-switch one-way ring and run the trusted re-check on it *)
  let ring = one_way_ring ~switches:64 in
  let analyze_ring_ms, ex = time_best (fun () -> Analysis.Existence.analyze ring) in
  let core = List.hd ex.Analysis.Existence.cores in
  let witness_ms, w =
    time_best (fun () ->
        match Analysis.Witness.of_core ring core with
        | Ok w -> w
        | Error msg -> failwith ("of_core: " ^ msg))
  in
  let recheck_ms, () =
    time_best (fun () ->
        match Analysis.Witness.check_graph w ring with
        | Ok () -> ()
        | Error msg -> failwith ("check_graph: " ^ msg))
  in
  Printf.printf
    "one-way-ring-64: analyze %.3f ms (lb %d) | witness build %.3f ms | trusted re-check %.3f ms\n"
    analyze_ring_ms ex.Analysis.Existence.min_layers_lb witness_ms recheck_ms;
  let big = List.hd rows in
  let ratio_ok = big.ratio <= 0.10 in
  (try
     if not (Sys.file_exists "bench_results") then Unix.mkdir "bench_results" 0o755;
     let oc = open_out "bench_results/analysis.json" in
     Printf.fprintf oc
       "{\n  \"benchmark\": \"analysis\",\n  \"topologies\": [\n%s\n  ],\n  \
        \"witness\": {\"fabric\": \"one-way-ring-64\", \"analyze_ms\": %.3f, \"min_layers_lb\": \
        %d, \"build_ms\": %.3f, \"recheck_ms\": %.3f},\n  \"targets\": \
        {\"analyze_over_build_max\": 0.10, \"ratio_ok\": %b}\n}\n"
       (String.concat ",\n" (List.map json_row rows))
       analyze_ring_ms ex.Analysis.Existence.min_layers_lb witness_ms recheck_ms ratio_ok;
     close_out oc
   with Unix.Unix_error _ | Sys_error _ -> prerr_endline "warning: could not write bench_results");
  Printf.printf "analyzer cost target (<= 10%% of route build on %s): %s\n" big.name
    (if ratio_ok then "PASS" else "FAIL");
  if not ratio_ok then exit 1
