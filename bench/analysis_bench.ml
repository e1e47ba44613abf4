(* Microbenchmark for the topology-level static analyzer (DESIGN.md,
   doc/static_analysis.md): Existence.analyze — the SCC passes, the
   clean-core labeling and the piercing arithmetic — must stay a small
   fraction of the route-build work it gates. Measured on a
   4096-endpoint XGFT (the paper-scale fabric of bench/cdg_bench.ml)
   plus a 1024-endpoint torus, with witness generation + trusted
   re-check timed on a 64-switch unidirectional ring where the bound is
   nontrivial. Each topology row also times the routing certifier
   (Analyzer.certify, best of three) on the table the row builds and
   reports the megabytes one certification allocates (Gc counters
   around the call); ROADMAP item 9 targets xgft-4096 under 2 s.
   Results land in bench_results/analysis.json; the [ratio] gate fails
   if the analyzer exceeds 10% of the dfsssp route-build time on the
   4096-endpoint fabric. *)

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
  certify_ms : float;
  certify_alloc_mb : float;
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
  let analyze_ms, ex = Kit.time_best (fun () -> Analysis.Existence.analyze g) in
  let minor0, promoted0, major0 = Gc.counters () in
  let certified = Analysis.Analyzer.certify ft in
  let minor1, promoted1, major1 = Gc.counters () in
  if Result.is_error certified then failwith (Printf.sprintf "%s: the dfsssp table did not certify" name);
  let words = minor1 -. minor0 +. (major1 -. major0) -. (promoted1 -. promoted0) in
  let certify_ms, _ = Kit.time_best (fun () -> Analysis.Analyzer.certify ft) in
  {
    name;
    endpoints = Graph.num_terminals g;
    channels = Graph.num_channels g;
    build_ms;
    analyze_ms;
    certify_ms;
    certify_alloc_mb = words *. float_of_int (Sys.word_size / 8) /. 1048576.0;
    lb = ex.Analysis.Existence.min_layers_lb;
    layers = Routing.Ftable.num_layers ft;
    ratio = analyze_ms /. build_ms;
  }

let json_row r =
  let open Obs.Json in
  Obj
    [
      ("name", Str r.name);
      ("endpoints", Kit.json_int r.endpoints);
      ("channels", Kit.json_int r.channels);
      ("route_build_ms", Num r.build_ms);
      ("analyze_ms", Num r.analyze_ms);
      ("analyze_over_build", Num r.ratio);
      ("certify_ms", Num r.certify_ms);
      ("certify_alloc_mb", Num r.certify_alloc_mb);
      ("min_layers_lb", Kit.json_int r.lb);
      ("layers_achieved", Kit.json_int r.layers);
    ]

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
        "%-12s %5d endpoints | route build %8.2f ms | existence %6.3f ms (%.2f%%) | certify %8.2f \
         ms, %.1f MB | lb %d, achieved %d\n"
        r.name r.endpoints r.build_ms r.analyze_ms (100.0 *. r.ratio) r.certify_ms r.certify_alloc_mb
        r.lb r.layers)
    rows;
  (* witness path: generate a budget-infeasibility counterexample on a
     64-switch one-way ring and run the trusted re-check on it *)
  let ring = one_way_ring ~switches:64 in
  let analyze_ring_ms, ex = Kit.time_best (fun () -> Analysis.Existence.analyze ring) in
  let core = List.hd ex.Analysis.Existence.cores in
  let witness_ms, w =
    Kit.time_best (fun () ->
        match Analysis.Witness.of_core ring core with
        | Ok w -> w
        | Error msg -> failwith ("of_core: " ^ msg))
  in
  let recheck_ms, () =
    Kit.time_best (fun () ->
        match Analysis.Witness.check_graph w ring with
        | Ok () -> ()
        | Error msg -> failwith ("check_graph: " ^ msg))
  in
  Printf.printf
    "one-way-ring-64: analyze %.3f ms (lb %d) | witness build %.3f ms | trusted re-check %.3f ms\n"
    analyze_ring_ms ex.Analysis.Existence.min_layers_lb witness_ms recheck_ms;
  let big = List.hd rows in
  let gates =
    [
      Kit.gate "ratio"
        ~target:(Printf.sprintf "existence analysis <= 10%% of the dfsssp route build on %s" big.name)
        (big.ratio <= 0.10);
    ]
  in
  Kit.write_json ~benchmark:"analysis"
    Obs.Json.
      [
        ("topologies", List (List.map json_row rows));
        ( "witness",
          Obj
            [
              ("fabric", Str "one-way-ring-64");
              ("analyze_ms", Num analyze_ring_ms);
              ("min_layers_lb", Kit.json_int ex.Analysis.Existence.min_layers_lb);
              ("build_ms", Num witness_ms);
              ("recheck_ms", Num recheck_ms);
            ] );
      ]
    gates;
  Kit.finish gates
