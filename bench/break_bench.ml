(* Benchmark gate for the cycle-break engine (DESIGN.md section 17):
   the shipped SCC-condensation engine vs the one-cycle-at-a-time DFS
   oracle ({!Oracles.Dfs_ref}), sequentially and across domains, with
   the per-stage condense/evict/rebuild split read from the always-on
   [layers.*] timers (the oracle's own [dfs_ref.*] timers for the DFS
   runs). Destinations are sampled at an even stride across the
   terminal range — contiguous blocks on a big torus produce acyclic
   CDGs, which would make break time a measure of nothing.

   Writes bench_results/cycle_break.json. Gates:

   - SCC engine >= 2x the DFS oracle on break time for torus-16x16 and
     torus-64x64;
   - layers_used within +1 of the oracle on every workload;
   - parallel SCC planning >= 0.9x sequential everywhere (a 10% noise
     allowance; with one hardware domain both run the same code path,
     so this is a same-vs-same tripwire there).

   [--quick] runs a seconds-long single-workload engine-parity smoke
   instead (wired into `make check`): the engine and the oracle must
   agree on layers within +1; nothing is written. [--probe] repeats
   the SCC assignment on one workload printing wall time and GC deltas
   per round — a diagnostic for heap-regime swings, no gates. *)

let timer_sum name =
  match Obs.Registry.find_timer (Obs.Registry.default ()) name with
  | Some t -> Obs.Timer.sum_s t
  | None -> 0.0

type stages = {
  condense_ms : float;
  evict_ms : float;
  rebuild_ms : float;
}

type run = {
  wall_ms : float;
  stages : stages;
  layers : int;
  broken : int;
}

(* The engine under test and the timer prefix its stages fire. *)
type engine =
  | Dfs
  | Scc of int (* domains *)

let stage_prefix = function Dfs -> "dfs_ref" | Scc _ -> "layers"

let single_run (engine, f) =
  let stage name = timer_sum (stage_prefix engine ^ "." ^ name) in
  let c0 = stage "condense" in
  let e0 = stage "evict" in
  let r0 = stage "rebuild" in
  let t0 = Unix.gettimeofday () in
  let outcome = f () in
  let wall_ms = 1000.0 *. (Unix.gettimeofday () -. t0) in
  {
    wall_ms;
    stages =
      {
        condense_ms = 1000.0 *. (stage "condense" -. c0);
        evict_ms = 1000.0 *. (stage "evict" -. e0);
        rebuild_ms = 1000.0 *. (stage "rebuild" -. r0);
      };
    layers = outcome.Layers.layers_used;
    broken = outcome.Layers.cycles_broken;
  }

(* Interleaved best-of-N (the routing_bench time_race discipline): the
   variants being compared alternate within each round, so all of them
   sample the same heap and GC phase instead of one variant inheriting
   the allocation debt of another. The stage split comes from each
   variant's winning round. *)
let race_runs ~rounds fs =
  let best = Array.make (Array.length fs) None in
  for _ = 1 to rounds do
    Gc.compact ();
    Array.iteri
      (fun i f ->
        let r = single_run f in
        if match best.(i) with None -> true | Some b -> r.wall_ms < b.wall_ms then
          best.(i) <- Some r)
      fs
  done;
  Array.map Option.get best

type workload = {
  name : string;
  gated_2x : bool; (* the torus workloads carry the >= 2x gate *)
  store : Route_store.t;
  pairs : int;
  cdg_edges : int;
}

(* Route every terminal toward [num_dsts] destinations sampled at an
   even stride, then extract all pairs into a store. *)
let build_workload name g ~num_dsts ~gated_2x =
  Printf.eprintf "building %s...\n%!" name;
  let terminals = Graph.terminals g in
  let nt = Array.length terminals in
  let num_dsts = min num_dsts nt in
  let dsts = Array.init num_dsts (fun i -> terminals.(i * nt / num_dsts)) in
  let weights = Sssp.initial_weights g in
  let ft = Ftable.create g ~algorithm:"bench" in
  (match Sssp.route_destinations ~batch:Sssp.recommended_batch g ~weights ~ft ~dsts with
  | Ok () -> ()
  | Error msg -> failwith (Printf.sprintf "%s: routing failed: %s" name msg));
  let store = Route_store.create g ~capacity:(nt * num_dsts) in
  Array.iteri
    (fun si src ->
      Array.iteri
        (fun j dst ->
          if src <> dst then
            match Ftable.path ft ~src ~dst with
            | Some p -> Route_store.set_path store ~pair:((si * num_dsts) + j) p
            | None -> failwith (Printf.sprintf "%s: no route %d -> %d" name src dst))
        dsts)
    terminals;
  let cdg_edges = Cdg.num_edges (Cdg.of_store store) in
  { name; gated_2x; store; pairs = Route_store.num_paths store; cdg_edges }

let assign w engine () =
  let max_layers = 64 and heuristic = Heuristic.Weakest in
  match
    match engine with
    | Dfs -> Oracles.Dfs_ref.assign_store w.store ~max_layers ~heuristic
    | Scc domains -> Layers.assign_store ~domains w.store ~max_layers ~heuristic
  with
  | Ok o -> o
  | Error msg -> failwith (Printf.sprintf "%s: cycle breaking failed: %s" w.name msg)

type row = {
  w : workload;
  dfs : run;
  scc_seq : run;
  scc_par : run;
}

let scc_vs_dfs r = r.dfs.wall_ms /. r.scc_seq.wall_ms

let par_vs_seq r = r.scc_seq.wall_ms /. r.scc_par.wall_ms

(* [build] runs here so each workload's store is dead before the next
   one allocates: keeping every store alive at once puts the major heap
   in a regime where the CDG builds pay seconds of GC instead of
   milliseconds. *)
let measure ~domains ~rounds build =
  let w = build () in
  Printf.eprintf "measuring %s (%d pairs, %d CDG edges)...\n%!" w.name w.pairs w.cdg_edges;
  let runs =
    race_runs ~rounds
      (Array.map (fun e -> (e, assign w e)) [| Dfs; Scc 1; Scc domains |])
  in
  { w; dfs = runs.(0); scc_seq = runs.(1); scc_par = runs.(2) }

let json_run r =
  let open Obs.Json in
  Obj
    [
      ("break_ms", Num r.wall_ms);
      ( "stage_ms",
        Obj
          [
            ("condense", Num r.stages.condense_ms);
            ("evict", Num r.stages.evict_ms);
            ("rebuild", Num r.stages.rebuild_ms);
          ] );
      ("layers_used", Num (float_of_int r.layers));
      ("cycles_broken", Num (float_of_int r.broken));
    ]

let json_row r =
  let open Obs.Json in
  Obj
    [
      ("name", Str r.w.name);
      ("pairs", Num (float_of_int r.w.pairs));
      ("cdg_edges", Num (float_of_int r.w.cdg_edges));
      ("dfs", json_run r.dfs);
      ("scc_sequential", json_run r.scc_seq);
      ("scc_parallel", json_run r.scc_par);
      ("scc_vs_dfs", Num (scc_vs_dfs r));
      ("par_vs_seq", Num (par_vs_seq r));
      ("layers_delta", Num (float_of_int (r.scc_seq.layers - r.dfs.layers)));
    ]

let run_quick () =
  (* Engine-parity smoke for `make check`: small fabric, one round. *)
  let w =
    build_workload "torus-8x8"
      (fst (Topo_torus.torus ~dims:[| 8; 8 |] ~terminals_per_switch:2))
      ~num_dsts:64 ~gated_2x:false
  in
  let dfs = assign w Dfs () in
  let scc = assign w (Scc 1) () in
  let ok = scc.Layers.layers_used <= dfs.Layers.layers_used + 1 in
  Printf.printf "break smoke %-10s dfs %d layer(s) / %d broken, scc %d layer(s) / %d evicted: %s\n"
    w.name dfs.Layers.layers_used dfs.Layers.cycles_broken scc.Layers.layers_used
    scc.Layers.cycles_broken
    (if ok then "ok" else "MISMATCH");
  if not ok then begin
    Printf.printf "break engine smoke: FAIL\n";
    exit 1
  end;
  Printf.printf "break engine smoke: PASS\n"

let run_probe () =
  let w =
    build_workload "torus-16x16"
      (fst (Topo_torus.torus ~dims:[| 16; 16 |] ~terminals_per_switch:4))
      ~num_dsts:128 ~gated_2x:true
  in
  for i = 1 to 12 do
    let s = Gc.quick_stat () in
    let t0 = Unix.gettimeofday () in
    let o = assign w (Scc 1) () in
    let ms = 1000.0 *. (Unix.gettimeofday () -. t0) in
    let s' = Gc.quick_stat () in
    Printf.printf "round %2d: %8.2f ms (%d layers) minor+%d major+%d heap %.1fMB\n%!" i ms
      o.Layers.layers_used
      (s'.Gc.minor_collections - s.Gc.minor_collections)
      (s'.Gc.major_collections - s.Gc.major_collections)
      (float_of_int s'.Gc.heap_words *. 8e-6)
  done

let () =
  if Array.exists (( = ) "--probe") Sys.argv then begin
    run_probe ();
    exit 0
  end;
  if Array.exists (( = ) "--quick") Sys.argv then begin
    run_quick ();
    exit 0
  end;
  let available = Domain.recommended_domain_count () in
  let domains = max 1 (min available 4) in
  let workloads =
    [
      (fun () ->
        build_workload "torus-16x16"
          (fst (Topo_torus.torus ~dims:[| 16; 16 |] ~terminals_per_switch:4))
          ~num_dsts:128 ~gated_2x:true);
      (fun () ->
        build_workload "xgft-1024"
          (Topo_xgft.make ~ms:[| 16; 64 |] ~ws:[| 1; 16 |] ~endpoints:1024)
          ~num_dsts:64 ~gated_2x:false);
      (fun () ->
        build_workload "torus-64x64"
          (fst (Topo_torus.torus ~dims:[| 64; 64 |] ~terminals_per_switch:2))
          ~num_dsts:32 ~gated_2x:true);
    ]
  in
  let rows = List.map (measure ~domains ~rounds:3) workloads in
  List.iter
    (fun r ->
      Printf.printf
        "%-12s %7d pairs | dfs %8.2f ms (%d layers, %d broken) | scc %8.2f ms (%d layers, %d \
         evicted) %.2fx | par %8.2f ms %.2fx\n"
        r.w.name r.w.pairs r.dfs.wall_ms r.dfs.layers r.dfs.broken r.scc_seq.wall_ms
        r.scc_seq.layers r.scc_seq.broken (scc_vs_dfs r) r.scc_par.wall_ms (par_vs_seq r);
      Printf.printf "             stages dfs c/e/r %.1f/%.1f/%.1f | scc %.1f/%.1f/%.1f\n"
        r.dfs.stages.condense_ms r.dfs.stages.evict_ms r.dfs.stages.rebuild_ms
        r.scc_seq.stages.condense_ms r.scc_seq.stages.evict_ms r.scc_seq.stages.rebuild_ms)
    rows;
  (* ---- gates ---- *)
  let speed_ok = List.for_all (fun r -> (not r.w.gated_2x) || scc_vs_dfs r >= 2.0) rows in
  let layers_ok = List.for_all (fun r -> r.scc_seq.layers <= r.dfs.layers + 1) rows in
  let par_ok = List.for_all (fun r -> par_vs_seq r >= 0.9) rows in
  let status ok = if ok then "pass" else "fail" in
  let doc =
    let open Obs.Json in
    Obj
      [
        ("benchmark", Str "cycle_break");
        ("domains_available", Num (float_of_int available));
        ("domains_used", Num (float_of_int domains));
        ("workloads", List (List.map json_row rows));
        ( "gates",
          Obj
            [
              ( "scc_2x",
                Obj
                  [
                    ("target", Str "scc >= 2x dfs break time on the torus workloads");
                    ("status", Str (status speed_ok));
                  ] );
              ( "layers_within_1",
                Obj
                  [
                    ("target", Str "scc layers_used <= dfs + 1 on every workload");
                    ("status", Str (status layers_ok));
                  ] );
              ( "par_not_slower",
                Obj
                  [
                    ("target", Str "parallel scc >= 0.9x sequential on every workload");
                    ("status", Str (status par_ok));
                  ] );
            ] );
      ]
  in
  (try
     if not (Sys.file_exists "bench_results") then Unix.mkdir "bench_results" 0o755;
     Out_channel.with_open_text "bench_results/cycle_break.json" (fun oc ->
         Out_channel.output_string oc (Obs.Json.to_string doc);
         Out_channel.output_char oc '\n')
   with Unix.Unix_error _ | Sys_error _ -> prerr_endline "warning: could not write bench_results");
  Printf.printf "scc speed gate (>= 2x dfs on tori): %s\n" (String.uppercase_ascii (status speed_ok));
  Printf.printf "layers gate (scc <= dfs + 1 everywhere): %s\n"
    (String.uppercase_ascii (status layers_ok));
  Printf.printf "parallel gate (>= 0.9x sequential): %s\n" (String.uppercase_ascii (status par_ok));
  if not (speed_ok && layers_ok && par_ok) then exit 1
