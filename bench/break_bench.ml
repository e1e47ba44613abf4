(* Benchmark gate for the cycle-break engine (DESIGN.md section 17):
   the shipped SCC-condensation engine vs the one-cycle-at-a-time DFS
   oracle ({!Oracles.Dfs_ref}), sequentially and across domains, with
   the per-stage condense/evict/rebuild split read from the always-on
   [layers.*] timers (the oracle's own [dfs_ref.*] timers for the DFS
   runs). Destinations are sampled at an even stride across the
   terminal range — contiguous blocks on a big torus produce acyclic
   CDGs, which would make break time a measure of nothing.

   Writes bench_results/cycle_break.json. Gates:

   - [scc_2x]: SCC engine >= 2x the DFS oracle on break time for
     torus-16x16 and torus-64x64;
   - [layers_within_1]: layers_used within +1 of the oracle on every
     workload;
   - [par_not_slower]: parallel SCC planning >= 0.9x sequential
     everywhere (a 10% noise allowance); skipped below 2 hardware
     domains, where both runs are the same sequential code.

   [--quick] runs a seconds-long single-workload engine-parity smoke
   instead (wired into `make check`): the engine and the oracle must
   agree on layers within +1; nothing is written. *)

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

(* Each engine races for at least this long on every workload (at
   least 3 rounds): xgft-1024 breaks in ~10 ms, and a best-of-3 on a
   10 ms run cannot resolve par_not_slower's 10% band. *)
let race_floor_ms = 1500.0

(* The engine under test and the timer prefix its stages fire. *)
type engine =
  | Dfs
  | Scc of int (* domains *)

let stage_prefix = function Dfs -> "dfs_ref" | Scc _ -> "layers"

(* One assignment, with its condense/evict/rebuild split read from the
   engine's stage timers. *)
let staged (engine, f) () =
  let stage name = 1000.0 *. Kit.timer_sum (stage_prefix engine ^ "." ^ name) in
  let c0 = stage "condense" and e0 = stage "evict" and r0 = stage "rebuild" in
  let outcome = f () in
  let stages =
    { condense_ms = stage "condense" -. c0; evict_ms = stage "evict" -. e0; rebuild_ms = stage "rebuild" -. r0 }
  in
  (stages, outcome)

(* The engines race in interleaved rounds (Kit.time_race_floor) until
   each engine's rounds add up to [race_floor_ms]; the stage split comes
   from each engine's winning round. *)
let race_runs fs =
  let best, rounds = Kit.time_race_floor ~min_rounds:3 ~floor_ms:race_floor_ms (Array.map staged fs) in
  ( Array.map
      (fun (wall_ms, (stages, outcome)) ->
        { wall_ms; stages; layers = outcome.Layers.layers_used; broken = outcome.Layers.cycles_broken })
      best,
    rounds )

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
  let dsts = Kit.strided_dsts g num_dsts in
  let weights = Sssp.initial_weights g in
  let ft = Ftable.create g ~algorithm:"bench" in
  (match Sssp.route_destinations ~batch:Sssp.recommended_batch g ~weights ~ft ~dsts with
  | Ok () -> ()
  | Error msg -> failwith (Printf.sprintf "%s: routing failed: %s" name msg));
  let store = Kit.pair_store ~name ft ~dsts in
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
  rounds : int; (* race rounds run to reach race_floor_ms *)
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
let measure ~domains build =
  let w = build () in
  Printf.eprintf "measuring %s (%d pairs, %d CDG edges)...\n%!" w.name w.pairs w.cdg_edges;
  let runs, rounds = race_runs (Array.map (fun e -> (e, assign w e)) [| Dfs; Scc 1; Scc domains |]) in
  { w; rounds; dfs = runs.(0); scc_seq = runs.(1); scc_par = runs.(2) }

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
      ("layers_used", Kit.json_int r.layers);
      ("cycles_broken", Kit.json_int r.broken);
    ]

let json_row r =
  let open Obs.Json in
  Obj
    [
      ("name", Str r.w.name);
      ("pairs", Kit.json_int r.w.pairs);
      ("cdg_edges", Kit.json_int r.w.cdg_edges);
      ("rounds", Kit.json_int r.rounds);
      ("dfs", json_run r.dfs);
      ("scc_sequential", json_run r.scc_seq);
      ("scc_parallel", json_run r.scc_par);
      ("scc_vs_dfs", Num (scc_vs_dfs r));
      ("par_vs_seq", Num (par_vs_seq r));
      ("layers_delta", Kit.json_int (r.scc_seq.layers - r.dfs.layers));
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
  Printf.printf "break smoke %-10s dfs %d layer(s) / %d broken, scc %d layer(s) / %d evicted\n" w.name
    dfs.Layers.layers_used dfs.Layers.cycles_broken scc.Layers.layers_used scc.Layers.cycles_broken;
  Kit.finish
    [
      Kit.gate "layers_within_1" ~target:"scc layers_used <= dfs + 1 on torus-8x8"
        (scc.Layers.layers_used <= dfs.Layers.layers_used + 1);
    ]

let () =
  if Array.exists (( = ) "--quick") Sys.argv then run_quick ();
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
  let rows = List.map (measure ~domains) workloads in
  List.iter
    (fun r ->
      Printf.printf
        "%-12s %7d pairs %3d rounds | dfs %8.2f ms (%d layers, %d broken) | scc %8.2f ms (%d \
         layers, %d evicted) %.2fx | par %8.2f ms %.2fx\n"
        r.w.name r.w.pairs r.rounds r.dfs.wall_ms r.dfs.layers r.dfs.broken r.scc_seq.wall_ms
        r.scc_seq.layers r.scc_seq.broken (scc_vs_dfs r) r.scc_par.wall_ms (par_vs_seq r);
      Printf.printf "             stages dfs c/e/r %.1f/%.1f/%.1f | scc %.1f/%.1f/%.1f\n"
        r.dfs.stages.condense_ms r.dfs.stages.evict_ms r.dfs.stages.rebuild_ms
        r.scc_seq.stages.condense_ms r.scc_seq.stages.evict_ms r.scc_seq.stages.rebuild_ms)
    rows;
  let gates =
    [
      Kit.gate "scc_2x" ~target:"scc >= 2x dfs break time on the torus workloads"
        (List.for_all (fun r -> (not r.w.gated_2x) || scc_vs_dfs r >= 2.0) rows);
      Kit.gate "layers_within_1" ~target:"scc layers_used <= dfs + 1 on every workload"
        (List.for_all (fun r -> r.scc_seq.layers <= r.dfs.layers + 1) rows);
      Kit.parallel_gate "par_not_slower" ~target:"parallel scc >= 0.9x sequential on every workload"
        ~available ~min:2
        (List.for_all (fun r -> par_vs_seq r >= 0.9) rows);
    ]
  in
  Kit.write_json ~benchmark:"cycle_break"
    [
      ("domains_available", Kit.json_int available);
      ("domains_used", Kit.json_int domains);
      ("race_floor_ms", Obs.Json.Num race_floor_ms);
      ("workloads", Obs.Json.List (List.map json_row rows));
    ]
    gates;
  Kit.finish gates
