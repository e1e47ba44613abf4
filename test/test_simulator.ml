(* Tests for the simulator library: traffic patterns, the ORCS-style
   congestion model and the discrete-event packet simulator, in its
   message-level and packet-time configurations. *)

let check = Alcotest.check

let feq = Alcotest.float 1e-9

(* ------------------------------------------------------------------ *)
(* Metrics: Obs.Stat, the summary type the simulators report            *)
(* ------------------------------------------------------------------ *)

let test_metrics_summary () =
  let s = Obs.Stat.summarize [| 1.0; 2.0; 3.0; 4.0 |] in
  check Alcotest.int "n" 4 s.Obs.Stat.n;
  check feq "min" 1.0 s.Obs.Stat.min;
  check feq "max" 4.0 s.Obs.Stat.max;
  check feq "mean" 2.5 s.Obs.Stat.mean;
  check feq "median" 2.0 s.Obs.Stat.median;
  check (Alcotest.float 1e-6) "stddev" (sqrt 1.25) s.Obs.Stat.stddev

let test_metrics_percentile () =
  let xs = [| 5.0; 1.0; 3.0; 2.0; 4.0 |] in
  check feq "p0.2" 1.0 (Obs.Stat.percentile 0.2 xs);
  check feq "p1" 5.0 (Obs.Stat.percentile 1.0 xs);
  check feq "p0" 1.0 (Obs.Stat.percentile 0.0 xs)

let test_metrics_errors () =
  Alcotest.check_raises "empty" (Invalid_argument "Obs.Stat.summarize: empty sample") (fun () ->
      ignore (Obs.Stat.summarize [||]));
  Alcotest.check_raises "bad p" (Invalid_argument "Obs.Stat.percentile: p out of range") (fun () ->
      ignore (Obs.Stat.percentile 1.5 [| 1.0 |]))

(* ------------------------------------------------------------------ *)
(* Patterns                                                             *)
(* ------------------------------------------------------------------ *)

let ranks n = Array.init n (fun i -> 100 + i)

let test_bisection () =
  let rng = Rng.create 1 in
  let flows = Simulator.Patterns.random_bisection rng (ranks 10) in
  check Alcotest.int "five flows" 5 (Array.length flows);
  let seen = Hashtbl.create 16 in
  Array.iter
    (fun (a, b) ->
      Alcotest.(check bool) "no self flow" true (a <> b);
      Alcotest.(check bool) "src unique" false (Hashtbl.mem seen a);
      Alcotest.(check bool) "dst unique" false (Hashtbl.mem seen b);
      Hashtbl.replace seen a ();
      Hashtbl.replace seen b ())
    flows;
  check Alcotest.int "perfect matching covers all" 10 (Hashtbl.length seen)

let test_bisection_odd () =
  let rng = Rng.create 2 in
  let flows = Simulator.Patterns.random_bisection rng (ranks 7) in
  check Alcotest.int "three flows" 3 (Array.length flows)

let test_all_to_all () =
  let flows = Simulator.Patterns.all_to_all (ranks 5) in
  check Alcotest.int "n(n-1)" 20 (Array.length flows);
  let distinct = List.sort_uniq compare (Array.to_list flows) in
  check Alcotest.int "all distinct" 20 (List.length distinct)

let test_ring_shift () =
  let flows = Simulator.Patterns.ring_shift ~by:2 (ranks 5) in
  check Alcotest.int "n flows" 5 (Array.length flows);
  check Alcotest.(pair int int) "first" (100, 102) flows.(0);
  check Alcotest.(pair int int) "wraps" (104, 101) flows.(4);
  check Alcotest.int "zero shift empty" 0 (Array.length (Simulator.Patterns.ring_shift ~by:5 (ranks 5)));
  check Alcotest.int "negative shift" 5 (Array.length (Simulator.Patterns.ring_shift ~by:(-1) (ranks 5)))

let test_uniform_random () =
  let rng = Rng.create 3 in
  let flows = Testutil.uniform_random rng ~flows:50 (ranks 6) in
  check Alcotest.int "requested count" 50 (Array.length flows);
  Array.iter (fun (a, b) -> Alcotest.(check bool) "no self" true (a <> b)) flows

let test_nas_bt () =
  (match Simulator.Patterns.nas_bt (ranks 10) with
  | Error msg -> Alcotest.(check bool) "rejects non-square" true (Testutil.contains msg "square")
  | Ok _ -> Alcotest.fail "10 ranks should be rejected");
  match Simulator.Patterns.nas_bt (ranks 16) with
  | Error e -> Alcotest.fail e
  | Ok flows ->
    (* 4x4 torus halo: every rank has 4 distinct neighbours *)
    check Alcotest.int "16*4 flows" 64 (Array.length flows);
    Array.iter (fun (a, b) -> Alcotest.(check bool) "no self" true (a <> b)) flows

let test_nas_bt_small_grid_dedup () =
  (* 2x2 torus: +1 and -1 neighbours coincide; dedup keeps 2 per rank *)
  match Simulator.Patterns.nas_bt (ranks 4) with
  | Error e -> Alcotest.fail e
  | Ok flows -> check Alcotest.int "deduplicated" 8 (Array.length flows)

let test_nas_ft_is_all_to_all () =
  match Simulator.Patterns.nas_ft (ranks 6) with
  | Error e -> Alcotest.fail e
  | Ok flows -> check Alcotest.int "all-to-all" 30 (Array.length flows)

let test_nas_power_of_two_kernels () =
  List.iter
    (fun (name, pat) ->
      (match pat (ranks 24) with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "%s should reject 24 ranks" name);
      match pat (ranks 16) with
      | Error e -> Alcotest.fail e
      | Ok flows ->
        Alcotest.(check bool) (name ^ " nonempty") true (Array.length flows > 0);
        Array.iter (fun (a, b) -> Alcotest.(check bool) "no self" true (a <> b)) flows)
    [ ("CG", Simulator.Patterns.nas_cg); ("MG", Simulator.Patterns.nas_mg) ]

let test_nas_lu () =
  match Simulator.Patterns.nas_lu (ranks 12) with
  | Error e -> Alcotest.fail e
  | Ok flows ->
    (* 2-D mesh NSEW without wrap: interior ranks have 4, corners 2 *)
    Alcotest.(check bool) "nonempty" true (Array.length flows > 0);
    let outdeg = Hashtbl.create 12 in
    Array.iter
      (fun (a, _) -> Hashtbl.replace outdeg a (1 + Option.value ~default:0 (Hashtbl.find_opt outdeg a)))
      flows;
    Hashtbl.iter
      (fun _ d -> Alcotest.(check bool) "degree 2..4" true (d >= 2 && d <= 4))
      outdeg

let test_adversarial_patterns () =
  let pattern name = List.assoc name Simulator.Patterns.adversarial in
  (* permutations: every rank appears exactly once as src and once as dst,
     fixed points dropped *)
  let check_perm name flows n =
    let srcs = Hashtbl.create 16 and dsts = Hashtbl.create 16 in
    Array.iter
      (fun (a, b) ->
        Alcotest.(check bool) (name ^ " no self") true (a <> b);
        Alcotest.(check bool) (name ^ " src once") false (Hashtbl.mem srcs a);
        Alcotest.(check bool) (name ^ " dst once") false (Hashtbl.mem dsts b);
        Hashtbl.replace srcs a ();
        Hashtbl.replace dsts b ())
      flows;
    Alcotest.(check bool) (name ^ " size") true (Array.length flows <= n)
  in
  List.iter
    (fun (name, pattern) ->
      match pattern (ranks 16) with
      | Error e -> Alcotest.fail e
      | Ok flows -> check_perm name flows 16)
    Simulator.Patterns.adversarial;
  (* specific images *)
  (match pattern "bit-complement" (ranks 8) with
  | Ok flows -> Alcotest.(check bool) "0 -> 7" true (Array.exists (fun f -> f = (100, 107)) flows)
  | Error e -> Alcotest.fail e);
  (match pattern "bit-reverse" (ranks 8) with
  | Ok flows -> Alcotest.(check bool) "1 -> 4" true (Array.exists (fun f -> f = (101, 104)) flows)
  | Error e -> Alcotest.fail e);
  (match pattern "transpose" (ranks 9) with
  | Ok flows -> Alcotest.(check bool) "1 -> 3" true (Array.exists (fun f -> f = (101, 103)) flows)
  | Error e -> Alcotest.fail e);
  (match Simulator.Patterns.tornado (ranks 6) with
  | Ok flows -> Alcotest.(check bool) "0 -> 2" true (Array.exists (fun f -> f = (100, 102)) flows)
  | Error e -> Alcotest.fail e);
  (* constraint rejections *)
  Alcotest.(check bool) "bit_complement non-pow2" true (Result.is_error (pattern "bit-complement" (ranks 12)));
  Alcotest.(check bool) "transpose non-square" true (Result.is_error (pattern "transpose" (ranks 12)));
  Alcotest.(check bool) "tornado tiny" true (Result.is_error (Simulator.Patterns.tornado (ranks 2)))

let test_nas_kernel_list () =
  check Alcotest.int "six kernels" 6 (List.length Simulator.Patterns.nas_kernels)

(* ------------------------------------------------------------------ *)
(* Congestion                                                           *)
(* ------------------------------------------------------------------ *)

let star_fixture () =
  (* one switch, four terminals: every route's bottleneck is an endpoint
     link, so any perfect matching has share 1.0 *)
  let g = (Testutil.cluster ~scale:32 "odin").Clusters.graph in
  ignore g;
  let b = Builder.create () in
  let s = Builder.add_switch b ~name:"s" in
  let ts = Array.init 4 (fun i -> Builder.add_terminal b ~name:(Printf.sprintf "t%d" i) ~switch:s) in
  (Builder.build b, ts)

let test_congestion_star () =
  let g, ts = star_fixture () in
  let ft = Result.get_ok (Routing.Minhop.route g) in
  let flows = [| (ts.(0), ts.(1)); (ts.(2), ts.(3)) |] in
  let r = Simulator.Congestion.evaluate ft ~flows in
  check Alcotest.int "flows" 2 r.Simulator.Congestion.flows;
  check Alcotest.int "max congestion" 1 r.Simulator.Congestion.max_congestion;
  check feq "mean share" 1.0 r.Simulator.Congestion.mean_share;
  check feq "completion" 1.0 r.Simulator.Congestion.completion

let test_congestion_contended () =
  let g, ts = star_fixture () in
  let ft = Result.get_ok (Routing.Minhop.route g) in
  (* two flows into the same destination share its ejection link *)
  let flows = [| (ts.(0), ts.(3)); (ts.(1), ts.(3)) |] in
  let r = Simulator.Congestion.evaluate ft ~flows in
  check Alcotest.int "max congestion" 2 r.Simulator.Congestion.max_congestion;
  check feq "mean share" 0.5 r.Simulator.Congestion.mean_share;
  check feq "min share" 0.5 r.Simulator.Congestion.min_share;
  check feq "completion" 2.0 r.Simulator.Congestion.completion

let test_congestion_ignores_self () =
  let g, ts = star_fixture () in
  let ft = Result.get_ok (Routing.Minhop.route g) in
  let r = Simulator.Congestion.evaluate ft ~flows:[| (ts.(0), ts.(0)) |] in
  check Alcotest.int "no flows" 0 r.Simulator.Congestion.flows;
  check feq "trivial completion" 0.0 r.Simulator.Congestion.completion

let test_congestion_load_counts () =
  let g = Topo_ring.make ~switches:4 ~terminals_per_switch:1 in
  let ft = Result.get_ok (Routing.Sssp.route g) in
  let ts = Graph.terminals g in
  let flows = [| (ts.(0), ts.(1)) |] in
  let r = Simulator.Congestion.evaluate ft ~flows in
  (* one flow: every channel on its path has load exactly 1, others 0 *)
  let total = Array.fold_left ( + ) 0 r.Simulator.Congestion.channel_load in
  (match Routing.Ftable.path ft ~src:ts.(0) ~dst:ts.(1) with
  | Some p -> check Alcotest.int "load total = path length" (Array.length p) total
  | None -> Alcotest.fail "no path")

let test_ebb_star_is_full () =
  let g, _ = star_fixture () in
  let ft = Result.get_ok (Routing.Minhop.route g) in
  let rng = Rng.create 7 in
  let ebb = Simulator.Congestion.effective_bisection_bandwidth ~patterns:20 ~rng ft in
  check feq "single switch eBB" 1.0 ebb.Simulator.Congestion.samples.Obs.Stat.mean;
  check feq "worst pair" 1.0 ebb.Simulator.Congestion.worst_pair

let test_ebb_deterministic_given_seed () =
  let g = (Clusters.deimos ~scale:8 ()).Clusters.graph in
  let ft = Result.get_ok (Routing.Sssp.route g) in
  let run () =
    let rng = Rng.create 11 in
    (Simulator.Congestion.effective_bisection_bandwidth ~patterns:10 ~rng ft).Simulator.Congestion.samples
      .Obs.Stat.mean
  in
  check feq "reproducible" (run ()) (run ())

let test_hotspots_and_histogram () =
  let g, ts = star_fixture () in
  let ft = Result.get_ok (Routing.Minhop.route g) in
  let flows = [| (ts.(0), ts.(3)); (ts.(1), ts.(3)) |] in
  let hot = Simulator.Congestion.hotspots ~top:3 ft ~flows in
  check Alcotest.int "three entries" 3 (List.length hot);
  (match hot with
  | first :: _ ->
    check Alcotest.int "hottest load" 2 first.Simulator.Congestion.load;
    (* the hottest channel is the shared ejection link s -> t3 *)
    check Alcotest.string "hot src" "s" first.Simulator.Congestion.src_name;
    check Alcotest.string "hot dst" "t3" first.Simulator.Congestion.dst_name
  | [] -> Alcotest.fail "no hotspots");
  let r = Simulator.Congestion.evaluate ft ~flows in
  let hist = Simulator.Congestion.load_histogram r in
  (* flows cross 2 injection channels (load 1 each), 1 ejection (load 2);
     remaining 5 of 8 channels idle *)
  check Alcotest.(list (pair int int)) "histogram" [ (0, 5); (1, 2); (2, 1) ] hist

let test_ebb_domains_invariant () =
  let g = (Clusters.deimos ~scale:8 ()).Clusters.graph in
  let ft = Result.get_ok (Routing.Sssp.route g) in
  let run domains =
    let rng = Rng.create 11 in
    (Simulator.Congestion.effective_bisection_bandwidth ~patterns:12 ~domains ~rng ft)
      .Simulator.Congestion.samples
      .Obs.Stat.mean
  in
  check (Alcotest.float 1e-12) "4 domains = sequential" (run 1) (run 4)

let test_completion_time_scales () =
  let g, ts = star_fixture () in
  let ft = Result.get_ok (Routing.Minhop.route g) in
  let flows = [| (ts.(0), ts.(3)); (ts.(1), ts.(3)) |] in
  let t1 = Simulator.Congestion.completion_time ft ~flows ~bytes:1e6 ~bandwidth:1e9 in
  let t2 = Simulator.Congestion.completion_time ft ~flows ~bytes:2e6 ~bandwidth:1e9 in
  check feq "linear in bytes" (2.0 *. t1) t2;
  check feq "value" 0.002 t1;
  Alcotest.check_raises "bad bandwidth" (Invalid_argument "Congestion.completion_time") (fun () ->
      ignore (Simulator.Congestion.completion_time ft ~flows ~bytes:1.0 ~bandwidth:0.0))

(* ------------------------------------------------------------------ *)
(* Collective                                                           *)
(* ------------------------------------------------------------------ *)

let test_collective_schedules () =
  let rk = ranks 8 in
  let a2a = Simulator.Collective.all_to_all_pairwise rk in
  check Alcotest.int "a2a rounds" 7 (List.length a2a.Simulator.Collective.rounds);
  (* union of rounds = all ordered pairs exactly once *)
  let seen = Hashtbl.create 64 in
  List.iter
    (fun round ->
      Array.iter
        (fun (a, b) ->
          Alcotest.(check bool) "pair unseen" false (Hashtbl.mem seen (a, b));
          Hashtbl.replace seen (a, b) ())
        round)
    a2a.Simulator.Collective.rounds;
  check Alcotest.int "covers all pairs" (8 * 7) (Hashtbl.length seen);
  (match Simulator.Collective.allreduce_recursive_doubling rk with
  | Ok rd ->
    check Alcotest.int "log2 rounds" 3 (List.length rd.Simulator.Collective.rounds);
    List.iter
      (fun round -> check Alcotest.int "full participation" 8 (Array.length round))
      rd.Simulator.Collective.rounds
  | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "rd rejects non-pow2" true
    (Result.is_error (Simulator.Collective.allreduce_recursive_doubling (ranks 6)));
  let ring = Simulator.Collective.allreduce_ring rk in
  check Alcotest.int "ring rounds" 14 (List.length ring.Simulator.Collective.rounds);
  check (Alcotest.float 1e-9) "ring chunk" (1024.0 /. 8.0)
    (ring.Simulator.Collective.bytes_per_round 0 1024.0)

let test_collective_completion () =
  let g = Topo_ring.make ~switches:4 ~terminals_per_switch:1 in
  let ft = Result.get_ok (Result.map_error Dfsssp.error_to_string (Dfsssp.route g)) in
  let rk = Graph.terminals g in
  let sched = Simulator.Collective.all_to_all_pairwise rk in
  let t1 = Simulator.Collective.completion_time ft sched ~message_bytes:1e6 ~bandwidth:1e9 in
  let t2 = Simulator.Collective.completion_time ft sched ~message_bytes:2e6 ~bandwidth:1e9 in
  Alcotest.(check bool) "positive" true (t1 > 0.0);
  check (Alcotest.float 1e-12) "linear in bytes" (2.0 *. t1) t2;
  (* phased time is at least the flat all-to-all time (barriers only add) *)
  let flat =
    Simulator.Congestion.completion_time ft ~flows:(Simulator.Patterns.all_to_all rk) ~bytes:1e6
      ~bandwidth:1e9
  in
  Alcotest.(check bool) "phased >= flat" true (t1 >= flat -. 1e-12);
  Alcotest.check_raises "bad bandwidth" (Invalid_argument "Collective.completion_time") (fun () ->
      ignore (Simulator.Collective.completion_time ft sched ~message_bytes:1.0 ~bandwidth:0.0))

(* ------------------------------------------------------------------ *)
(* Quality                                                              *)
(* ------------------------------------------------------------------ *)

let test_quality_measure () =
  let g = Topo_ring.make ~switches:5 ~terminals_per_switch:1 in
  let ft = Result.get_ok (Routing.Sssp.route g) in
  let q = Simulator.Quality.measure ft in
  check Alcotest.int "pairs" 20 q.Simulator.Quality.pairs;
  check Alcotest.int "min hops" 3 q.Simulator.Quality.min_hops;
  check Alcotest.int "max hops" 4 q.Simulator.Quality.max_hops;
  check Alcotest.int "diameter" 4 q.Simulator.Quality.diameter_hops;
  Alcotest.(check bool) "mean in range" true
    (q.Simulator.Quality.mean_hops >= 2.0 && q.Simulator.Quality.mean_hops <= 4.0);
  Alcotest.(check bool) "load stats sane" true
    (q.Simulator.Quality.max_load >= 1 && q.Simulator.Quality.mean_load > 0.0);
  (* SSSP on a symmetric ring balances perfectly: cv = 0 *)
  check (Alcotest.float 1e-9) "ring perfectly balanced" 0.0 q.Simulator.Quality.load_cv

let test_quality_updown_worse_balance () =
  let g = Topo_xgft.make ~ms:[| 4; 4 |] ~ws:[| 2; 2 |] ~endpoints:32 in
  let q_sssp = Simulator.Quality.measure (Result.get_ok (Routing.Sssp.route g)) in
  let q_ud = Simulator.Quality.measure (Result.get_ok (Routing.Updown.route g)) in
  Alcotest.(check bool) "updown less balanced" true
    (q_ud.Simulator.Quality.load_cv >= q_sssp.Simulator.Quality.load_cv)

(* ------------------------------------------------------------------ *)
(* Eventq / Netsim                                                      *)
(* ------------------------------------------------------------------ *)

let test_eventq_ordering () =
  let q = Simulator.Eventq.create () in
  check Alcotest.int "empty" 0 (Simulator.Eventq.size q);
  Simulator.Eventq.schedule q ~at:3.0 "c";
  Simulator.Eventq.schedule q ~at:1.0 "a";
  Simulator.Eventq.schedule q ~at:2.0 "b";
  Simulator.Eventq.schedule q ~at:1.0 "a2" (* FIFO at equal time *);
  check Alcotest.int "size" 4 (Simulator.Eventq.size q);
  check Alcotest.(option (pair (float 0.0) string)) "first" (Some (1.0, "a")) (Simulator.Eventq.next q);
  check Alcotest.(option (pair (float 0.0) string)) "tie fifo" (Some (1.0, "a2")) (Simulator.Eventq.next q);
  check Alcotest.(option (pair (float 0.0) string)) "then b" (Some (2.0, "b")) (Simulator.Eventq.next q);
  check Alcotest.(option (pair (float 0.0) string)) "then c" (Some (3.0, "c")) (Simulator.Eventq.next q);
  check Alcotest.(option (pair (float 0.0) string)) "drained" None (Simulator.Eventq.next q);
  Alcotest.check_raises "nan" (Invalid_argument "Eventq.schedule: bad time") (fun () ->
      Simulator.Eventq.schedule q ~at:Float.nan "x")

let eventq_qcheck =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:50 ~name:"eventq: pops in time order"
       QCheck2.Gen.(list_size (int_range 0 100) (float_bound_inclusive 1000.0))
       (fun times ->
         let q = Simulator.Eventq.create () in
         List.iteri (fun i at -> Simulator.Eventq.schedule q ~at i) times;
         let rec drain last =
           match Simulator.Eventq.next q with
           | None -> true
           | Some (at, _) -> at >= last && drain at
         in
         drain neg_infinity))

let test_netsim_single_flow_timing () =
  (* one flow, no contention: analytic check of the timing model *)
  let g = Topo_ring.make ~switches:5 ~terminals_per_switch:1 in
  let ft = Result.get_ok (Result.map_error Dfsssp.error_to_string (Dfsssp.route g)) in
  let ts = Graph.terminals g in
  let config =
    { Testutil.netsim_default with bandwidth = 1e6; latency = 1e-5; mtu = 1000 }
  in
  (* 2500 bytes = 3 packets (1000/1000/500), path t->s->s'->t' has hops *)
  match Simulator.Netsim.run ~config ft ~flows:[| (ts.(0), ts.(1), 2500) |] with
  | Simulator.Netsim.Completed { packets; flows = st; makespan; _ } ->
    check Alcotest.int "three packets" 3 packets;
    check Alcotest.int "bytes recorded" 2500 st.(0).Simulator.Netsim.bytes;
    (* lower bound: serialization of 2500 bytes at 1 MB/s = 2.5 ms *)
    Alcotest.(check bool) "makespan above serialization bound" true (makespan >= 2.5e-3);
    (* upper bound: full store-and-forward of every packet on every hop *)
    let hops =
      match Routing.Ftable.path ft ~src:ts.(0) ~dst:ts.(1) with
      | Some p -> Array.length p
      | None -> Alcotest.fail "no path"
    in
    let worst = float_of_int (3 * hops) *. ((1000.0 /. 1e6) +. 1e-5) in
    Alcotest.(check bool) "makespan below store-and-forward bound" true (makespan <= worst);
    Alcotest.(check bool) "achieved bandwidth positive" true (Simulator.Netsim.bandwidth_of st.(0) > 0.0)
  | o -> Alcotest.failf "expected completion, got %s" (Format.asprintf "%a" Simulator.Netsim.pp_outcome o)

let expect_deadlock ?config ft ~flows =
  match Simulator.Netsim.run ?config ft ~flows with
  | Simulator.Netsim.Deadlocked { stuck; _ } -> Alcotest.(check bool) "packets stuck" true (stuck > 0)
  | o -> Alcotest.failf "expected deadlock, got %s" (Format.asprintf "%a" Simulator.Netsim.pp_outcome o)

let expect_completion ?config ft ~flows ~packets:expected =
  match Simulator.Netsim.run ?config ft ~flows with
  | Simulator.Netsim.Completed { packets; _ } -> check Alcotest.int "all packets" expected packets
  | o -> Alcotest.failf "expected completion, got %s" (Format.asprintf "%a" Simulator.Netsim.pp_outcome o)

(* every terminal sends [size] bytes two terminals on *)
let ring_flows g size =
  let ts = Graph.terminals g in
  let n = Array.length ts in
  Array.init n (fun i -> (ts.(i), ts.((i + 2) mod n), size))

let test_netsim_deadlock_and_rescue () =
  let g = Topo_ring.make ~switches:5 ~terminals_per_switch:1 in
  let config = { Testutil.netsim_default with num_vls = 1 } in
  let config = { config with credits = 2 } in
  let sssp = Result.get_ok (Routing.Sssp.route g) in
  expect_deadlock ~config sssp ~flows:(ring_flows g (1 lsl 16));
  let df = Result.get_ok (Result.map_error Dfsssp.error_to_string (Dfsssp.route g)) in
  expect_completion df ~flows:(ring_flows g (1 lsl 16)) ~packets:(5 * ((1 lsl 16) / 4096))

let test_netsim_zero_bytes () =
  let g = Topo_ring.make ~switches:5 ~terminals_per_switch:1 in
  let ft = Result.get_ok (Result.map_error Dfsssp.error_to_string (Dfsssp.route g)) in
  let ts = Graph.terminals g in
  match Simulator.Netsim.run ft ~flows:[| (ts.(0), ts.(1), 0) |] with
  | Simulator.Netsim.Completed { packets; makespan; _ } ->
    check Alcotest.int "no packets" 0 packets;
    check (Alcotest.float 0.0) "instant" 0.0 makespan
  | o -> Alcotest.failf "expected completion, got %s" (Format.asprintf "%a" Simulator.Netsim.pp_outcome o)

let test_netsim_fair_sharing () =
  (* two flows into one destination: each gets about half the wire *)
  let b = Builder.create () in
  let s = Builder.add_switch b ~name:"s" in
  let t0 = Builder.add_terminal b ~name:"t0" ~switch:s in
  let t1 = Builder.add_terminal b ~name:"t1" ~switch:s in
  let t2 = Builder.add_terminal b ~name:"t2" ~switch:s in
  let g = Builder.build b in
  let ft = Result.get_ok (Routing.Minhop.route g) in
  let bytes = 1 lsl 20 in
  let config = { Testutil.netsim_default with bandwidth = 1e8 } in
  match Simulator.Netsim.run ~config ft ~flows:[| (t0, t2, bytes); (t1, t2, bytes) |] with
  | Simulator.Netsim.Completed { flows = st; makespan; _ } ->
    (* both flows share t2's ejection wire: total time ~ 2 * bytes / bw *)
    let expected = 2.0 *. float_of_int bytes /. 1e8 in
    Alcotest.(check bool) "makespan near shared-wire bound" true
      (makespan >= expected *. 0.95 && makespan <= expected *. 1.5);
    let bw0 = Simulator.Netsim.bandwidth_of st.(0) and bw1 = Simulator.Netsim.bandwidth_of st.(1) in
    Alcotest.(check bool) "fair split" true (Float.abs (bw0 -. bw1) /. (bw0 +. bw1) < 0.2)
  | o -> Alcotest.failf "expected completion, got %s" (Format.asprintf "%a" Simulator.Netsim.pp_outcome o)

let test_netsim_limits_and_rejections () =
  let g = Topo_ring.make ~switches:5 ~terminals_per_switch:1 in
  let ft = Result.get_ok (Result.map_error Dfsssp.error_to_string (Dfsssp.route g)) in
  let packet = Simulator.Netsim.packet_config in
  (* more packets than events can never complete: refused before any is
     queued; as many packets as events is still run *)
  Alcotest.check_raises "more packets than max_events"
    (Invalid_argument "Netsim.run: 60 or more packets exceed max_events 50") (fun () ->
      ignore (Simulator.Netsim.run ~config:{ packet with max_events = 50 } ft ~flows:(ring_flows g 30)));
  match Simulator.Netsim.run ~config:{ packet with max_events = 150 } ft ~flows:(ring_flows g 30) with
  | Simulator.Netsim.Out_of_events _ -> ()
  | o -> Alcotest.failf "expected out of events, got %s" (Format.asprintf "%a" Simulator.Netsim.pp_outcome o)

let netsim_dfsssp_qcheck =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:10 ~name:"netsim: dfsssp completes on random fabrics"
       QCheck2.Gen.(int_range 0 1000)
       (fun seed ->
         let rng = Rng.create seed in
         let g = Topo_random.make ~switches:6 ~switch_radix:8 ~terminals:12 ~inter_links:9 ~rng in
         match Dfsssp.route g with
         | Error _ -> false
         | Ok ft ->
           let ts = Graph.terminals g in
           let n = Array.length ts in
           let flows =
             Array.init n (fun i -> (ts.(i), ts.((i + (n / 2)) mod n), 32768))
             |> Array.to_list
             |> List.filter (fun (a, b, _) -> a <> b)
             |> Array.of_list
           in
           (match Simulator.Netsim.run ft ~flows with
           | Simulator.Netsim.Completed { packets; _ } -> packets = Array.length flows * 8
           | _ -> false)))

(* ------------------------------------------------------------------ *)
(* Packet time                                                          *)
(* ------------------------------------------------------------------ *)

(* Netsim.packet_config: a flow's bytes are its packets and the clock
   counts packet times. The group keeps the name "flitsim" of the
   flit-level simulator this configuration replaced. *)

let packet = Simulator.Netsim.packet_config

let ring5 () = Topo_ring.make ~switches:5 ~terminals_per_switch:1

let dfsssp g = Result.get_ok (Result.map_error Dfsssp.error_to_string (Dfsssp.route g))

let test_packet_sssp_ring_deadlocks () =
  let g = ring5 () in
  expect_deadlock ~config:{ packet with num_vls = 1 } (Result.get_ok (Routing.Sssp.route g)) ~flows:(ring_flows g 50)

let test_packet_dfsssp_ring_delivers () =
  let g = ring5 () in
  expect_completion ~config:packet (dfsssp g) ~flows:(ring_flows g 50) ~packets:250

let test_packet_dfsssp_torus_delivers () =
  let g = fst (Topo_torus.torus ~dims:[| 3; 3 |] ~terminals_per_switch:1) in
  let ts = Graph.terminals g in
  let n = Array.length ts in
  let flows = Array.init n (fun i -> (ts.(i), ts.((i + 4) mod n), 20)) in
  expect_completion ~config:packet (dfsssp g) ~flows ~packets:(20 * n)

let test_packet_updown_single_vl () =
  (* up*/down* is deadlock-free in ONE virtual lane *)
  let g = Topo_ring.make ~switches:6 ~terminals_per_switch:1 in
  let ft = Result.get_ok (Routing.Updown.route g) in
  expect_completion ~config:{ packet with num_vls = 1 } ft ~flows:(ring_flows g 30) ~packets:180

let test_packet_out_of_events () =
  let g = ring5 () in
  let ts = Graph.terminals g in
  match Simulator.Netsim.run ~config:{ packet with max_events = 3 } (dfsssp g) ~flows:[| (ts.(0), ts.(2), 3) |] with
  | Simulator.Netsim.Out_of_events _ -> ()
  | o -> Alcotest.failf "expected out of events, got %s" (Format.asprintf "%a" Simulator.Netsim.pp_outcome o)

let test_packet_latency () =
  (* uncontended single packet: latency = path length *)
  let g = ring5 () in
  let ft = dfsssp g in
  let ts = Graph.terminals g in
  let hops =
    match Routing.Ftable.path ft ~src:ts.(0) ~dst:ts.(1) with
    | Some p -> Array.length p
    | None -> Alcotest.fail "no path"
  in
  match Simulator.Netsim.run ~config:packet ft ~flows:[| (ts.(0), ts.(1), 1) |] with
  | Simulator.Netsim.Completed { packets; makespan; mean_packet_latency; _ } ->
    check Alcotest.int "one packet" 1 packets;
    check feq "latency = hops" (float_of_int hops) mean_packet_latency;
    check feq "makespan = hops" (float_of_int hops) makespan
  | o -> Alcotest.failf "expected completion, got %s" (Format.asprintf "%a" Simulator.Netsim.pp_outcome o)

let test_packet_zero_packets () =
  let g = ring5 () in
  let ts = Graph.terminals g in
  match Simulator.Netsim.run ~config:packet (dfsssp g) ~flows:[| (ts.(0), ts.(1), 0) |] with
  | Simulator.Netsim.Completed { packets; makespan; _ } ->
    check Alcotest.int "nothing to deliver" 0 packets;
    check (Alcotest.float 0.0) "immediate" 0.0 makespan
  | o -> Alcotest.failf "expected completion, got %s" (Format.asprintf "%a" Simulator.Netsim.pp_outcome o)

let test_packet_invalid_args () =
  let g = ring5 () in
  let ft = dfsssp g in
  let ts = Graph.terminals g in
  let rejected what ?(config = packet) flows =
    Alcotest.(check bool) what true
      (try
         ignore (Simulator.Netsim.run ~config ft ~flows);
         false
       with Invalid_argument _ -> true)
  in
  rejected "self flow rejected" [| (ts.(0), ts.(0), 1) |];
  (* DFSSSP on the ring uses layer 1 somewhere *)
  rejected "vl budget rejected" ~config:{ packet with num_vls = 1 } (ring_flows g 1)

let packet_dfsssp_qcheck =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:10 ~name:"flitsim: dfsssp delivers on random fabrics"
       QCheck2.Gen.(int_range 0 1000)
       (fun seed ->
         let rng = Rng.create seed in
         let g = Topo_random.make ~switches:6 ~switch_radix:8 ~terminals:12 ~inter_links:9 ~rng in
         match Dfsssp.route g with
         | Error _ -> false
         | Ok ft ->
           let ts = Graph.terminals g in
           let n = Array.length ts in
           let flows =
             Array.init n (fun i -> (ts.(i), ts.((i + (n / 2)) mod n), 10))
             |> Array.to_list
             |> List.filter (fun (a, b, _) -> a <> b)
             |> Array.of_list
           in
           (match Simulator.Netsim.run ~config:packet ft ~flows with
           | Simulator.Netsim.Completed { packets; _ } -> packets = Array.length flows * 10
           | _ -> false)))

let () =
  Alcotest.run "simulator"
    [
      ( "metrics",
        [
          Alcotest.test_case "summary" `Quick test_metrics_summary;
          Alcotest.test_case "percentile" `Quick test_metrics_percentile;
          Alcotest.test_case "errors" `Quick test_metrics_errors;
        ] );
      ( "patterns",
        [
          Alcotest.test_case "bisection" `Quick test_bisection;
          Alcotest.test_case "bisection odd" `Quick test_bisection_odd;
          Alcotest.test_case "all-to-all" `Quick test_all_to_all;
          Alcotest.test_case "ring shift" `Quick test_ring_shift;
          Alcotest.test_case "uniform random" `Quick test_uniform_random;
          Alcotest.test_case "nas bt" `Quick test_nas_bt;
          Alcotest.test_case "nas bt dedup" `Quick test_nas_bt_small_grid_dedup;
          Alcotest.test_case "nas ft" `Quick test_nas_ft_is_all_to_all;
          Alcotest.test_case "nas pow2 kernels" `Quick test_nas_power_of_two_kernels;
          Alcotest.test_case "nas lu" `Quick test_nas_lu;
          Alcotest.test_case "adversarial permutations" `Quick test_adversarial_patterns;
          Alcotest.test_case "kernel list" `Quick test_nas_kernel_list;
        ] );
      ( "congestion",
        [
          Alcotest.test_case "star uncontended" `Quick test_congestion_star;
          Alcotest.test_case "star contended" `Quick test_congestion_contended;
          Alcotest.test_case "ignores self flows" `Quick test_congestion_ignores_self;
          Alcotest.test_case "load counts" `Quick test_congestion_load_counts;
          Alcotest.test_case "eBB star" `Quick test_ebb_star_is_full;
          Alcotest.test_case "eBB deterministic" `Quick test_ebb_deterministic_given_seed;
          Alcotest.test_case "eBB domain-count invariant" `Quick test_ebb_domains_invariant;
          Alcotest.test_case "hotspots and histogram" `Quick test_hotspots_and_histogram;
          Alcotest.test_case "completion time" `Quick test_completion_time_scales;
        ] );
      ( "collective",
        [
          Alcotest.test_case "schedules" `Quick test_collective_schedules;
          Alcotest.test_case "completion" `Quick test_collective_completion;
        ] );
      ( "quality",
        [
          Alcotest.test_case "measure" `Quick test_quality_measure;
          Alcotest.test_case "updown balance" `Quick test_quality_updown_worse_balance;
        ] );
      ( "eventq",
        [ Alcotest.test_case "ordering" `Quick test_eventq_ordering; eventq_qcheck ] );
      ( "netsim",
        [
          Alcotest.test_case "single flow timing" `Quick test_netsim_single_flow_timing;
          Alcotest.test_case "deadlock and rescue" `Quick test_netsim_deadlock_and_rescue;
          Alcotest.test_case "zero bytes" `Quick test_netsim_zero_bytes;
          Alcotest.test_case "fair sharing" `Quick test_netsim_fair_sharing;
          Alcotest.test_case "limits and rejections" `Quick test_netsim_limits_and_rejections;
          netsim_dfsssp_qcheck;
        ] );
      ( "flitsim",
        [
          Alcotest.test_case "sssp ring deadlocks" `Quick test_packet_sssp_ring_deadlocks;
          Alcotest.test_case "dfsssp ring delivers" `Quick test_packet_dfsssp_ring_delivers;
          Alcotest.test_case "dfsssp torus delivers" `Quick test_packet_dfsssp_torus_delivers;
          Alcotest.test_case "updown single VL" `Quick test_packet_updown_single_vl;
          Alcotest.test_case "out of cycles" `Quick test_packet_out_of_events;
          Alcotest.test_case "latency accounting" `Quick test_packet_latency;
          Alcotest.test_case "zero packets" `Quick test_packet_zero_packets;
          Alcotest.test_case "invalid args" `Quick test_packet_invalid_args;
          packet_dfsssp_qcheck;
        ] );
    ]
