(* End-to-end tests for the DFSSSP core library: deadlock-freedom with
   minimal SSSP routes on every topology class, the verifier, and the
   algorithm registry. *)

let check = Alcotest.check

let qtest ?(count = 30) name gen prop = QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let expect label = function
  | Ok x -> x
  | Error e -> Alcotest.failf "%s: %s" label (Dfsssp.error_to_string e)

let report label ft =
  match Dfsssp.Verify.report ft with
  | Ok r -> r
  | Error e -> Alcotest.failf "%s: %s" label e

let fixtures =
  lazy
    [
      ("ring5", Topo_ring.make ~switches:5 ~terminals_per_switch:1);
      ("ring8", Topo_ring.make ~switches:8 ~terminals_per_switch:2);
      ("torus4x4", fst (Topo_torus.torus ~dims:[| 4; 4 |] ~terminals_per_switch:2));
      ("torus3x3x3", fst (Topo_torus.torus ~dims:[| 3; 3; 3 |] ~terminals_per_switch:1));
      ("hypercube4", fst (Topo_hypercube.make ~dim:4 ~terminals_per_switch:1));
      ("tree62", Topo_tree.make ~k:6 ~n:2 ());
      ("xgft", Topo_xgft.make ~ms:[| 4; 4 |] ~ws:[| 2; 2 |] ~endpoints:48);
      ("kautz", Topo_kautz.make ~b:2 ~n:3 ~endpoints:36);
      ("odin", (Testutil.cluster ~scale:4 "odin").Clusters.graph);
      ("deimos", (Clusters.deimos ~scale:8 ()).Clusters.graph);
    ]

let test_deadlock_free_everywhere () =
  List.iter
    (fun (name, g) ->
      let ft = expect name (Dfsssp.route g) in
      let r = report name ft in
      Alcotest.(check bool) (name ^ " deadlock free") true r.Dfsssp.Verify.deadlock_free;
      Alcotest.(check bool) (name ^ " minimal") true r.Dfsssp.Verify.stats.Routing.Ftable.minimal;
      Alcotest.(check bool) (name ^ " within 8 layers") true (r.Dfsssp.Verify.num_layers <= 8);
      Alcotest.(check bool)
        (name ^ " layers consistent") true
        (r.Dfsssp.Verify.max_layer_seen < r.Dfsssp.Verify.num_layers))
    (Lazy.force fixtures)

let test_paths_equal_sssp () =
  (* DFSSSP must not change SSSP's routes — only assign layers. *)
  let g = fst (Topo_torus.torus ~dims:[| 4; 4 |] ~terminals_per_switch:1) in
  let sssp = Result.get_ok (Routing.Sssp.route g) in
  let dfsssp = expect "dfsssp" (Dfsssp.route g) in
  Routing.Ftable.iter_pairs sssp (fun ~src ~dst p ->
      match Routing.Ftable.path dfsssp ~src ~dst with
      | Some p' -> check Alcotest.(array int) "same route" p p'
      | None -> Alcotest.fail "route lost")

let test_ring_needs_two_layers () =
  let g = Topo_ring.make ~switches:5 ~terminals_per_switch:1 in
  check Alcotest.int "ring layers" 2 (expect "layers" (Testutil.layers_required g))

let test_tree_needs_one_layer () =
  let g = Topo_tree.make ~k:4 ~n:2 () in
  check Alcotest.int "tree layers" 1 (expect "layers" (Testutil.layers_required g))

let test_budget_exhaustion () =
  let g = Topo_ring.make ~switches:5 ~terminals_per_switch:1 in
  match Dfsssp.route ~max_layers:1 g with
  | Error (Dfsssp.Layers_exhausted _) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Dfsssp.error_to_string e)
  | Ok _ -> Alcotest.fail "expected exhaustion"

(* The paper's VL figures must not depend on the break engine: on the
   Fig. 9 random-topology family and the Fig. 10 real systems, the SCC
   engine reproduces the DFS oracle's layer counts exactly — same CDGs,
   same heuristic, same eviction order within each component. *)
let test_fig_layer_parity () =
  let parity name g =
    let vl engine =
      match Testutil.dfsssp ~engine ~max_layers:64 g with
      | Ok ft -> Routing.Ftable.num_layers ft
      | Error msg -> Alcotest.failf "%s: %s" name msg
    in
    check Alcotest.int (name ^ ": scc matches dfs") (vl `Dfs) (vl `Scc)
  in
  for t = 0 to 2 do
    let rng = Rng.create ((7 * 10007) + (t * 31)) in
    let g = Topo_random.make ~switches:32 ~switch_radix:16 ~terminals:64 ~inter_links:80 ~rng in
    parity (Printf.sprintf "fig9 random %d" t) g
  done;
  List.iter
    (fun (s : Clusters.system) -> parity ("fig10 " ^ s.Clusters.name) s.Clusters.graph)
    (Clusters.all ~scale:16 ())

let test_variants_and_heuristics () =
  let g = fst (Topo_torus.torus ~dims:[| 3; 3 |] ~terminals_per_switch:2) in
  List.iter
    (fun (label, variant) ->
      List.iter
        (fun h ->
          let ft = expect label (Dfsssp.route ~variant ~heuristic:h g) in
          let r = report label ft in
          Alcotest.(check bool)
            (Printf.sprintf "%s/%s deadlock free" label (Deadlock.Heuristic.to_string h))
            true r.Dfsssp.Verify.deadlock_free)
        Deadlock.Heuristic.all)
    [ ("offline", Dfsssp.Offline); ("online", Dfsssp.Online) ]

let test_balance_spreads () =
  let g = fst (Topo_torus.torus ~dims:[| 4; 4 |] ~terminals_per_switch:1) in
  let plain = expect "plain" (Dfsssp.route ~max_layers:8 g) in
  let balanced = expect "balanced" (Dfsssp.route ~max_layers:8 ~balance:true g) in
  let r = report "balanced" balanced in
  Alcotest.(check bool) "balanced still deadlock free" true r.Dfsssp.Verify.deadlock_free;
  Alcotest.(check bool) "balance uses more layers" true
    (Routing.Ftable.num_layers balanced >= Routing.Ftable.num_layers plain);
  check Alcotest.int "balance fills the budget" 8 (Routing.Ftable.num_layers balanced)

(* With [balance] the table declares the spread count, so the declared
   count covers every layer a route rides (lint rule A004) and the table
   certifies; [layers_required] still reports the unbalanced count. *)
let test_balance_declares_spread () =
  let g = (Result.get_ok (Harness.Topospec.parse "torus:4x4")).Harness.Topospec.graph in
  let plain = expect "plain" (Dfsssp.route ~max_layers:8 g) in
  let balanced = expect "balanced" (Dfsssp.route ~balance:true ~max_layers:8 g) in
  check Alcotest.int "declares the spread count" 8 (Routing.Ftable.num_layers balanced);
  Alcotest.(check bool) "declared count covers every used layer" true
    (Routing.Ftable.max_layer balanced < Routing.Ftable.num_layers balanced);
  (match Analysis.Analyzer.certify balanced with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "balanced table refused: %s" msg);
  let required = expect "required" (Testutil.layers_required ~max_layers:8 g) in
  check Alcotest.int "layers_required is the unbalanced count" (Routing.Ftable.num_layers plain) required;
  Alcotest.(check bool) "fewer than the spread" true (required < 8)

let test_weakest_not_worse_than_heaviest () =
  (* paper Section IV: weakest-edge needs the fewest layers; check the
     weaker, stable claim weakest <= heaviest on a batch of seeds *)
  let worse = ref 0 in
  for seed = 0 to 9 do
    let rng = Rng.create (1000 + seed) in
    let g = Topo_random.make ~switches:12 ~switch_radix:12 ~terminals:24 ~inter_links:20 ~rng in
    let layers h = expect "h" (Testutil.layers_required ~heuristic:h ~max_layers:32 g) in
    if layers Deadlock.Heuristic.Weakest > layers Deadlock.Heuristic.Heaviest then incr worse
  done;
  Alcotest.(check bool) "weakest rarely worse" true (!worse <= 2)

let dfsssp_random_qcheck =
  qtest "dfsssp: deadlock-free minimal routing on random fabrics" QCheck2.Gen.(int_range 0 10_000)
    (fun seed ->
      let rng = Rng.create seed in
      let g = Topo_random.make ~switches:10 ~switch_radix:10 ~terminals:20 ~inter_links:16 ~rng in
      match Dfsssp.route ~max_layers:16 g with
      | Error _ -> false
      | Ok ft -> (
        match Dfsssp.Verify.report ft with
        | Error _ -> false
        | Ok r ->
          r.Dfsssp.Verify.deadlock_free && r.Dfsssp.Verify.stats.Routing.Ftable.minimal
          && r.Dfsssp.Verify.stats.Routing.Ftable.pairs = 20 * 19))

let dfsssp_torus_layers_qcheck =
  qtest ~count:8 "dfsssp: small layer count on tori" QCheck2.Gen.(int_range 3 5)
    (fun k ->
      (* measured: 3x3 -> 1 (ties avoid the wrap cycle), 4x4 -> 2, 5x5 -> 3;
         the requirement grows with the torus radius *)
      let g = fst (Topo_torus.torus ~dims:[| k; k |] ~terminals_per_switch:1) in
      match Testutil.layers_required ~max_layers:8 g with
      | Error _ -> false
      | Ok l -> l >= 1 && l <= k - 2 + 1)

(* ------------------------------------------------------------------ *)
(* Multipath                                                            *)
(* ------------------------------------------------------------------ *)

let test_multipath_basics () =
  let g = fst (Topo_torus.torus ~dims:[| 4; 4 |] ~terminals_per_switch:1) in
  match Dfsssp.Multipath.route ~planes:2 ~max_layers:16 g with
  | Error e -> Alcotest.fail (Dfsssp.error_to_string e)
  | Ok mp ->
    check Alcotest.int "two planes" 2 (Array.length (Dfsssp.Multipath.planes mp));
    Alcotest.(check bool) "jointly deadlock free" true (Testutil.multipath_deadlock_free mp);
    (* every plane individually routes everything, minimally *)
    Array.iter
      (fun ft ->
        match Routing.Ftable.validate ft with
        | Ok s -> Alcotest.(check bool) "plane minimal" true s.Routing.Ftable.minimal
        | Error e -> Alcotest.fail e)
      (Dfsssp.Multipath.planes mp);
    (* planes differ on at least one route (diversity) *)
    let ts = Graph.terminals g in
    let differs = ref false in
    Array.iter
      (fun src ->
        Array.iter
          (fun dst ->
            if src <> dst then begin
              let p0 = Routing.Ftable.path (Dfsssp.Multipath.planes mp).(0) ~src ~dst in
              let p1 = Routing.Ftable.path (Dfsssp.Multipath.planes mp).(1) ~src ~dst in
              if p0 <> p1 then differs := true
            end)
          ts)
      ts;
    Alcotest.(check bool) "planes diverse" true !differs;
    (* spread_paths shape *)
    let flows = [| (ts.(0), ts.(1)); (ts.(1), ts.(2)); (ts.(0), ts.(0)) |] in
    let paths = Dfsssp.Multipath.spread_paths mp ~flows in
    check Alcotest.int "one path per flow" 3 (Array.length paths);
    check Alcotest.int "self flow empty" 0 (Array.length paths.(2));
    check Alcotest.(array int) "flow i rides plane i mod planes"
      (Option.get (Routing.Ftable.path (Dfsssp.Multipath.planes mp).(1) ~src:ts.(1) ~dst:ts.(2)))
      paths.(1)

let test_multipath_joint_layers () =
  (* the joint lane bill can exceed a single plane's *)
  let g = fst (Topo_torus.torus ~dims:[| 5; 5 |] ~terminals_per_switch:1) in
  let single = Result.get_ok (Result.map_error Dfsssp.error_to_string (Dfsssp.route ~max_layers:16 g)) in
  match Dfsssp.Multipath.route ~planes:2 ~max_layers:16 g with
  | Error e -> Alcotest.fail (Dfsssp.error_to_string e)
  | Ok mp ->
    Alcotest.(check bool) "joint >= single" true
      (Dfsssp.Multipath.num_layers mp >= Routing.Ftable.num_layers single);
    Alcotest.(check bool) "invalid planes" true
      (try
         ignore (Dfsssp.Multipath.route ~planes:0 g);
         false
       with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Verify                                                               *)
(* ------------------------------------------------------------------ *)

let test_verify_flags_cyclic () =
  let g = Topo_ring.make ~switches:5 ~terminals_per_switch:1 in
  let sssp = Result.get_ok (Routing.Sssp.route g) in
  Alcotest.(check bool) "sssp on ring is not deadlock free" false (Oracles.Acyclic_ref.deadlock_free sssp);
  let r = report "sssp" sssp in
  Alcotest.(check bool) "report agrees" false r.Dfsssp.Verify.deadlock_free

let test_verify_error_on_incomplete () =
  let g = Topo_ring.make ~switches:5 ~terminals_per_switch:1 in
  let ft = Routing.Ftable.create g ~algorithm:"empty" in
  Alcotest.(check bool) "incomplete table rejected" true (Result.is_error (Dfsssp.Verify.report ft))

(* ------------------------------------------------------------------ *)
(* Registry                                                             *)
(* ------------------------------------------------------------------ *)

let test_registry_contents () =
  let names = List.map (fun a -> a.Dfsssp.Registry.name) (Dfsssp.Registry.all ()) in
  List.iter
    (fun expected -> Alcotest.(check bool) (expected ^ " present") true (List.mem expected names))
    [ "minhop"; "updown"; "ftree"; "dor"; "lash"; "sssp"; "dfsssp"; "dfsssp-online"; "dfminhop"; "dfdor" ];
  check Alcotest.int "count" 10 (List.length names)

let test_registry_find () =
  (match Dfsssp.Registry.find "DFSSSP" with
  | Some a -> check Alcotest.string "case-insensitive" "dfsssp" a.Dfsssp.Registry.name
  | None -> Alcotest.fail "dfsssp not found");
  Alcotest.(check bool) "unknown" true (Dfsssp.Registry.find "nonesuch" = None)

let test_registry_dor_needs_coords () =
  let g, coords = Topo_torus.torus ~dims:[| 3; 3 |] ~terminals_per_switch:1 in
  let without = Option.get (Dfsssp.Registry.find "dor") in
  Alcotest.(check bool) "refused without coords" true (Result.is_error (without.Dfsssp.Registry.run g));
  let with_coords = Option.get (Dfsssp.Registry.find ~coords "dor") in
  Alcotest.(check bool) "works with coords" true (Result.is_ok (with_coords.Dfsssp.Registry.run g))

let test_hardened_routings () =
  (* assign_layers makes any base routing deadlock-free: DOR on a torus
     (cyclic without it) and MinHop on a dragonfly both pass the verifier *)
  let g, coords = Topo_torus.torus ~dims:[| 5; 5 |] ~terminals_per_switch:1 in
  let dfdor = Option.get (Dfsssp.Registry.find ~coords "dfdor") in
  (match dfdor.Dfsssp.Registry.run g with
  | Error e -> Alcotest.fail e
  | Ok ft ->
    Alcotest.(check bool) "dfdor deadlock free" true (Oracles.Acyclic_ref.deadlock_free ft);
    Alcotest.(check bool) "dfdor layered" true (Routing.Ftable.num_layers ft >= 2);
    (* plain dor on the same torus is cyclic *)
    let dor = Option.get (Dfsssp.Registry.find ~coords "dor") in
    (match dor.Dfsssp.Registry.run g with
    | Ok plain -> Alcotest.(check bool) "plain dor cyclic" false (Oracles.Acyclic_ref.deadlock_free plain)
    | Error e -> Alcotest.fail e));
  let df = Topo_dragonfly.make ~a:4 ~p:2 ~h:2 () in
  let dfminhop = Option.get (Dfsssp.Registry.find "dfminhop") in
  (match dfminhop.Dfsssp.Registry.run df with
  | Error e -> Alcotest.fail e
  | Ok ft -> Alcotest.(check bool) "dfminhop deadlock free" true (Oracles.Acyclic_ref.deadlock_free ft))

let test_route_min_layers () =
  let g = fst (Topo_torus.torus ~dims:[| 5; 5 |] ~terminals_per_switch:1) in
  match Testutil.route_min_layers g with
  | Error e -> Alcotest.fail (Dfsssp.error_to_string e)
  | Ok (ft, winner) ->
    Alcotest.(check bool) "deadlock free" true (Oracles.Acyclic_ref.deadlock_free ft);
    (* the winner is at least as good as every single heuristic *)
    List.iter
      (fun h ->
        match Testutil.layers_required ~heuristic:h g with
        | Ok l ->
          Alcotest.(check bool)
            (Printf.sprintf "beats or ties %s" (Deadlock.Heuristic.to_string h))
            true
            (Routing.Ftable.num_layers ft <= l)
        | Error _ -> ())
      Deadlock.Heuristic.all;
    ignore winner

let test_registry_deadlock_free_flags () =
  let g = fst (Topo_torus.torus ~dims:[| 4; 4 |] ~terminals_per_switch:1) in
  List.iter
    (fun (alg : Dfsssp.Registry.algorithm) ->
      match alg.Dfsssp.Registry.run g with
      | Error _ -> ()
      | Ok ft ->
        if alg.Dfsssp.Registry.deadlock_free_by_design then
          Alcotest.(check bool)
            (alg.Dfsssp.Registry.name ^ " honours its flag")
            true (Oracles.Acyclic_ref.deadlock_free ft))
    (Dfsssp.Registry.all ())

(* Layer ids are bytes: a budget above 256 is refused up front, and the
   table keeps its layers. *)
let test_budget_over_256 () =
  let g = Topo_ring.make ~switches:8 ~terminals_per_switch:1 in
  let ft = Result.get_ok (Routing.Sssp.route g) in
  (match Dfsssp.assign_layers ~balance:true ~max_layers:300 ft with
  | Error (Dfsssp.Bad_budget 300) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Dfsssp.error_to_string e)
  | Ok _ -> Alcotest.fail "300 layers accepted");
  check Alcotest.int "layers untouched" 1 (Routing.Ftable.num_layers ft);
  (match Fabric.Manager.create ~config:{ Fabric.Manager.default_config with max_layers = 300 } g with
  | Error msg -> Alcotest.(check bool) "explains" true (Testutil.contains msg "256")
  | Ok _ -> Alcotest.fail "manager accepted 300 layers");
  let balanced = expect "256" (Dfsssp.assign_layers ~balance:true ~max_layers:256 ft) in
  check Alcotest.int "256 layers" 256 (Routing.Ftable.num_layers balanced)

(* Route classes of a torus with two terminals per switch: one class per
   (switch, destination), weighing the switch's terminals other than the
   destination; expanded (to_store), every slice is its pair's own table
   walk, the statistics are the per-pair oracle's, and a broken table's
   refusal names the first pair, in pair order, whose walk fails. *)
let test_route_classes () =
  let g = fst (Topo_torus.torus ~dims:[| 3; 3 |] ~terminals_per_switch:2) in
  let ft = Result.get_ok (Routing.Sssp.route g) in
  let cls = Result.get_ok (Routing.Ftable.to_classes ft) in
  let store = Result.get_ok (Routing.Ftable.to_store ft) in
  let classes = cls.Routing.Ftable.store in
  check Alcotest.int "9 switches x 18 destinations" 162 (Dfsssp.Route_store.num_paths classes);
  let weights = List.init 162 (fun k -> Dfsssp.Route_store.weight classes ~pair:k) in
  check Alcotest.int "every pair in one class" (18 * 17) (List.fold_left ( + ) 0 weights);
  check Alcotest.(list int) "weights" [ 1; 2 ] (List.sort_uniq compare weights);
  check Alcotest.int "every pair" (18 * 17) (Dfsssp.Route_store.num_paths store);
  Dfsssp.Route_store.iter_pairs store (fun pair ->
      let src, dst = Routing.Ftable.pair_of_id ft pair in
      check Alcotest.(option (array int)) "slice is the walk" (Routing.Ftable.path ft ~src ~dst)
        (Some (Dfsssp.Route_store.to_path store ~pair)));
  check Alcotest.bool "same statistics" true
    (Oracles.Stats_ref.of_table ft = Ok (Routing.Ftable.class_stats ft cls));
  (* the same routes over a fabric where terminal 0's cable is down and
     a detour is cheaper: measured pair by pair, as to_store's store *)
  let t0 = (Graph.terminals g).(0) in
  let enabled =
    Array.map (fun (c : Channel.t) -> c.Channel.src <> t0 && c.Channel.dst <> t0) (Graph.channels g)
  in
  let degraded = Graph.with_enabled g ~enabled in
  let copy = Routing.Ftable.create degraded ~algorithm:"copy" in
  Array.iter
    (fun (nd : Node.t) ->
      Array.iter
        (fun d ->
          Option.iter
            (fun c -> Routing.Ftable.set_next copy ~node:nd.Node.id ~dst:d ~channel:c)
            (Routing.Ftable.next ft ~node:nd.Node.id ~dst:d))
        (Graph.terminals g))
    (Graph.nodes g);
  check Alcotest.bool "same statistics, degraded" true
    (Oracles.Stats_ref.of_table copy
    = Ok (Routing.Ftable.class_stats copy (Result.get_ok (Routing.Ftable.to_classes copy))));
  (* cut one switch's entry toward the last terminal *)
  let terms = Graph.terminals g in
  let dst = terms.(17) in
  let sw = (Graph.channel g (Graph.out_channels g terms.(0)).(0)).Channel.dst in
  let broken = Routing.Ftable.create g ~algorithm:"broken" in
  Array.iter
    (fun (nd : Node.t) ->
      Array.iter
        (fun d ->
          match Routing.Ftable.next ft ~node:nd.Node.id ~dst:d with
          | Some c when not (nd.Node.id = sw && d = dst) ->
            Routing.Ftable.set_next broken ~node:nd.Node.id ~dst:d ~channel:c
          | _ -> ())
        terms)
    (Graph.nodes g);
  match Oracles.Stats_ref.of_table broken with
  | Ok _ -> Alcotest.fail "a dead entry must fail the per-pair walk"
  | Error want -> (
    match Routing.Ftable.to_classes broken with
    | Error got -> check Alcotest.string "first failing pair" want got
    | Ok _ -> Alcotest.fail "a dead entry must fail the class walk")

let () =
  Alcotest.run "dfsssp"
    [
      ( "route",
        [
          Alcotest.test_case "deadlock free everywhere" `Slow test_deadlock_free_everywhere;
          Alcotest.test_case "paths equal sssp" `Quick test_paths_equal_sssp;
          Alcotest.test_case "ring needs 2 layers" `Quick test_ring_needs_two_layers;
          Alcotest.test_case "tree needs 1 layer" `Quick test_tree_needs_one_layer;
          Alcotest.test_case "budget exhaustion" `Quick test_budget_exhaustion;
          Alcotest.test_case "budget over 256 refused" `Quick test_budget_over_256;
          Alcotest.test_case "route classes" `Quick test_route_classes;
          Alcotest.test_case "fig 9/10 layer parity across engines" `Quick test_fig_layer_parity;
          Alcotest.test_case "variants and heuristics" `Quick test_variants_and_heuristics;
          Alcotest.test_case "balance spreads" `Quick test_balance_spreads;
          Alcotest.test_case "weakest vs heaviest" `Slow test_weakest_not_worse_than_heaviest;
          dfsssp_random_qcheck;
          dfsssp_torus_layers_qcheck;
          Alcotest.test_case "balance declares the spread count" `Quick test_balance_declares_spread;
        ] );
      ( "multipath",
        [
          Alcotest.test_case "basics" `Quick test_multipath_basics;
          Alcotest.test_case "joint layers" `Quick test_multipath_joint_layers;
        ] );
      ( "verify",
        [
          Alcotest.test_case "flags cyclic routing" `Quick test_verify_flags_cyclic;
          Alcotest.test_case "rejects incomplete" `Quick test_verify_error_on_incomplete;
        ] );
      ( "registry",
        [
          Alcotest.test_case "contents" `Quick test_registry_contents;
          Alcotest.test_case "find" `Quick test_registry_find;
          Alcotest.test_case "dor needs coords" `Quick test_registry_dor_needs_coords;
          Alcotest.test_case "hardened routings" `Quick test_hardened_routings;
          Alcotest.test_case "route_min_layers" `Quick test_route_min_layers;
          Alcotest.test_case "deadlock-free flags honoured" `Slow test_registry_deadlock_free_flags;
        ] );
    ]
