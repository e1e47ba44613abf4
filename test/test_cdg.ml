(* Tests for the deadlock library: channel dependency graphs, cycle
   search, layer assignment (offline Algorithm 2 and the online variant),
   heuristics, and the APP problem with its NP-completeness reduction. *)

open Deadlock

let check = Alcotest.check

let qtest ?(count = 60) name gen prop = QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* A ring fabric and the clockwise 2-hop paths of the paper's Fig. 2: the
   canonical cyclic-CDG instance. *)
let ring_fixture switches =
  let g = Topo_ring.make ~switches ~terminals_per_switch:1 in
  let chan a b =
    let found = ref (-1) in
    Array.iter (fun c -> if (Graph.channel g c).Channel.dst = b then found := c) (Graph.out_channels g a);
    if !found < 0 then Alcotest.failf "no channel %d -> %d" a b;
    !found
  in
  let terminals = Graph.terminals g in
  let switch_of t = (Graph.channel g (Graph.out_channels g t).(0)).Channel.dst in
  let paths =
    Array.init switches (fun i ->
        let src_t = terminals.(i) in
        let s0 = switch_of src_t in
        let s1 = switch_of terminals.((i + 1) mod switches) in
        let s2 = switch_of terminals.((i + 2) mod switches) in
        let dst_t = terminals.((i + 2) mod switches) in
        [| chan src_t s0; chan s0 s1; chan s1 s2; chan s2 dst_t |])
  in
  (g, paths)

(* ------------------------------------------------------------------ *)
(* Cdg                                                                  *)
(* ------------------------------------------------------------------ *)

module Layer = Oracles.Dfs_ref.Layer

(* A built CDG never changes; the oracle's overlay removes routes from
   it. *)
let test_cdg_add_remove () =
  let g, paths = ring_fixture 5 in
  let store = Testutil.of_paths g paths in
  let cdg = Cdg.of_store store in
  check Alcotest.int "paths" 5 (Cdg.num_paths cdg);
  (* each 4-channel path induces 3 dependencies, all distinct overall *)
  check Alcotest.int "edges" 15 (Cdg.num_edges cdg);
  let p = paths.(0) in
  Alcotest.(check bool) "edge live" true (Cdg.live cdg ~c1:p.(1) ~c2:p.(2));
  check Alcotest.int "edge count" 1 (Testutil.cdg_edge_count cdg ~c1:p.(1) ~c2:p.(2));
  check Alcotest.(list int) "edge pairs" [ 0 ] (Cdg.edge_pairs cdg ~c1:p.(1) ~c2:p.(2));
  let layer = Layer.create store cdg in
  Layer.remove_pair layer ~pair:0;
  check Alcotest.int "paths after remove" 4 (Layer.num_paths layer);
  check Alcotest.int "edges after remove" 12 (Layer.num_edges layer);
  Alcotest.(check bool) "edge dead" false (Layer.live layer ~c1:p.(1) ~c2:p.(2));
  check Alcotest.int "dead edge count" 0 (Layer.edge_count layer ~c1:p.(1) ~c2:p.(2));
  check Alcotest.(list int) "dead edge pairs" [] (Layer.edge_pairs layer ~c1:p.(1) ~c2:p.(2));
  check Alcotest.int "the build is unchanged" 15 (Cdg.num_edges cdg);
  Alcotest.(check bool) "built edge still live" true (Cdg.live cdg ~c1:p.(1) ~c2:p.(2));
  Alcotest.check_raises "double remove"
    (Invalid_argument "Dfs_ref.Layer.remove_pair: edge not present") (fun () ->
      Layer.remove_pair layer ~pair:0)

let test_cdg_shared_edges () =
  let g, paths = ring_fixture 5 in
  (* the same path under two pair ids: every dependency is shared *)
  let store = Testutil.of_paths g [| paths.(0); paths.(0) |] in
  let cdg = Cdg.of_store store in
  let p = paths.(0) in
  check Alcotest.int "count 2" 2 (Testutil.cdg_edge_count cdg ~c1:p.(0) ~c2:p.(1));
  let prs = List.sort compare (Cdg.edge_pairs cdg ~c1:p.(0) ~c2:p.(1)) in
  check Alcotest.(list int) "both pairs" [ 0; 1 ] prs;
  let layer = Layer.create store cdg in
  Layer.remove_pair layer ~pair:0;
  Alcotest.(check bool) "still live" true (Layer.live layer ~c1:p.(0) ~c2:p.(1));
  check Alcotest.int "count 1" 1 (Layer.edge_count layer ~c1:p.(0) ~c2:p.(1));
  check Alcotest.(list int) "exact membership" [ 1 ] (Layer.edge_pairs layer ~c1:p.(0) ~c2:p.(1));
  Alcotest.check_raises "wrong pair" (Invalid_argument "Dfs_ref.Layer.remove_pair: pair not on edge")
    (fun () -> Layer.remove_pair layer ~pair:0)

let test_route_store_basics () =
  let g, paths = ring_fixture 5 in
  let store = Route_store.create g ~capacity:8 in
  check Alcotest.int "capacity" 8 (Route_store.capacity store);
  Alcotest.(check bool) "absent" false (Route_store.mem store ~pair:3);
  Route_store.set_path store ~pair:3 paths.(0);
  Alcotest.(check bool) "present" true (Route_store.mem store ~pair:3);
  check Alcotest.int "length" (Array.length paths.(0)) (Route_store.length store ~pair:3);
  check Alcotest.(array int) "round trip" paths.(0) (Route_store.to_path store ~pair:3);
  Route_store.set_path store ~pair:4 paths.(1);
  check Alcotest.(array int) "second slice" paths.(1) (Route_store.to_path store ~pair:4);
  Alcotest.(check bool) "untouched pair absent" false (Route_store.mem store ~pair:5);
  (* overwrite, then remove *)
  Route_store.set_path store ~pair:3 paths.(2);
  check Alcotest.(array int) "overwritten" paths.(2) (Route_store.to_path store ~pair:3);
  check Alcotest.int "num_paths" 2 (Route_store.num_paths store);
  Alcotest.check_raises "length of absent pair" (Invalid_argument "Route_store: pair 5 has no path")
    (fun () -> ignore (Route_store.length store ~pair:5));
  (* arena growth must not corrupt earlier slices *)
  let store2 = Route_store.create g ~capacity:4096 in
  for i = 0 to 4095 do
    Route_store.set_path store2 ~pair:i paths.(i mod 5)
  done;
  let ok = ref true in
  for i = 0 to 4095 do
    if Route_store.to_path store2 ~pair:i <> paths.(i mod 5) then ok := false
  done;
  Alcotest.(check bool) "slices survive growth" true !ok;
  let deps = ref 0 in
  Testutil.iter_deps store2 ~pair:0 (fun _ _ -> incr deps);
  check Alcotest.int "dep count" (Array.length paths.(0) - 1) !deps

let test_cdg_of_store_and_removal () =
  let g, paths = ring_fixture 5 in
  let store = Testutil.of_paths g paths in
  let csr = Cdg.of_store store in
  check Alcotest.int "edges" 15 (Cdg.num_edges csr);
  check Alcotest.int "paths" 5 (Cdg.num_paths csr);
  (* removing two paths from the oracle's overlay leaves the CDG of the
     other three *)
  let layer = Layer.create store csr in
  Layer.remove_pair layer ~pair:1;
  Layer.remove_pair layer ~pair:2;
  let reference = Cdg.of_store ~filter:(fun pr -> pr <> 1 && pr <> 2) store in
  check Alcotest.int "edges agree" (Cdg.num_edges reference) (Layer.num_edges layer);
  check Alcotest.int "paths agree" (Cdg.num_paths reference) (Layer.num_paths layer);
  Cdg.iter_edges reference (fun c1 c2 count ->
      check Alcotest.int "count agrees" count (Layer.edge_count layer ~c1 ~c2);
      check Alcotest.(list int) "pairs agree"
        (List.sort compare (Cdg.edge_pairs reference ~c1 ~c2))
        (List.sort compare (Layer.edge_pairs layer ~c1 ~c2)));
  (* a filtered build sees only the selected pairs *)
  let only0 = Cdg.of_store ~filter:(fun pr -> pr = 0) store in
  check Alcotest.int "filtered paths" 1 (Cdg.num_paths only0);
  check Alcotest.int "filtered edges" 3 (Cdg.num_edges only0)

(* Cdg.of_store reads the route arena directly; the hashtable reference
   adds the same pairs one by one. Random stores mix absent pairs, 0- and
   1-channel slices and replaced paths (whose abandoned slices leave dead
   arena between live ones). *)
let of_store_parity_qcheck =
  qtest ~count:100 "of_store (full, ~pairs, ~filter) agrees with Cdg_ref"
    QCheck2.Gen.(int_range 0 10_000)
    (fun seed ->
      let rng = Rng.create seed in
      let g = Topo_ring.make ~switches:6 ~terminals_per_switch:1 in
      let m = Graph.num_channels g in
      let capacity = 1 + Rng.int rng 40 in
      let store = Route_store.create g ~capacity in
      let random_path () = Array.init (Rng.int rng 7) (fun _ -> Rng.int rng m) in
      for pair = 0 to capacity - 1 do
        if Rng.int rng 4 > 0 then Route_store.set_path store ~pair (random_path ());
        if Rng.int rng 5 = 0 then Route_store.set_path store ~pair (random_path ())
      done;
      let present = List.filter (fun pair -> Route_store.mem store ~pair) (List.init capacity Fun.id) in
      let agrees built ids =
        let reference = Oracles.Cdg_ref.create g in
        List.iter (fun pair -> Oracles.Cdg_ref.add_path reference ~pair (Route_store.to_path store ~pair)) ids;
        let same =
          ref
            (Cdg.num_edges built = Oracles.Cdg_ref.num_edges reference
            && Cdg.num_paths built = List.length ids)
        in
        Oracles.Cdg_ref.iter_edges reference (fun c1 c2 count ->
            if Testutil.cdg_edge_count built ~c1 ~c2 <> count
               || List.sort compare (Cdg.edge_pairs built ~c1 ~c2)
                  <> List.sort compare (Oracles.Cdg_ref.edge_pairs reference ~c1 ~c2)
            then same := false);
        !same
      in
      let subset = List.filter (fun _ -> Rng.int rng 2 = 0) present in
      let keep pair = pair mod 3 <> seed mod 3 in
      agrees (Cdg.of_store store) present
      && agrees (Cdg.of_store ~pairs:(Array.of_list (List.rev subset)) store) subset
      && agrees (Cdg.of_store ~filter:keep store) (List.filter keep present)
      && agrees
           (Cdg.of_store ~filter:keep ~pairs:(Array.of_list subset) store)
           (List.filter keep subset))

let test_cdg_successors () =
  let g, paths = ring_fixture 5 in
  let cdg = Testutil.cdg_of_paths g paths in
  let p = paths.(2) in
  let succ = ref [] in
  Testutil.cdg_iter_successors cdg p.(0) (fun c -> succ := c :: !succ);
  check Alcotest.(list int) "single successor" [ p.(1) ] !succ;
  (* iter_edges visits every live edge exactly once *)
  let seen = ref 0 in
  Cdg.iter_edges cdg (fun _ _ count ->
      incr seen;
      check Alcotest.int "unit counts" 1 count);
  check Alcotest.int "edge visits" 15 !seen

(* ------------------------------------------------------------------ *)
(* Acyclic_ref / Cycle                                                  *)
(* ------------------------------------------------------------------ *)

let test_acyclic_detects () =
  let g, paths = ring_fixture 5 in
  Alcotest.(check bool) "empty acyclic" true (Oracles.Acyclic_ref.is_acyclic (Testutil.cdg_of_paths g [||]));
  Alcotest.(check bool) "one path acyclic" true
    (Oracles.Acyclic_ref.is_acyclic (Testutil.cdg_of_paths g [| paths.(0) |]));
  Alcotest.(check bool) "ring pattern cyclic" false (Oracles.Acyclic_ref.is_acyclic (Testutil.cdg_of_paths g paths))

module Search = Oracles.Dfs_ref.Search

let test_cycle_finds_and_resumes () =
  let g, paths = ring_fixture 5 in
  let store = Testutil.of_paths g paths in
  let cdg = Cdg.of_store store in
  let layer = Layer.create store cdg in
  let search = Search.create layer in
  let first = Search.find_cycle search in
  check Alcotest.(option (array (pair int int))) "one-shot search finds the same cycle" first
    (Cycle.find cdg);
  (match first with
  | None -> Alcotest.fail "expected a cycle"
  | Some cycle ->
    Alcotest.(check bool) "non-trivial" true (Array.length cycle >= 2);
    (* every reported edge is live and they chain up *)
    Array.iter
      (fun (a, b) -> Alcotest.(check bool) "cycle edge live" true (Cdg.live cdg ~c1:a ~c2:b))
      cycle;
    Array.iteri
      (fun i (_, b) ->
        let a', _ = cycle.((i + 1) mod Array.length cycle) in
        check Alcotest.int "chains" a' b)
      cycle;
    (* break it: remove the paths of the first cycle edge *)
    let a, b = cycle.(0) in
    let movers = Layer.edge_pairs layer ~c1:a ~c2:b in
    List.iter (fun pr -> Layer.remove_pair layer ~pair:pr) movers);
  Search.notify_removed search;
  (* the ring has exactly one switch-level cycle; breaking one edge of the
     5-cycle leaves the rest acyclic *)
  (match Search.find_cycle search with
  | None -> ()
  | Some _ -> Alcotest.fail "cycle should be gone");
  let moved = match first with Some c -> Cdg.edge_pairs cdg ~c1:(fst c.(0)) ~c2:(snd c.(0)) | None -> [] in
  Alcotest.(check bool) "kahn agrees" true
    (Oracles.Acyclic_ref.is_acyclic (Cdg.of_store ~filter:(fun pr -> not (List.mem pr moved)) store))

let test_cycle_none_on_acyclic () =
  let g, paths = ring_fixture 6 in
  (* two non-overlapping paths cannot build the full ring cycle *)
  let cdg = Testutil.cdg_of_paths g [| paths.(0); paths.(3) |] in
  (match Cycle.find cdg with
  | None -> ()
  | Some _ -> Alcotest.fail "no cycle expected");
  Alcotest.(check bool) "kahn agrees" true (Oracles.Acyclic_ref.is_acyclic cdg)

let test_cycle_repeated_call_stable () =
  let g, paths = ring_fixture 5 in
  let store = Testutil.of_paths g paths in
  let search = Search.create (Layer.create store (Cdg.of_store store)) in
  match (Search.find_cycle search, Search.find_cycle search) with
  | Some c1, Some c2 -> check Alcotest.(array (pair int int)) "same cycle" c1 c2
  | _ -> Alcotest.fail "expected cycles"

(* ------------------------------------------------------------------ *)
(* Heuristic                                                            *)
(* ------------------------------------------------------------------ *)

let test_heuristic_strings () =
  List.iter
    (fun h ->
      (* the CLI's choice list maps each name back through [to_string] *)
      let name = Heuristic.to_string h in
      Alcotest.(check bool) "round trip" true
        (List.filter (fun h' -> Heuristic.to_string h' = name) Heuristic.all = [ h ]))
    Heuristic.all;
  Alcotest.(check bool) "names are words" true
    (List.for_all
       (fun h ->
         let name = Heuristic.to_string h in
         name <> "" && not (String.contains name ' '))
       Heuristic.all)

let test_heuristic_choice () =
  let g, paths = ring_fixture 5 in
  (* double one edge's weight with an extra co-routed path *)
  let store = Testutil.of_paths g (Array.append paths [| paths.(0) |]) in
  let layer = Layer.create store (Cdg.of_store store) in
  let heavy = (paths.(0).(1), paths.(0).(2)) in
  let light = (paths.(1).(1), paths.(1).(2)) in
  let cycle = [| heavy; light |] in
  let choose h = Oracles.Dfs_ref.choose h layer in
  Alcotest.(check bool) "weakest avoids heavy" true (choose Heuristic.Weakest cycle = light);
  Alcotest.(check bool) "heaviest picks heavy" true (choose Heuristic.Heaviest cycle = heavy);
  Alcotest.(check bool) "first edge" true (choose Heuristic.First_edge cycle = heavy);
  Alcotest.check_raises "empty cycle" (Invalid_argument "Dfs_ref.choose: empty cycle") (fun () ->
      ignore (choose Heuristic.Weakest [||]))

(* ------------------------------------------------------------------ *)
(* Layers (offline)                                                     *)
(* ------------------------------------------------------------------ *)

let test_layers_ring () =
  let g, paths = ring_fixture 5 in
  match Layers.assign_store (Testutil.of_paths g paths) ~max_layers:8 ~heuristic:Heuristic.Weakest with
  | Error e -> Alcotest.fail e
  | Ok outcome ->
    check Alcotest.int "two layers suffice" 2 outcome.Layers.layers_used;
    Alcotest.(check bool) "broke at least one cycle" true (outcome.Layers.cycles_broken >= 1);
    Alcotest.(check bool) "all layers acyclic" true
      (Testutil.layers_acyclic g ~paths ~layer_of_path:outcome.Layers.layer_of_path
         ~num_layers:outcome.Layers.layers_used)

let test_layers_budget_exhausted () =
  let g, paths = ring_fixture 5 in
  match Layers.assign_store (Testutil.of_paths g paths) ~max_layers:1 ~heuristic:Heuristic.Weakest with
  | Error msg -> Alcotest.(check bool) "explains" true (Testutil.contains msg "no layer is left")
  | Ok _ -> Alcotest.fail "1 layer cannot be deadlock-free on the ring pattern"

let test_layers_acyclic_input_stays_one_layer () =
  let g, paths = ring_fixture 7 in
  let some = [| paths.(0); paths.(2); paths.(4) |] in
  match Layers.assign_store (Testutil.of_paths g some) ~max_layers:8 ~heuristic:Heuristic.Weakest with
  | Error e -> Alcotest.fail e
  | Ok outcome ->
    check Alcotest.int "one layer" 1 outcome.Layers.layers_used;
    check Alcotest.int "no cycles broken" 0 outcome.Layers.cycles_broken

let test_layers_empty () =
  let g, _ = ring_fixture 5 in
  match Layers.assign_store (Testutil.of_paths g [||]) ~max_layers:4 ~heuristic:Heuristic.Weakest with
  | Error e -> Alcotest.fail e
  | Ok outcome -> check Alcotest.int "trivial" 1 outcome.Layers.layers_used

let test_layers_balance () =
  let g, paths = ring_fixture 5 in
  match Layers.assign_store (Testutil.of_paths g paths) ~max_layers:8 ~heuristic:Heuristic.Weakest with
  | Error e -> Alcotest.fail e
  | Ok outcome ->
    let balanced, in_use = Layers.balance outcome ~max_layers:8 in
    check Alcotest.int "uses all layers" 8 in_use;
    (* balanced layers must still be acyclic *)
    Alcotest.(check bool) "balanced acyclic" true
      (Testutil.layers_acyclic g ~paths ~layer_of_path:balanced ~num_layers:8);
    (* balance must not mix original layers inside one new layer *)
    let origin = Array.make 8 (-1) in
    Array.iteri
      (fun i new_layer ->
        let orig = outcome.Layers.layer_of_path.(i) in
        if origin.(new_layer) = -1 then origin.(new_layer) <- orig
        else check Alcotest.int "single-origin layer" origin.(new_layer) orig)
      balanced;
    (* no-op when the budget is already tight *)
    let same, in_use' = Layers.balance outcome ~max_layers:outcome.Layers.layers_used in
    check Alcotest.int "tight budget unchanged" outcome.Layers.layers_used in_use';
    check Alcotest.(array int) "assignment unchanged" outcome.Layers.layer_of_path same

(* Algorithm 2's exact placement, pinned: the MD5 of [layer_of_path]
   (comma-joined) over the route-class store of each fabric's SSSP
   table, with the weakest-edge rule and 16 layers, and its layer and
   eviction counts. The oracle tests only bound the layer count, so a
   changed eviction shows here first. *)
let pinned_placements =
  [
    ("jellyfish:64,16,8:1", "f1044bb436b0c136da3811a04fb8cb1c", 5, 2343);
    ("jellyfish:32,10,6:3", "4c8ee642ff236f901589d9a24bc30d5f", 3, 297);
    ("torus:6x6", "90acc8f5b9120afd653fc399c914e79c", 4, 200);
    ("hypercube:6", "7fc031814c2d414e20cf5ddb20a3ec11", 5, 1004);
  ]

let class_store spec =
  let g = (Result.get_ok (Harness.Topospec.parse spec)).Harness.Topospec.graph in
  let ft = Result.get_ok (Routing.Sssp.route g) in
  (Result.get_ok (Routing.Ftable.to_classes ft)).Routing.Ftable.store

let check_pinned ?domains (spec, digest, layers, broken) =
  match Layers.assign_store ?domains (class_store spec) ~max_layers:16 ~heuristic:Heuristic.Weakest with
  | Error e -> Alcotest.failf "%s: %s" spec e
  | Ok o ->
    let text = String.concat "," (Array.to_list (Array.map string_of_int o.Layers.layer_of_path)) in
    check Alcotest.string (spec ^ ": layer_of_path digest") digest (Digest.to_hex (Digest.string text));
    check Alcotest.int (spec ^ ": layers") layers o.Layers.layers_used;
    check Alcotest.int (spec ^ ": cycles broken") broken o.Layers.cycles_broken

let test_layers_pinned () = List.iter (fun fabric -> check_pinned fabric) pinned_placements

let heuristics_all_sound_qcheck =
  qtest ~count:20 "offline assignment sound for every heuristic" QCheck2.Gen.(int_range 0 1000)
    (fun seed ->
      let rng = Rng.create seed in
      let g = Topo_random.make ~switches:8 ~switch_radix:8 ~terminals:16 ~inter_links:12 ~rng in
      match Routing.Sssp.route g with
      | Error _ -> false
      | Ok ft ->
        let paths = ref [] in
        Routing.Ftable.iter_pairs ft (fun ~src:_ ~dst:_ p -> paths := p :: !paths);
        let paths = Array.of_list !paths in
        List.for_all
          (fun h ->
            match Layers.assign_store (Testutil.of_paths g paths) ~max_layers:16 ~heuristic:h with
            | Error _ -> false
            | Ok outcome ->
              Testutil.layers_acyclic g ~paths ~layer_of_path:outcome.Layers.layer_of_path
                ~num_layers:outcome.Layers.layers_used)
          Heuristic.all)

(* ------------------------------------------------------------------ *)
(* Scc and the break-engine knob                                        *)
(* ------------------------------------------------------------------ *)

(* Everything above [Layers]/[Dfsssp.assign_layers] runs the default
   engine: an engine-free [Dfsssp.route] equals SSSP plus an explicit
   [`Scc] assignment, layer for layer. *)
let test_default_engine_is_scc () =
  let rng = Rng.create 5 in
  let g = Topo_random.make ~switches:8 ~switch_radix:8 ~terminals:16 ~inter_links:12 ~rng in
  let routed = Result.get_ok (Dfsssp.route ~max_layers:16 g) in
  let scc = Result.get_ok (Testutil.dfsssp ~engine:`Scc ~max_layers:16 g) in
  check Alcotest.int "layer count" (Routing.Ftable.num_layers scc) (Routing.Ftable.num_layers routed);
  Routing.Ftable.iter_pairs routed (fun ~src ~dst _ ->
      if Routing.Ftable.layer routed ~src ~dst <> Routing.Ftable.layer scc ~src ~dst then
        Alcotest.failf "pair %d->%d: layer differs from the scc engine's" src dst)

let test_scc_condensation () =
  let g, paths = ring_fixture 5 in
  let store = Testutil.of_paths g paths in
  let cdg = Cdg.of_store store in
  let scc = Scc.of_cdg cdg in
  (* the 5 switch->switch channels form one cycle; every other channel is
     its own singleton component *)
  check Alcotest.int "one non-trivial component" 1 (Array.length scc.Scc.nontrivial);
  check Alcotest.int "of the ring's 5 channels" 5 (Array.length scc.Scc.nontrivial.(0));
  let comp = scc.Scc.comp_of.(scc.Scc.nontrivial.(0).(0)) in
  Array.iter
    (fun c -> check Alcotest.int "members agree on comp id" comp scc.Scc.comp_of.(c))
    scc.Scc.nontrivial.(0);
  check Alcotest.int "singletons + ring" (Graph.num_channels g - 4) scc.Scc.num_comps;
  (* without one ring path the component dissolves *)
  let scc' = Scc.of_cdg (Cdg.of_store ~filter:(fun pr -> pr <> 0) store) in
  check Alcotest.int "acyclic after removal" 0 (Array.length scc'.Scc.nontrivial)

let test_scc_self_loop_nontrivial () =
  let g, _ = ring_fixture 5 in
  (* a path that reuses a channel makes a self-dependency *)
  let c = (Graph.out_channels g (Graph.switches g).(0)).(0) in
  let cdg = Testutil.cdg_of_paths g [| [| c; c |] |] in
  let scc = Scc.of_cdg cdg in
  check Alcotest.int "self-loop is non-trivial" 1 (Array.length scc.Scc.nontrivial);
  check Alcotest.(array int) "the looping channel" [| c |] scc.Scc.nontrivial.(0)

(* The shipped SCC engine and the one-cycle-at-a-time DFS oracle, over
   path [i] under pair id [i]. *)
let engines =
  [
    ( (fun g ~paths ~max_layers ->
        Layers.assign_store (Testutil.of_paths g paths) ~max_layers ~heuristic:Heuristic.Weakest),
      "scc" );
    ( (fun g ~paths ~max_layers ->
        Oracles.Dfs_ref.assign_store (Testutil.of_paths g paths) ~max_layers
          ~heuristic:Heuristic.Weakest),
      "dfs" );
  ]

let test_layers_ring_both_engines () =
  let g, paths = ring_fixture 5 in
  List.iter
    (fun (assign, name) ->
      match assign g ~paths ~max_layers:8 with
      | Error e -> Alcotest.failf "%s: %s" name e
      | Ok outcome ->
        check Alcotest.int (name ^ ": two layers suffice") 2 outcome.Layers.layers_used;
        Alcotest.(check bool) (name ^ ": broke something") true (outcome.Layers.cycles_broken >= 1);
        Alcotest.(check bool)
          (name ^ ": acyclic layers")
          true
          (Testutil.layers_acyclic g ~paths ~layer_of_path:outcome.Layers.layer_of_path
             ~num_layers:outcome.Layers.layers_used))
    engines

let test_layers_budget_both_engines () =
  let g, paths = ring_fixture 5 in
  List.iter
    (fun (assign, name) ->
      match assign g ~paths ~max_layers:1 with
      | Error msg ->
        Alcotest.(check bool) (name ^ ": explains") true (Testutil.contains msg "no layer is left")
      | Ok _ -> Alcotest.failf "%s: 1 layer cannot be deadlock-free on the ring pattern" name)
    engines

let test_scc_acyclic_input () =
  let g, paths = ring_fixture 7 in
  let some = [| paths.(0); paths.(2); paths.(4) |] in
  match Layers.assign_store (Testutil.of_paths g some) ~max_layers:8 ~heuristic:Heuristic.Weakest with
  | Error e -> Alcotest.fail e
  | Ok outcome ->
    check Alcotest.int "one layer" 1 outcome.Layers.layers_used;
    check Alcotest.int "no evictions" 0 outcome.Layers.cycles_broken

(* Placement runs on the calling domain whatever [~domains] says: on
   the fabric whose layer 3 has three non-trivial components, four
   domains give the pinned placement and dispatch no pool fan-out. *)
let test_scc_no_pool () =
  let runs () =
    match Obs.Registry.find_counter (Obs.Registry.default ()) "pool.runs" with
    | Some c -> Obs.Counter.value c
    | None -> Alcotest.fail "no pool.runs counter in the default registry"
  in
  let fabric = List.hd pinned_placements in
  let before = runs () in
  check_pinned ~domains:4 fabric;
  check Alcotest.int "pool.runs unchanged" before (runs ())

let engines_agree_qcheck =
  qtest ~count:20 "scc engine sound and within one layer of the dfs oracle"
    QCheck2.Gen.(int_range 0 1000)
    (fun seed ->
      let rng = Rng.create seed in
      let g = Topo_random.make ~switches:8 ~switch_radix:8 ~terminals:16 ~inter_links:12 ~rng in
      match Routing.Sssp.route g with
      | Error _ -> false
      | Ok ft ->
        let paths = ref [] in
        Routing.Ftable.iter_pairs ft (fun ~src:_ ~dst:_ p -> paths := p :: !paths);
        let paths = Array.of_list !paths in
        let run assign =
          match assign g ~paths ~max_layers:16 with
          | Error _ -> None
          | Ok o ->
            if
              Testutil.layers_acyclic g ~paths ~layer_of_path:o.Layers.layer_of_path
                ~num_layers:o.Layers.layers_used
            then Some o.Layers.layers_used
            else None
        in
        (match List.map (fun (assign, _) -> run assign) engines with
        | [ Some scc; Some dfs ] -> scc <= dfs + 1
        | _ -> false))

(* ------------------------------------------------------------------ *)
(* Online                                                               *)
(* ------------------------------------------------------------------ *)

let test_online_ring () =
  let g, paths = ring_fixture 5 in
  match Online.assign_store (Testutil.of_paths g paths) ~max_layers:8 with
  | Error e -> Alcotest.fail e
  | Ok outcome ->
    check Alcotest.int "two layers" 2 outcome.Online.layers_used;
    Alcotest.(check bool) "ran checks" true (outcome.Online.cycle_checks > 0);
    Alcotest.(check bool) "acyclic layers" true
      (Testutil.layers_acyclic g ~paths ~layer_of_path:outcome.Online.layer_of_path
         ~num_layers:outcome.Online.layers_used)

(* The last ring path closes the cycle: the refusal names it by id and
   by the nodes it leaves and reaches. *)
let test_online_budget () =
  let g, paths = ring_fixture 5 in
  let p = paths.(4) in
  let name v = (Graph.node g v).Node.name in
  let expected =
    Printf.sprintf "route 4 (%s -> %s) fits no layer (max 1)"
      (name (Graph.channel g p.(0)).Channel.src)
      (name (Graph.channel g p.(Array.length p - 1)).Channel.dst)
  in
  match Online.assign_store (Testutil.of_paths g paths) ~max_layers:1 with
  | Error msg -> check Alcotest.string "names the route" expected msg
  | Ok _ -> Alcotest.fail "should not fit one layer"

let online_matches_offline_soundness_qcheck =
  qtest ~count:20 "online assignment sound on random fabrics" QCheck2.Gen.(int_range 0 1000)
    (fun seed ->
      let rng = Rng.create seed in
      let g = Topo_random.make ~switches:8 ~switch_radix:8 ~terminals:16 ~inter_links:12 ~rng in
      match Routing.Sssp.route g with
      | Error _ -> false
      | Ok ft ->
        let paths = ref [] in
        Routing.Ftable.iter_pairs ft (fun ~src:_ ~dst:_ p -> paths := p :: !paths);
        let paths = Array.of_list !paths in
        (match Online.assign_store (Testutil.of_paths g paths) ~max_layers:16 with
        | Error _ -> false
        | Ok outcome ->
          Testutil.layers_acyclic g ~paths ~layer_of_path:outcome.Online.layer_of_path
            ~num_layers:outcome.Online.layers_used))

(* Reference online placement: every present pair in id order into the
   lowest layer the Kahn oracle still finds acyclic, over hashtable CDGs
   that grow path by path. [None] when some pair fits no layer. *)
let reference_online store ~max_layers =
  let g = Route_store.graph store in
  let layer = Array.make (Route_store.capacity store) (-1) in
  let cdgs = Array.init max_layers (fun _ -> Oracles.Cdg_ref.create g) in
  Route_store.iter_pairs store (fun p ->
      let path = Route_store.to_path store ~pair:p in
      let vl = ref 0 in
      while layer.(p) < 0 && !vl < max_layers do
        Oracles.Cdg_ref.add_path cdgs.(!vl) ~pair:p path;
        if Oracles.Cdg_ref.is_acyclic cdgs.(!vl) then layer.(p) <- !vl
        else begin
          Oracles.Cdg_ref.remove_path cdgs.(!vl) ~pair:p path;
          incr vl
        end
      done);
  let placed = ref true in
  Route_store.iter_pairs store (fun p -> if layer.(p) < 0 then placed := false);
  if !placed then Some layer else None

(* The SSSP routes of a random fabric with a random third of the
   destinations re-routed min-hop: a mix of balanced and min-hop routes
   that no single routing engine produces. *)
let mixed_fixture seed =
  let rng = Rng.create seed in
  let g = Topo_random.make ~switches:8 ~switch_radix:8 ~terminals:16 ~inter_links:12 ~rng in
  match (Routing.Sssp.route g, Routing.Minhop.route g) with
  | Ok ft, Ok minhop ->
    let sssp = Result.get_ok (Routing.Ftable.to_store ft) in
    let rerouted = Array.map (fun _ -> Rng.int rng 3 = 0) (Array.make (Graph.num_nodes g) ()) in
    let store = Route_store.create g ~capacity:(Route_store.capacity sssp) in
    Route_store.iter_pairs sssp (fun pair ->
        let src, dst = Routing.Ftable.pair_of_id ft pair in
        Route_store.set_path store ~pair
          (if rerouted.(dst) then Option.get (Routing.Ftable.path minhop ~src ~dst)
           else Route_store.to_path sssp ~pair));
    Some store
  | _ -> None

let online_mixed_qcheck =
  qtest ~count:20 "online: mixed SSSP/minhop store equals the Kahn reference"
    QCheck2.Gen.(int_range 0 10_000)
    (fun seed ->
      match mixed_fixture seed with
      | None -> false
      | Some store ->
        let placed =
          match Online.assign_store store ~max_layers:16 with
          | Ok o -> Some o.Online.layer_of_path
          | Error _ -> None
        in
        placed = reference_online store ~max_layers:16)

(* SSSP routes on a random fabric with random switch cables down (each
   kept only if the fabric stays connected), pair by pair and class by
   class: the Pearce–Kelly probes walk the degraded adjacency, and the
   placement is still the Kahn reference's. *)
let online_degraded_qcheck =
  qtest ~count:20 "online: degraded fabric equals the Kahn reference"
    QCheck2.Gen.(int_range 0 10_000)
    (fun seed ->
      let rng = Rng.create seed in
      let g = Topo_random.make ~switches:8 ~switch_radix:8 ~terminals:16 ~inter_links:12 ~rng in
      let enabled = Array.make (Graph.num_channels g) true in
      Array.iter
        (fun c ->
          if Rng.int rng 3 = 0 then begin
            let r = Option.get (Graph.reverse_channel g c) in
            enabled.(c) <- false;
            enabled.(r) <- false;
            if not (Graph.connected (Graph.with_enabled g ~enabled)) then begin
              enabled.(c) <- true;
              enabled.(r) <- true
            end
          end)
        (Degrade.switch_cables g);
      let degraded = Graph.with_enabled g ~enabled in
      match Routing.Sssp.route degraded with
      | Error _ -> false
      | Ok ft ->
        let same store =
          let placed =
            match Online.assign_store store ~max_layers:16 with
            | Ok o -> Some o.Online.layer_of_path
            | Error _ -> None
          in
          placed = reference_online store ~max_layers:16
        in
        same (Result.get_ok (Routing.Ftable.to_store ft))
        && same (Result.get_ok (Routing.Ftable.to_classes ft)).Routing.Ftable.store)

(* ------------------------------------------------------------------ *)
(* Pk_order                                                             *)
(* ------------------------------------------------------------------ *)

(* The ring's clockwise switch channels s_i -> s_(i+1), and their
   reverses: a channel and its reverse meet at both ends, so the two
   dependencies between them form a cycle. *)
let ring_channels switches =
  let g, paths = ring_fixture switches in
  let cw i = paths.(i mod switches).(1) in
  let ccw i = Option.get (Graph.reverse_channel g (cw i)) in
  (g, paths, cw, ccw)

let test_pk_accepts_and_rejects () =
  let g, paths, cw, ccw = ring_channels 5 in
  let pk = Pk_order.create g in
  (* register the first path's chain: fine *)
  let p = paths.(0) in
  Alcotest.(check bool) "chain 0-1" true (Pk_order.insert pk ~c1:p.(0) ~c2:p.(1));
  Alcotest.(check bool) "chain 1-2" true (Pk_order.insert pk ~c1:p.(1) ~c2:p.(2));
  Alcotest.(check bool) "chain 2-3" true (Pk_order.insert pk ~c1:p.(2) ~c2:p.(3));
  Alcotest.(check bool) "order consistent" true (Pk_order.consistent pk);
  Alcotest.(check bool) "chain registered" true (Pk_order.mem pk ~c1:p.(1) ~c2:p.(2));
  (* a U-turn and its way back close a cycle *)
  Alcotest.(check bool) "u-turn" true (Pk_order.insert pk ~c1:(cw 1) ~c2:(ccw 1));
  Alcotest.(check bool) "cycle rejected" false (Pk_order.insert pk ~c1:(ccw 1) ~c2:(cw 1));
  Alcotest.(check bool) "rejected edge not registered" false (Pk_order.mem pk ~c1:(ccw 1) ~c2:(cw 1));
  Alcotest.(check bool) "order still consistent" true (Pk_order.consistent pk);
  Alcotest.(check bool) "self edge rejected" false (Pk_order.insert pk ~c1:p.(0) ~c2:p.(0))

(* The probes walk the enabled adjacency, so an edge they could not reach
   from either end — and every cycle through it — would go unseen:
   [insert] refuses it. *)
let test_pk_refuses_invisible_edges () =
  let g, _, cw, _ = ring_channels 5 in
  let pk = Pk_order.create g in
  Alcotest.check_raises "not adjacent" (Invalid_argument "Pk_order.insert: channels not adjacent")
    (fun () -> ignore (Pk_order.insert pk ~c1:(cw 0) ~c2:(cw 2)));
  let enabled = Array.init (Graph.num_channels g) (fun c -> c <> cw 1) in
  let pk = Pk_order.create (Graph.with_enabled g ~enabled) in
  Alcotest.check_raises "disabled head" (Invalid_argument "Pk_order.insert: disabled channel")
    (fun () -> ignore (Pk_order.insert pk ~c1:(cw 0) ~c2:(cw 1)));
  Alcotest.check_raises "disabled tail" (Invalid_argument "Pk_order.insert: disabled channel")
    (fun () -> ignore (Pk_order.insert pk ~c1:(cw 1) ~c2:(cw 2)));
  Alcotest.(check bool) "enabled edge accepted" true (Pk_order.insert pk ~c1:(cw 2) ~c2:(cw 3))

(* A path's fresh edges accepted before its rejection are forgotten with
   the rollback: once a later insertion has reordered their endpoints, a
   revived copy must be inserted anew, where the cycle it closes shows. *)
let test_pk_rollback_forgets () =
  let g, _, cw, ccw = ring_channels 5 in
  let a = cw 0 and b = cw 1 and c = ccw 1 in
  let pk = Pk_order.create g in
  Alcotest.(check bool) "c -> b" true (Pk_order.insert pk ~c1:c ~c2:b);
  (* a path a -> b -> c: its first edge fits, its second closes b -> c -> b *)
  Alcotest.(check bool) "e1 = a -> b accepted" true (Pk_order.insert pk ~c1:a ~c2:b);
  Alcotest.(check bool) "e2 = b -> c rejected" false (Pk_order.insert pk ~c1:b ~c2:c);
  Pk_order.forget pk ~c1:a ~c2:b;
  Pk_order.forget pk ~c1:b ~c2:c;
  Alcotest.(check bool) "e1 forgotten" false (Pk_order.mem pk ~c1:a ~c2:b);
  (* with e1 gone, the rest of the ring from b back to a fits and puts b
     before a *)
  List.iter
    (fun (x, y) -> Alcotest.(check bool) "ring edge accepted" true (Pk_order.insert pk ~c1:x ~c2:y))
    [ (b, cw 2); (cw 2, cw 3); (cw 3, cw 4); (cw 4, a) ];
  Alcotest.(check bool) "b now precedes a" true (Pk_order.position pk b < Pk_order.position pk a);
  Alcotest.(check bool) "consistent after the reordering" true (Pk_order.consistent pk);
  Alcotest.(check bool) "revived e1 closes the ring" false (Pk_order.insert pk ~c1:a ~c2:b);
  Alcotest.(check bool) "consistent after the second rejection" true (Pk_order.consistent pk)

(* The online placement on the SSSP store of a 12x12 torus, pair by pair
   and class by class, is the Kahn reference's placement, and every layer
   is acyclic. A rejected path's stale accepted edges used to let a later
   path close a cycle unseen here (layer 1 cyclic in both stores). *)
let test_online_torus_matches_reference () =
  let g = fst (Topo_torus.torus ~dims:[| 12; 12 |] ~terminals_per_switch:1) in
  let ft = Result.get_ok (Routing.Sssp.route g) in
  let cls = Result.get_ok (Routing.Ftable.to_classes ft) in
  List.iter
    (fun (what, store) ->
      match Online.assign_store store ~max_layers:16 with
      | Error msg -> Alcotest.failf "%s: %s" what msg
      | Ok o ->
        let layer_of_path = o.Online.layer_of_path in
        Alcotest.(check bool)
          (what ^ ": every layer acyclic")
          true
          (Oracles.Acyclic_ref.layers_acyclic_store store ~layer_of_path ~num_layers:o.Online.layers_used);
        Alcotest.(check bool)
          (what ^ ": the Kahn reference placement")
          true
          (Some layer_of_path = reference_online store ~max_layers:16))
    [ ("per pair", Result.get_ok (Routing.Ftable.to_store ft)); ("per class", cls.Routing.Ftable.store) ]

let online_matches_reference_qcheck =
  qtest ~count:30 "online: placement equals the Kahn reference" QCheck2.Gen.(int_range 0 10_000)
    (fun seed ->
      let rng = Rng.create seed in
      let g = Topo_random.make ~switches:8 ~switch_radix:8 ~terminals:16 ~inter_links:12 ~rng in
      match Routing.Sssp.route g with
      | Error _ -> false
      | Ok ft ->
        let paths = ref [] in
        Routing.Ftable.iter_pairs ft (fun ~src:_ ~dst:_ p -> paths := p :: !paths);
        let paths = Array.of_list (List.rev !paths) in
        let reference =
          reference_online (Testutil.of_paths g paths) ~max_layers:16
        in
        (match Online.assign_store (Testutil.of_paths g paths) ~max_layers:16 with
        | Ok a ->
          Some a.Online.layer_of_path = reference
          && a.Online.layers_used = 1 + Array.fold_left max 0 a.Online.layer_of_path
          && Testutil.layers_acyclic g ~paths ~layer_of_path:a.Online.layer_of_path
               ~num_layers:a.Online.layers_used
        | Error _ -> reference = None))

let pk_order_invariant_qcheck =
  qtest ~count:30 "pk_order: random insertions keep a valid order" QCheck2.Gen.(int_range 0 10_000)
    (fun seed ->
      let rng = Rng.create seed in
      let g = Topo_random.make ~switches:6 ~switch_radix:8 ~terminals:12 ~inter_links:10 ~rng in
      let pk = Pk_order.create g in
      (* random dependencies between adjacent channels, each checked as a
         set of 2-channel paths by the Kahn oracle *)
      let accepted = ref [] in
      let acyclic edges = Oracles.Acyclic_ref.is_acyclic (Testutil.cdg_of_paths g (Array.of_list edges)) in
      let ok = ref true in
      for _ = 1 to 60 do
        let c1 = Rng.int rng (Graph.num_channels g) in
        let succs = Graph.out_channels g (Graph.channel g c1).Channel.dst in
        if Array.length succs > 0 then begin
          let c2 = Rng.pick rng succs in
          if c1 <> c2 && not (Pk_order.mem pk ~c1 ~c2) then begin
            let candidate = [| c1; c2 |] :: !accepted in
            if Pk_order.insert pk ~c1 ~c2 then begin
              (* accepted: the accepted set must indeed be acyclic *)
              accepted := candidate;
              if not (acyclic !accepted) then ok := false
            end
            else if acyclic candidate then
              (* rejected: accepting it would have been cyclic *)
              ok := false;
            if not (Pk_order.consistent pk) then ok := false
          end
        end
      done;
      !ok)

(* ------------------------------------------------------------------ *)
(* APP                                                                  *)
(* ------------------------------------------------------------------ *)

let test_app_edge_cases () =
  let empty = { App.num_nodes = 0; paths = [||] } in
  check Alcotest.(option int) "empty generator" (Some 0) (App.min_cover_exact empty);
  let gen = App.fig3_example in
  check Alcotest.(option (array int)) "k > n impossible" None (Testutil.app_find_cover gen ~k:4);
  check Alcotest.(option int) "max_k too small" None (App.min_cover_exact ~max_k:1 gen);
  (* complete graphs need n colors; cycles alternate 2/3 *)
  let complete n =
    let edges = ref [] in
    for i = 0 to n - 1 do
      for j = i + 1 to n - 1 do
        edges := (i, j) :: !edges
      done
    done;
    !edges
  in
  check Alcotest.(option int) "K4 needs 4" (Some 4)
    (App.min_cover_exact (Testutil.app_of_coloring ~num_vertices:4 ~edges:(complete 4)));
  let cycle n = List.init n (fun i -> (i, (i + 1) mod n)) in
  check Alcotest.(option int) "C6 needs 2" (Some 2)
    (App.min_cover_exact (Testutil.app_of_coloring ~num_vertices:6 ~edges:(cycle 6)));
  check Alcotest.(option int) "C5 needs 3" (Some 3)
    (App.min_cover_exact (Testutil.app_of_coloring ~num_vertices:5 ~edges:(cycle 5)))

let test_app_fig3 () =
  let gen = App.fig3_example in
  (* p1 + p2 acyclic; all three cyclic *)
  Alcotest.(check bool) "p1+p2 acyclic" true (Testutil.app_induces_acyclic gen [ 0; 1 ]);
  Alcotest.(check bool) "p3 alone acyclic" true (Testutil.app_induces_acyclic gen [ 2 ]);
  Alcotest.(check bool) "all cyclic" false (Testutil.app_induces_acyclic gen [ 0; 1; 2 ]);
  check Alcotest.(option int) "minimum cover" (Some 2) (App.min_cover_exact gen);
  (match Testutil.app_find_cover gen ~k:2 with
  | None -> Alcotest.fail "2-cover must exist"
  | Some a -> Alcotest.(check bool) "witness checks" true (Testutil.app_is_cover gen ~assignment:a ~k:2));
  check Alcotest.(option (array int)) "no 1-cover" None (Testutil.app_find_cover gen ~k:1)

let test_app_is_cover_conditions () =
  let gen = App.fig3_example in
  (* wrong length *)
  Alcotest.(check bool) "wrong length" false (Testutil.app_is_cover gen ~assignment:[| 0; 1 |] ~k:2);
  (* empty class 1 *)
  Alcotest.(check bool) "empty class" false (Testutil.app_is_cover gen ~assignment:[| 0; 0; 0 |] ~k:2);
  (* out of range class *)
  Alcotest.(check bool) "class range" false (Testutil.app_is_cover gen ~assignment:[| 0; 1; 2 |] ~k:2);
  (* cyclic class *)
  Alcotest.(check bool) "cyclic class" false (Testutil.app_is_cover gen ~assignment:[| 0; 0; 0 |] ~k:1)

let test_app_reduction_triangle () =
  let edges = [ (0, 1); (1, 2); (0, 2) ] in
  let gen = Testutil.app_of_coloring ~num_vertices:3 ~edges in
  check Alcotest.int "paths = vertices" 3 (Array.length gen.App.paths);
  check Alcotest.(option int) "chromatic 3" (Some 3)
    (Testutil.app_chromatic_number_exact ~num_vertices:3 ~edges ~max_k:5);
  check Alcotest.(option int) "cover 3" (Some 3) (App.min_cover_exact gen)

let test_app_reduction_bipartite () =
  let edges = [ (0, 2); (0, 3); (1, 2); (1, 3) ] in
  let gen = Testutil.app_of_coloring ~num_vertices:4 ~edges in
  check Alcotest.(option int) "chromatic 2" (Some 2)
    (Testutil.app_chromatic_number_exact ~num_vertices:4 ~edges ~max_k:5);
  check Alcotest.(option int) "cover 2" (Some 2) (App.min_cover_exact gen)

let test_app_reduction_edgeless () =
  let gen = Testutil.app_of_coloring ~num_vertices:4 ~edges:[] in
  check Alcotest.(option int) "cover 1" (Some 1) (App.min_cover_exact gen)

let test_app_of_coloring_errors () =
  Alcotest.check_raises "self loop" (Invalid_argument "app_of_coloring: self loop") (fun () ->
      ignore (Testutil.app_of_coloring ~num_vertices:2 ~edges:[ (1, 1) ]));
  Alcotest.check_raises "duplicate" (Invalid_argument "app_of_coloring: duplicate edge") (fun () ->
      ignore (Testutil.app_of_coloring ~num_vertices:2 ~edges:[ (0, 1); (1, 0) ]));
  Alcotest.check_raises "range" (Invalid_argument "app_of_coloring: vertex out of range") (fun () ->
      ignore (Testutil.app_of_coloring ~num_vertices:2 ~edges:[ (0, 5) ]))

(* The executable heart of Theorem 1: on random small graphs, the minimum
   cover of the reduced APP instance equals the chromatic number. *)
let test_app_cover_to_coloring () =
  let edges = [ (0, 1); (1, 2); (2, 3); (3, 0) ] (* C4, chromatic 2 *) in
  let gen = Testutil.app_of_coloring ~num_vertices:4 ~edges in
  match Testutil.app_find_cover gen ~k:2 with
  | None -> Alcotest.fail "C4 has a 2-cover"
  | Some assignment ->
    let color = Testutil.app_coloring_of_cover ~num_vertices:4 ~assignment in
    Alcotest.(check bool) "cover induces a proper coloring" true
      (Testutil.app_is_proper_coloring ~edges color)

let cover_to_coloring_qcheck =
  qtest ~count:30 "Theorem 1 (<=): every cover of a reduction is a coloring"
    QCheck2.Gen.(pair (int_range 2 6) (list_size (int_range 0 8) (pair (int_range 0 5) (int_range 0 5))))
    (fun (n, raw_edges) ->
      let edges =
        List.sort_uniq compare
          (List.filter_map
             (fun (a, b) ->
               let a = a mod n and b = b mod n in
               if a = b then None else Some (min a b, max a b))
             raw_edges)
      in
      let gen = Testutil.app_of_coloring ~num_vertices:n ~edges in
      match App.min_cover_exact gen with
      | None -> false
      | Some k -> (
        match Testutil.app_find_cover gen ~k with
        | None -> false
        | Some assignment ->
          Testutil.app_is_proper_coloring ~edges (Testutil.app_coloring_of_cover ~num_vertices:n ~assignment)))

let app_reduction_qcheck =
  qtest ~count:40 "Theorem 1 reduction: min cover = chromatic number"
    QCheck2.Gen.(pair (int_range 1 6) (list_size (int_range 0 8) (pair (int_range 0 5) (int_range 0 5))))
    (fun (n, raw_edges) ->
      let edges =
        List.sort_uniq compare
          (List.filter_map
             (fun (a, b) ->
               let a = a mod n and b = b mod n in
               if a = b then None else Some (min a b, max a b))
             raw_edges)
      in
      let gen = Testutil.app_of_coloring ~num_vertices:n ~edges in
      Testutil.app_chromatic_number_exact ~num_vertices:n ~edges ~max_k:n = App.min_cover_exact gen)

(* Kahn's algorithm over an explicit edge list on [m] channels: the
   model's own acyclicity verdict, independent of the library. *)
let edges_acyclic m edges =
  let indeg = Array.make m 0 and succ = Array.make m [] in
  List.iter
    (fun (a, b) ->
      indeg.(b) <- indeg.(b) + 1;
      succ.(a) <- b :: succ.(a))
    edges;
  let queue = Queue.create () and seen = ref 0 in
  Array.iteri (fun c d -> if d = 0 then Queue.add c queue) indeg;
  while not (Queue.is_empty queue) do
    let c = Queue.pop queue in
    incr seen;
    List.iter
      (fun s ->
        indeg.(s) <- indeg.(s) - 1;
        if indeg.(s) = 0 then Queue.add s queue)
      succ.(c)
  done;
  !seen = m

(* Model-based: random insert/forget/mem sequences against a reference
   edge set on small tori and hypercubes, some channels disabled. A
   pair is a turn (c2 among all channels leaving the node c1 enters,
   disabled ones included) or an arbitrary, usually non-adjacent, pair.
   [mem] agrees with the set; [insert] raises on a disabled channel,
   then on a non-turn, and otherwise accepts iff the set plus the edge
   stays acyclic; the order stays consistent. *)
let pk_order_model_qcheck =
  let op = QCheck2.Gen.(quad (int_range 0 2) nat nat bool) in
  qtest ~count:60 "pk_order: insert/forget/mem agree with a reference edge set"
    QCheck2.Gen.(triple (int_range 0 3) nat (list_size (int_range 1 120) op))
    (fun (topo, mask_seed, ops) ->
      let spec = [| "torus:3x3"; "torus:4x3"; "hypercube:3"; "hypercube:4" |].(topo) in
      let g = (Result.get_ok (Harness.Topospec.parse spec)).Harness.Topospec.graph in
      let m = Graph.num_channels g in
      let rng = Rng.create mask_seed in
      let enabled = Array.init m (fun _ -> Rng.int rng 10 > 0) in
      let g = Graph.with_enabled g ~enabled in
      let lstart = Graph.leaving_start g and leaving = Graph.leaving g and head = Graph.heads g in
      let pk = Pk_order.create g in
      let model = ref [] in
      let in_model c1 c2 = List.mem (c1, c2) !model in
      let ok = ref true in
      let expect b = if not b then ok := false in
      List.iter
        (fun (kind, a, b, turn) ->
          let c1 = a mod m in
          let v = head.(c1) in
          let c2 = if turn then leaving.(lstart.(v) + (b mod (lstart.(v + 1) - lstart.(v)))) else b mod m in
          (match kind with
          | 0 -> (
            let verdict = try Ok (Pk_order.insert pk ~c1 ~c2) with Invalid_argument msg -> Error msg in
            if c1 = c2 then expect (verdict = Ok false)
            else if not (enabled.(c1) && enabled.(c2)) then
              expect (verdict = Error "Pk_order.insert: disabled channel")
            else if (Graph.tails g).(c2) <> v then expect (verdict = Error "Pk_order.insert: channels not adjacent")
            else
              let fits = edges_acyclic m ((c1, c2) :: !model) in
              expect (verdict = Ok fits);
              if fits && not (in_model c1 c2) then model := (c1, c2) :: !model)
          | 1 ->
            Pk_order.forget pk ~c1 ~c2;
            model := List.filter (fun e -> e <> (c1, c2)) !model
          | _ -> ());
          expect (Pk_order.mem pk ~c1 ~c2 = in_model c1 c2);
          expect (Pk_order.consistent pk))
        ops;
      (* every turn, at the end *)
      for c1 = 0 to m - 1 do
        let v = head.(c1) in
        for i = lstart.(v) to lstart.(v + 1) - 1 do
          expect (Pk_order.mem pk ~c1 ~c2:leaving.(i) = in_model c1 leaving.(i))
        done
      done;
      !ok)

(* The accepted edges are a bitset over turns: a structure on
   torus:64x64 (24,576 channels) costs O(channels + turns) words, where
   a channels-squared set would take 604M bits. *)
let test_pk_create_footprint () =
  let g = (Result.get_ok (Harness.Topospec.parse "torus:64x64")).Harness.Topospec.graph in
  let m = Graph.num_channels g and turns = (Graph.turn_base g).(Graph.num_channels g) in
  let words () =
    let s = Gc.quick_stat () in
    s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words
  in
  let before = words () in
  let pk = Pk_order.create g in
  let spent = words () -. before in
  Alcotest.(check bool)
    (Printf.sprintf "%.0f words for %d channels and %d turns" spent m turns)
    true
    (spent <= float_of_int (8 * (m + turns)));
  Alcotest.(check bool) "fresh structure is consistent" true (Pk_order.consistent pk)

let () =
  Alcotest.run "cdg"
    [
      ( "cdg",
        [
          Alcotest.test_case "add/remove" `Quick test_cdg_add_remove;
          Alcotest.test_case "shared edges" `Quick test_cdg_shared_edges;
          Alcotest.test_case "successors" `Quick test_cdg_successors;
          Alcotest.test_case "of_store and removal" `Quick test_cdg_of_store_and_removal;
          of_store_parity_qcheck;
        ] );
      ("route_store", [ Alcotest.test_case "basics" `Quick test_route_store_basics ]);
      ( "cycle",
        [
          Alcotest.test_case "kahn detects" `Quick test_acyclic_detects;
          Alcotest.test_case "find and resume" `Quick test_cycle_finds_and_resumes;
          Alcotest.test_case "none on acyclic" `Quick test_cycle_none_on_acyclic;
          Alcotest.test_case "repeat call stable" `Quick test_cycle_repeated_call_stable;
        ] );
      ( "heuristic",
        [
          Alcotest.test_case "strings" `Quick test_heuristic_strings;
          Alcotest.test_case "choice" `Quick test_heuristic_choice;
        ] );
      ( "layers",
        [
          Alcotest.test_case "ring needs 2" `Quick test_layers_ring;
          Alcotest.test_case "budget exhausted" `Quick test_layers_budget_exhausted;
          Alcotest.test_case "acyclic input" `Quick test_layers_acyclic_input_stays_one_layer;
          Alcotest.test_case "empty input" `Quick test_layers_empty;
          Alcotest.test_case "balance" `Quick test_layers_balance;
          Alcotest.test_case "placement pinned on four fabrics" `Quick test_layers_pinned;
          heuristics_all_sound_qcheck;
        ] );
      ( "scc",
        [
          Alcotest.test_case "default engine is scc" `Quick test_default_engine_is_scc;
          Alcotest.test_case "condensation" `Quick test_scc_condensation;
          Alcotest.test_case "self-loop" `Quick test_scc_self_loop_nontrivial;
          Alcotest.test_case "ring needs 2 (both engines)" `Quick test_layers_ring_both_engines;
          Alcotest.test_case "budget exhausted (both engines)" `Quick test_layers_budget_both_engines;
          Alcotest.test_case "acyclic input" `Quick test_scc_acyclic_input;
          Alcotest.test_case "placement runs on one domain" `Quick test_scc_no_pool;
          engines_agree_qcheck;
        ] );
      ( "online",
        [
          Alcotest.test_case "ring needs 2" `Quick test_online_ring;
          Alcotest.test_case "budget exhausted" `Quick test_online_budget;
          online_matches_offline_soundness_qcheck;
          online_mixed_qcheck;
          online_degraded_qcheck;
        ] );
      ( "pk_order",
        [
          Alcotest.test_case "accepts and rejects" `Quick test_pk_accepts_and_rejects;
          Alcotest.test_case "rollback forgets accepted edges" `Quick test_pk_rollback_forgets;
          Alcotest.test_case "insert refuses edges the probes cannot see" `Quick
            test_pk_refuses_invisible_edges;
          Alcotest.test_case "torus 12x12 equals the Kahn reference" `Slow test_online_torus_matches_reference;
          online_matches_reference_qcheck;
          pk_order_invariant_qcheck;
          pk_order_model_qcheck;
          Alcotest.test_case "create allocates O(channels + turns)" `Quick test_pk_create_footprint;
        ] );
      ( "app",
        [
          Alcotest.test_case "edge cases" `Quick test_app_edge_cases;
          Alcotest.test_case "fig3 example" `Quick test_app_fig3;
          Alcotest.test_case "cover conditions" `Quick test_app_is_cover_conditions;
          Alcotest.test_case "triangle reduction" `Quick test_app_reduction_triangle;
          Alcotest.test_case "bipartite reduction" `Quick test_app_reduction_bipartite;
          Alcotest.test_case "edgeless reduction" `Quick test_app_reduction_edgeless;
          Alcotest.test_case "of_coloring errors" `Quick test_app_of_coloring_errors;
          app_reduction_qcheck;
          Alcotest.test_case "cover to coloring" `Quick test_app_cover_to_coloring;
          cover_to_coloring_qcheck;
        ] );
    ]
