(* Tests for the netgraph substrate: PRNG, heap, union-find, graph model,
   builder, paths, coordinates, serialization, and every topology
   generator. *)

let check = Alcotest.check

let qtest ?(count = 100) name gen prop = QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* ------------------------------------------------------------------ *)
(* Rng                                                                  *)
(* ------------------------------------------------------------------ *)

let test_rng_determinism () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_seeds_differ () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Rng.bits64 a = Rng.bits64 b then incr same
  done;
  Alcotest.(check bool) "streams differ" true (!same < 4)

let test_rng_copy () =
  let a = Rng.create 7 in
  let _ = Rng.bits64 a in
  let b = Rng.copy a in
  check Alcotest.int64 "copy continues identically" (Rng.bits64 a) (Rng.bits64 b)

let test_rng_split () =
  let a = Rng.create 7 in
  let b = Rng.split a in
  let xa = Rng.bits64 a and xb = Rng.bits64 b in
  Alcotest.(check bool) "split stream differs" true (xa <> xb)

let test_rng_int_bounds () =
  let rng = Rng.create 3 in
  for _ = 1 to 1000 do
    let v = Rng.int rng 17 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 17)
  done;
  Alcotest.check_raises "zero bound" (Invalid_argument "Rng.int: bound must be positive") (fun () ->
      ignore (Rng.int rng 0))

let test_rng_int_covers () =
  let rng = Rng.create 4 in
  let seen = Array.make 5 false in
  for _ = 1 to 500 do
    seen.(Rng.int rng 5) <- true
  done;
  Alcotest.(check bool) "all values hit" true (Array.for_all Fun.id seen)

let test_rng_shuffle_permutes () =
  let rng = Rng.create 5 in
  let a = Array.init 50 Fun.id in
  Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  check Alcotest.(array int) "still a permutation" (Array.init 50 Fun.id) sorted

let test_rng_sample_distinct () =
  let rng = Rng.create 6 in
  let s = Rng.sample_distinct rng ~n:20 ~bound:30 in
  check Alcotest.int "count" 20 (Array.length s);
  let tbl = Hashtbl.create 32 in
  Array.iter
    (fun v ->
      Alcotest.(check bool) "in bound" true (v >= 0 && v < 30);
      Alcotest.(check bool) "distinct" false (Hashtbl.mem tbl v);
      Hashtbl.replace tbl v ())
    s;
  let all = Rng.sample_distinct rng ~n:10 ~bound:10 in
  Array.sort compare all;
  check Alcotest.(array int) "n = bound is a permutation" (Array.init 10 Fun.id) all

let test_rng_float_bounds () =
  let rng = Rng.create 8 in
  for _ = 1 to 1000 do
    let v = Rng.float rng 2.5 in
    Alcotest.(check bool) "float in range" true (v >= 0.0 && v < 2.5)
  done

let rng_qcheck =
  qtest "rng: pick returns an element" QCheck2.Gen.(pair small_int (array_size (int_range 1 20) small_int))
    (fun (seed, arr) ->
      let rng = Rng.create seed in
      let v = Rng.pick rng arr in
      Array.exists (fun x -> x = v) arr)

(* ------------------------------------------------------------------ *)
(* Heap                                                                 *)
(* ------------------------------------------------------------------ *)

let test_heap_basic () =
  let h = Heap.create 10 in
  Alcotest.(check bool) "empty" true (Heap.is_empty h);
  Heap.insert h 3 30;
  Heap.insert h 1 10;
  Heap.insert h 2 20;
  check Alcotest.int "size" 3 (Heap.size h);
  Alcotest.(check bool) "mem" true (Heap.mem h 2);
  check Alcotest.int "priority" 20 (Heap.priority h 2);
  check Alcotest.(option (pair int int)) "min" (Some (1, 10)) (Heap.pop_min h);
  check Alcotest.(option (pair int int)) "next" (Some (2, 20)) (Heap.pop_min h);
  check Alcotest.(option (pair int int)) "last" (Some (3, 30)) (Heap.pop_min h);
  check Alcotest.(option (pair int int)) "drained" None (Heap.pop_min h)

let test_heap_decrease () =
  let h = Heap.create 5 in
  Heap.insert h 0 100;
  Heap.insert h 1 50;
  Heap.decrease h 0 10;
  check Alcotest.(option (pair int int)) "decreased wins" (Some (0, 10)) (Heap.pop_min h);
  Alcotest.check_raises "decrease absent" (Invalid_argument "Heap.decrease: absent") (fun () ->
      Heap.decrease h 3 1);
  Alcotest.check_raises "increase rejected" (Invalid_argument "Heap.decrease: priority increase")
    (fun () -> Heap.decrease h 1 60)

let test_heap_insert_or_decrease () =
  let h = Heap.create 4 in
  Heap.insert_or_decrease h 2 9;
  Heap.insert_or_decrease h 2 4;
  Heap.insert_or_decrease h 2 7 (* no-op *);
  check Alcotest.int "kept lower" 4 (Heap.priority h 2)

let test_heap_duplicate_insert () =
  let h = Heap.create 4 in
  Heap.insert h 1 5;
  Alcotest.check_raises "duplicate" (Invalid_argument "Heap.insert: already present") (fun () ->
      Heap.insert h 1 6)

let test_heap_clear () =
  let h = Heap.create 4 in
  Heap.insert h 0 1;
  Heap.insert h 1 2;
  Heap.clear h;
  Alcotest.(check bool) "cleared" true (Heap.is_empty h);
  Alcotest.(check bool) "not mem" false (Heap.mem h 0);
  Heap.insert h 0 3;
  check Alcotest.(option (pair int int)) "reusable" (Some (0, 3)) (Heap.pop_min h)

let test_heap_generation_clear () =
  (* clear is O(1): it bumps a generation stamp instead of walking the
     occupied slots. Membership from an old generation must not leak
     into the new one — even for elements that were never popped. *)
  let h = Heap.create 8 in
  for round = 1 to 100 do
    Heap.insert h 0 round;
    Heap.insert h 5 (round + 1);
    Alcotest.(check bool) "mem in-generation" true (Heap.mem h 5);
    Heap.clear h;
    Alcotest.(check bool) "stale mem invalidated" false (Heap.mem h 5);
    Alcotest.(check bool) "empty after clear" true (Heap.is_empty h)
  done;
  Heap.insert h 5 7;
  check Alcotest.int "fresh generation priority" 7 (Heap.priority h 5);
  check Alcotest.(option (pair int int)) "fresh pop" (Some (5, 7)) (Heap.pop_min h)

let heap_sort_qcheck =
  qtest "heap: pops ascending" QCheck2.Gen.(array_size (int_range 0 64) (int_range 0 1000))
    (fun prios ->
      let n = Array.length prios in
      let h = Heap.create (max n 1) in
      Array.iteri (fun i p -> Heap.insert h i p) prios;
      let out = ref [] in
      let rec drain () =
        match Heap.pop_min h with
        | None -> ()
        | Some (_, p) ->
          out := p :: !out;
          drain ()
      in
      drain ();
      let sorted = Array.copy prios in
      Array.sort compare sorted;
      List.rev !out = Array.to_list sorted)

let heap_decrease_qcheck =
  qtest "heap: random decreases keep order"
    QCheck2.Gen.(pair small_int (array_size (int_range 1 40) (int_range 10 1000)))
    (fun (seed, prios) ->
      let rng = Rng.create seed in
      let n = Array.length prios in
      let h = Heap.create n in
      Array.iteri (fun i p -> Heap.insert h i p) prios;
      let current = Array.copy prios in
      for _ = 1 to n do
        let i = Rng.int rng n in
        if Heap.mem h i && current.(i) > 1 then begin
          let p = Rng.int rng current.(i) in
          Heap.decrease h i p;
          current.(i) <- p
        end
      done;
      let rec drain last =
        match Heap.pop_min h with
        | None -> true
        | Some (x, p) -> p >= last && current.(x) = p && drain p
      in
      drain min_int)

(* ------------------------------------------------------------------ *)
(* Dsu                                                                  *)
(* ------------------------------------------------------------------ *)

let test_dsu () =
  let d = Dsu.create 6 in
  check Alcotest.int "initial count" 6 (Dsu.count d);
  Alcotest.(check bool) "fresh union" true (Dsu.union d 0 1);
  Alcotest.(check bool) "repeat union" false (Dsu.union d 1 0);
  Alcotest.(check bool) "same" true (Dsu.same d 0 1);
  Alcotest.(check bool) "not same" false (Dsu.same d 0 2);
  ignore (Dsu.union d 2 3);
  ignore (Dsu.union d 1 3);
  Alcotest.(check bool) "transitive" true (Dsu.same d 0 2);
  check Alcotest.int "count after unions" 3 (Dsu.count d)

let dsu_qcheck =
  qtest "dsu: count = components"
    QCheck2.Gen.(list_size (int_range 0 40) (pair (int_range 0 19) (int_range 0 19)))
    (fun edges ->
      let d = Dsu.create 20 in
      List.iter (fun (a, b) -> ignore (Dsu.union d a b)) edges;
      (* count components by brute force *)
      let repr = Array.init 20 (fun i -> Dsu.find d i) in
      let distinct = List.sort_uniq compare (Array.to_list repr) in
      List.length distinct = Dsu.count d)

(* ------------------------------------------------------------------ *)
(* Graph / Builder                                                      *)
(* ------------------------------------------------------------------ *)

let small_fabric () =
  let b = Builder.create () in
  let s0 = Builder.add_switch b ~name:"s0" in
  let s1 = Builder.add_switch b ~name:"s1" in
  let t0 = Builder.add_terminal b ~name:"t0" ~switch:s0 in
  let t1 = Builder.add_terminal b ~name:"t1" ~switch:s1 in
  let c01, c10 = Builder.add_link b s0 s1 in
  (Builder.build b, s0, s1, t0, t1, c01, c10)

let test_builder_basic () =
  let g, s0, s1, t0, t1, c01, c10 = small_fabric () in
  check Alcotest.int "nodes" 4 (Graph.num_nodes g);
  check Alcotest.int "channels" 6 (Graph.num_channels g);
  check Alcotest.int "switches" 2 (Graph.num_switches g);
  check Alcotest.int "terminals" 2 (Graph.num_terminals g);
  Alcotest.(check bool) "s0 switch" true (Graph.is_switch g s0);
  Alcotest.(check bool) "t0 terminal" true (Graph.is_terminal g t0);
  check Alcotest.(option int) "reverse pairing" (Some c10) (Graph.reverse_channel g c01);
  check Alcotest.(option int) "reverse symmetric" (Some c01) (Graph.reverse_channel g c10);
  let c = Graph.channel g c01 in
  check Alcotest.int "channel src" s0 c.Channel.src;
  check Alcotest.int "channel dst" s1 c.Channel.dst;
  (match Graph.validate g with
  | Ok () -> ()
  | Error e -> Alcotest.failf "validate: %s" e);
  Alcotest.(check bool) "connected" true (Graph.connected g);
  check Alcotest.int "diameter t0->t1" 3 (Graph.diameter g);
  ignore (s1, t1)

let test_builder_errors () =
  let b = Builder.create () in
  let s0 = Builder.add_switch b ~name:"s0" in
  Alcotest.check_raises "self link" (Invalid_argument "Builder.add_link: self link") (fun () ->
      ignore (Builder.add_link b s0 s0));
  Alcotest.check_raises "unknown node" (Invalid_argument "Builder.add_link: unknown node") (fun () ->
      ignore (Builder.add_link b s0 99));
  let _ = Builder.build b in
  Alcotest.check_raises "reuse after build" (Invalid_argument "Builder: already built") (fun () ->
      ignore (Builder.add_switch b ~name:"s1"))

let test_builder_link_count () =
  let b = Builder.create () in
  let s0 = Builder.add_switch b ~name:"s0" in
  let s1 = Builder.add_switch b ~name:"s1" in
  ignore (Builder.add_link b s0 s1);
  ignore (Builder.add_link b s1 s0);
  check Alcotest.int "parallel cables counted" 2 (Builder.link_count b s0 s1);
  check Alcotest.int "order-insensitive" 2 (Builder.link_count b s1 s0)

let test_graph_validate_rejects () =
  (* terminal with two cables *)
  let nodes =
    [|
      { Node.id = 0; kind = Node.Switch; name = "s" };
      { Node.id = 1; kind = Node.Terminal; name = "t" };
    |]
  in
  let channels =
    [|
      { Channel.id = 0; src = 1; dst = 0 };
      { Channel.id = 1; src = 0; dst = 1 };
      { Channel.id = 2; src = 1; dst = 0 };
      { Channel.id = 3; src = 0; dst = 1 };
    |]
  in
  let g = Graph.make ~nodes ~channels ~reverse:[| 1; 0; 3; 2 |] in
  Alcotest.(check bool) "doubly-cabled terminal rejected" true (Result.is_error (Graph.validate g))

let test_graph_validate_more_violations () =
  let sw id name = { Node.id; kind = Node.Switch; name } in
  (* channel id mismatch *)
  let g =
    Graph.make
      ~nodes:[| sw 0 "a"; sw 1 "b" |]
      ~channels:[| { Channel.id = 1; src = 0; dst = 1 } |]
      ~reverse:[| -1 |]
  in
  Alcotest.(check bool) "channel id mismatch" true (Result.is_error (Graph.validate g));
  (* asymmetric reverse *)
  let g2 =
    Graph.make
      ~nodes:[| sw 0 "a"; sw 1 "b" |]
      ~channels:[| { Channel.id = 0; src = 0; dst = 1 }; { Channel.id = 1; src = 0; dst = 1 } |]
      ~reverse:[| 1; -1 |]
  in
  Alcotest.(check bool) "asymmetric reverse" true (Result.is_error (Graph.validate g2));
  (* reverse paired with a same-direction channel *)
  let g3 =
    Graph.make
      ~nodes:[| sw 0 "a"; sw 1 "b" |]
      ~channels:[| { Channel.id = 0; src = 0; dst = 1 }; { Channel.id = 1; src = 0; dst = 1 } |]
      ~reverse:[| 1; 0 |]
  in
  Alcotest.(check bool) "reverse not opposite" true (Result.is_error (Graph.validate g3));
  (* self loop *)
  let g4 =
    Graph.make ~nodes:[| sw 0 "a" |]
      ~channels:[| { Channel.id = 0; src = 0; dst = 0 } |]
      ~reverse:[| -1 |]
  in
  Alcotest.(check bool) "self loop" true (Result.is_error (Graph.validate g4))

let test_cluster_structure () =
  (* deimos full scale: 3 directors of 36 chips + 724 nodes; 30 trunks *)
  let d = (Clusters.deimos ()).Clusters.graph in
  check Alcotest.int "deimos switches" (3 * 36) (Graph.num_switches d);
  (* count inter-director cables: channels between chips of different
     directors (names d1_/d2_/d3_) *)
  let director_of name = String.sub name 0 2 in
  let trunks = ref 0 in
  Array.iter
    (fun (c : Channel.t) ->
      match Graph.reverse_channel d c.id with
      | Some r when r < c.id -> ()
      | _ ->
        let a = Graph.node d c.src and b = Graph.node d c.dst in
        if
          Node.is_switch a && Node.is_switch b
          && director_of a.Node.name <> director_of b.Node.name
        then incr trunks)
    (Graph.channels d);
  check Alcotest.int "30 trunk cables" 30 !trunks;
  (* odin: 144-port director = 12 leaves + 6 spines *)
  let o = (Clusters.odin ()).Clusters.graph in
  check Alcotest.int "odin chips" 18 (Graph.num_switches o);
  check Alcotest.int "odin nodes" 128 (Graph.num_terminals o)

let test_graph_disconnected () =
  let b = Builder.create () in
  let _ = Builder.add_switch b ~name:"a" in
  let _ = Builder.add_switch b ~name:"b" in
  let g = Builder.build b in
  Alcotest.(check bool) "disconnected" false (Graph.connected g)

let test_bfs_dist () =
  let g = Topo_ring.make ~switches:6 ~terminals_per_switch:0 in
  let dist = Graph.bfs_dist g 0 in
  check Alcotest.(array int) "ring distances" [| 0; 1; 2; 3; 2; 1 |] dist

(* [Graph.attached]'s definition, spelled out: the one node [s <> v]
   that every enabled channel of terminal [v] joins it to. *)
let attached_ref g v =
  let ends =
    List.map (fun c -> (Graph.channel g c).Channel.dst) (Array.to_list (Graph.out_channels g v))
    @ List.map (fun c -> (Graph.channel g c).Channel.src) (Array.to_list (Graph.in_channels g v))
  in
  match List.sort_uniq compare ends with
  | [ s ] when Graph.is_terminal g v && s <> v -> s
  | _ -> -1

let check_flat_arrays name g =
  let heads = Graph.heads g and tails = Graph.tails g in
  check Alcotest.int (name ^ ": heads size") (Graph.num_channels g) (Array.length heads);
  check Alcotest.int (name ^ ": tails size") (Graph.num_channels g) (Array.length tails);
  Array.iteri
    (fun c (ch : Channel.t) ->
      if heads.(c) <> ch.dst || tails.(c) <> ch.src then
        Alcotest.failf "%s: channel %d is %d -> %d, flat arrays say %d -> %d" name c ch.src ch.dst
          tails.(c) heads.(c))
    (Graph.channels g);
  check Alcotest.(array int) (name ^ ": attached") (Array.init (Graph.num_nodes g) (attached_ref g)) (Graph.attached g)

(* Every generator family, healthy and with the first switch cable
   that can go down disabled (heads/tails are shared, attached is
   recomputed). *)
let test_flat_arrays_families () =
  List.iter
    (fun spec ->
      match Harness.Topospec.parse spec with
      | Error msg -> Alcotest.failf "%s: %s" spec msg
      | Ok t -> (
        let g = t.Harness.Topospec.graph in
        check_flat_arrays spec g;
        let degraded =
          Array.to_seq (Degrade.switch_cables g)
          |> Seq.find_map (fun cable -> Result.to_option (Degrade.disable_cable g ~cable))
        in
        match degraded with
        | Some (g', _) -> check_flat_arrays (spec ^ " degraded") g'
        | None -> Alcotest.failf "%s: no switch cable can go down" spec))
    [
      "ring:5:2";
      "torus:3x4:2";
      "mesh:3x3:1";
      "hypercube:3:2";
      "tree:3,2";
      "xgft:3,2/1,2:12";
      "kautz:2,3:24";
      "dragonfly:3,2,1";
      "hyperx:3x3:1";
      "random:8,10,16,14:3";
      "jellyfish:16,8,4:2";
      "xpander:4,3:1";
      "cluster:chic:8";
    ]

(* The edges of [attached]: parallel cables, a dual-homed terminal, a
   terminal cabled to a terminal, and the masks that change them. *)
let test_attached_edges () =
  let b = Builder.create () in
  let s0 = Builder.add_switch b ~name:"s0" and s1 = Builder.add_switch b ~name:"s1" in
  ignore (Builder.add_link b s0 s1);
  let single = Builder.add_terminal b ~name:"single" ~switch:s0 in
  let parallel = Builder.add_terminal b ~name:"parallel" ~switch:s1 in
  ignore (Builder.add_link b parallel s1);
  let dual = Builder.add_terminal b ~name:"dual" ~switch:s0 in
  let second, second' = Builder.add_link b dual s1 in
  let leaf = Builder.add_terminal b ~name:"leaf" ~switch:single in
  let g = Builder.build b in
  let at g v = (Graph.attached g).(v) in
  check Alcotest.int "switch" (-1) (at g s0);
  check Alcotest.int "relaying terminal" (-1) (at g single);
  check Alcotest.int "parallel cables" s1 (at g parallel);
  check Alcotest.int "dual-homed" (-1) (at g dual);
  check Alcotest.int "on a terminal" single (at g leaf);
  check_flat_arrays "edges" g;
  let enabled = Array.make (Graph.num_channels g) true in
  enabled.(second) <- false;
  enabled.(second') <- false;
  Array.iter (fun c -> enabled.(c) <- false) (Graph.out_channels g leaf);
  Array.iter (fun c -> enabled.(c) <- false) (Graph.in_channels g leaf);
  let g' = Graph.with_enabled g ~enabled in
  check Alcotest.int "dual-homed, second cable down" s0 (at g' dual);
  check Alcotest.int "isolated" (-1) (at g' leaf);
  check Alcotest.int "no longer relaying" s0 (at g' single);
  check_flat_arrays "edges degraded" g';
  check Alcotest.int "the mask leaves g alone" (-1) (at g dual)

(* ------------------------------------------------------------------ *)
(* Path                                                                 *)
(* ------------------------------------------------------------------ *)

let test_path () =
  let g, _, _, t0, t1, c01, _ = small_fabric () in
  (* t0 -> s0 -> s1 -> t1 *)
  let inj = (Graph.out_channels g t0).(0) in
  let eject = (Graph.in_channels g t1).(0) in
  let p = [| inj; c01; eject |] in
  Alcotest.(check bool) "consistent" true (Path.is_consistent g p);
  Alcotest.(check bool) "simple" true (Path.is_simple g p);
  check Alcotest.int "source" t0 (Path.source g p);
  check Alcotest.int "target" t1 (Path.target g p);
  check Alcotest.int "length" 3 (Path.length p);
  check Alcotest.int "node count" 4 (Array.length (Path.node_sequence g p));
  check
    Alcotest.(list (pair int int))
    "dependencies"
    [ (inj, c01); (c01, eject) ]
    (Path.dependencies p);
  let bad = [| c01; inj |] in
  Alcotest.(check bool) "inconsistent detected" false (Path.is_consistent g bad)

let test_path_simple_rejects_revisit () =
  let g = Topo_ring.make ~switches:3 ~terminals_per_switch:0 in
  (* find channels 0->1, 1->2, 2->0: walk around the ring back to start *)
  let chan a b =
    let found = ref (-1) in
    Array.iter (fun c -> if (Graph.channel g c).Channel.dst = b then found := c) (Graph.out_channels g a);
    !found
  in
  let p = [| chan 0 1; chan 1 2; chan 2 0 |] in
  Alcotest.(check bool) "consistent loop" true (Path.is_consistent g p);
  Alcotest.(check bool) "not simple" false (Path.is_simple g p)

(* ------------------------------------------------------------------ *)
(* Coords                                                               *)
(* ------------------------------------------------------------------ *)

let test_coords () =
  let c = Coords.make ~dims:[| 3; 4 |] ~wrap:[| true; false |] in
  check Alcotest.int "dims" 2 (Coords.num_dims c);
  Coords.set c ~node:7 ~coord:[| 2; 3 |];
  check Alcotest.(array int) "get" [| 2; 3 |] (Coords.get c 7);
  check Alcotest.int "node_at" 7 (Coords.node_at c [| 2; 3 |]);
  Alcotest.(check bool) "mem" true (Coords.mem c 7);
  Alcotest.(check bool) "not mem" false (Coords.mem c 8);
  Alcotest.check_raises "arity" (Invalid_argument "Coords.set: wrong arity") (fun () ->
      Coords.set c ~node:1 ~coord:[| 1 |]);
  Alcotest.check_raises "range" (Invalid_argument "Coords.set: out of range") (fun () ->
      Coords.set c ~node:1 ~coord:[| 3; 0 |])

(* ------------------------------------------------------------------ *)
(* Topology generators                                                  *)
(* ------------------------------------------------------------------ *)

let valid g =
  match Graph.validate g with
  | Ok () -> Graph.connected g
  | Error e -> Alcotest.failf "invalid topology: %s" e

let test_ring () =
  let g = Topo_ring.make ~switches:5 ~terminals_per_switch:2 in
  check Alcotest.int "switches" 5 (Graph.num_switches g);
  check Alcotest.int "terminals" 10 (Graph.num_terminals g);
  (* 5 ring cables + 10 terminal cables, 2 directed each *)
  check Alcotest.int "channels" 30 (Graph.num_channels g);
  Alcotest.(check bool) "valid" true (valid g);
  Alcotest.check_raises "too small" (Invalid_argument "Topo_ring.make: need at least 3 switches")
    (fun () -> ignore (Topo_ring.make ~switches:2 ~terminals_per_switch:0))

let test_torus () =
  let g, coords = Topo_torus.torus ~dims:[| 4; 4 |] ~terminals_per_switch:1 in
  check Alcotest.int "switches" 16 (Graph.num_switches g);
  check Alcotest.int "terminals" 16 (Graph.num_terminals g);
  (* per switch: 4 grid neighbours: 32 cables + 16 terminal cables *)
  check Alcotest.int "channels" ((32 + 16) * 2) (Graph.num_channels g);
  Alcotest.(check bool) "valid" true (valid g);
  Array.iter
    (fun sw -> Alcotest.(check bool) "has coords" true (Coords.mem coords sw))
    (Graph.switches g)

let test_torus_size2_no_duplicate () =
  let g, _ = Topo_torus.torus ~dims:[| 2; 2 |] ~terminals_per_switch:0 in
  (* size-2 wrap must not double the cable: 4 cables only *)
  check Alcotest.int "channels" 8 (Graph.num_channels g);
  Alcotest.(check bool) "valid" true (valid g)

let test_mesh () =
  let g, _ = Topo_torus.mesh ~dims:[| 3; 3 |] ~terminals_per_switch:1 in
  (* 2*3*2 = 12 grid cables + 9 terminal cables *)
  check Alcotest.int "channels" ((12 + 9) * 2) (Graph.num_channels g);
  Alcotest.(check bool) "valid" true (valid g)

let test_hypercube () =
  let g, _ = Topo_hypercube.make ~dim:4 ~terminals_per_switch:1 in
  check Alcotest.int "switches" 16 (Graph.num_switches g);
  Array.iter
    (fun sw -> check Alcotest.int "degree = dim + terminal" 5 (Graph.degree g sw))
    (Graph.switches g);
  Alcotest.(check bool) "valid" true (valid g)

let test_tree () =
  let g = Topo_tree.make ~k:4 ~n:3 () in
  check Alcotest.int "switches" (Topo_tree.num_switches ~k:4 ~n:3) (Graph.num_switches g);
  check Alcotest.int "switch count formula" 48 (Topo_tree.num_switches ~k:4 ~n:3);
  check Alcotest.int "terminals" 64 (Graph.num_terminals g);
  Alcotest.(check bool) "valid" true (valid g);
  (* leaf switches carry k terminals each; top level has k down-links *)
  let g2 = Topo_tree.make ~k:4 ~n:3 ~endpoints:50 () in
  check Alcotest.int "endpoint override" 50 (Graph.num_terminals g2)

let test_xgft () =
  let ms = [| 4; 3 |] and ws = [| 2; 2 |] in
  check Alcotest.int "leaves" 12 (Topo_xgft.num_leaves ~ms);
  (* level counts: l0 = 12, l1 = 3*2 = 6, l2 = 4 *)
  check Alcotest.int "switches" 22 (Topo_xgft.num_switches ~ms ~ws);
  let g = Topo_xgft.make ~ms ~ws ~endpoints:100 in
  check Alcotest.int "generated switches" 22 (Graph.num_switches g);
  check Alcotest.int "terminals" 100 (Graph.num_terminals g);
  Alcotest.(check bool) "valid" true (valid g);
  (* every leaf has w1 = 2 parents plus its terminals *)
  match Routing.Ftree.levels g with
  | Error e -> Alcotest.failf "levels: %s" e
  | Ok levels ->
    Array.iter
      (fun sw ->
        if levels.(sw) = 0 then begin
          let ups =
            Array.to_list (Graph.out_channels g sw)
            |> List.filter (fun c ->
                   let v = (Graph.channel g c).Channel.dst in
                   Graph.is_switch g v)
            |> List.length
          in
          check Alcotest.int "leaf uplinks" 2 ups
        end)
      (Graph.switches g)

let test_kautz () =
  check Alcotest.int "K(2,2) switches" 6 (Topo_kautz.num_switches ~b:2 ~n:2);
  check Alcotest.int "K(3,3) switches" 36 (Topo_kautz.num_switches ~b:3 ~n:3);
  let g = Topo_kautz.make ~b:2 ~n:3 ~endpoints:48 in
  check Alcotest.int "K(2,3) switches" 12 (Graph.num_switches g);
  check Alcotest.int "terminals" 48 (Graph.num_terminals g);
  Alcotest.(check bool) "valid" true (valid g)

let test_random_topo () =
  let rng = Rng.create 99 in
  let g = Topo_random.make ~switches:10 ~switch_radix:8 ~terminals:20 ~inter_links:15 ~rng in
  check Alcotest.int "switches" 10 (Graph.num_switches g);
  check Alcotest.int "terminals" 20 (Graph.num_terminals g);
  (* 20 terminal cables + 15 inter-switch cables *)
  check Alcotest.int "channels" ((20 + 15) * 2) (Graph.num_channels g);
  Alcotest.(check bool) "valid" true (valid g);
  (* radix respected *)
  Array.iter
    (fun sw -> Alcotest.(check bool) "radix" true (Graph.degree g sw <= 8))
    (Graph.switches g);
  Alcotest.check_raises "too few links"
    (Invalid_argument "Topo_random.make: too few links for connectivity") (fun () ->
      ignore (Topo_random.make ~switches:10 ~switch_radix:8 ~terminals:0 ~inter_links:5 ~rng))

let random_topo_qcheck =
  qtest ~count:30 "random topology: connected and within radix" QCheck2.Gen.(int_range 0 10000)
    (fun seed ->
      let rng = Rng.create seed in
      let g = Topo_random.make ~switches:12 ~switch_radix:10 ~terminals:24 ~inter_links:20 ~rng in
      Graph.connected g
      && Array.for_all (fun sw -> Graph.degree g sw <= 10) (Graph.switches g)
      && Result.is_ok (Graph.validate g))

let test_dragonfly () =
  let g = Topo_dragonfly.make ~a:4 ~p:2 ~h:2 () in
  (* canonical group count a*h+1 = 9 *)
  check Alcotest.int "switches" 36 (Graph.num_switches g);
  check Alcotest.int "num_switches helper" 36 (Topo_dragonfly.num_switches ~a:4 ~h:2 ());
  check Alcotest.int "terminals" 72 (Graph.num_terminals g);
  Alcotest.(check bool) "valid" true (valid g);
  (* every switch: (a-1) local + h global + p terminal cables *)
  Array.iter
    (fun sw -> check Alcotest.int "degree" (3 + 2 + 2) (Graph.degree g sw))
    (Graph.switches g);
  (* diameter of a canonical dragonfly switch graph is 3 (l-g-l) *)
  let sw_only = Topo_dragonfly.make ~a:4 ~p:0 ~h:2 () in
  check Alcotest.int "switch diameter" 3 (Graph.diameter sw_only);
  Alcotest.check_raises "too many groups"
    (Invalid_argument "Topo_dragonfly.make: too many groups for a*h global ports") (fun () ->
      ignore (Topo_dragonfly.make ~a:2 ~p:1 ~h:1 ~groups:9 ()));
  (* reduced group count still valid and connected *)
  let small = Topo_dragonfly.make ~a:4 ~p:1 ~h:2 ~groups:5 () in
  Alcotest.(check bool) "reduced groups valid" true (valid small)

let test_hyperx () =
  let g, coords = Topo_hyperx.make ~dims:[| 3; 4 |] ~terminals_per_switch:2 in
  check Alcotest.int "switches" 12 (Graph.num_switches g);
  check Alcotest.int "terminals" 24 (Graph.num_terminals g);
  (* cables: rows of dim0 (4 rows? dims [3;4]: dim0 rows = 4 columns each C(3,2)=3 -> 12;
     dim1 rows = 3 each C(4,2)=6 -> 18; total 30 *)
  check Alcotest.int "cable count formula" 30 (Topo_hyperx.num_cables ~dims:[| 3; 4 |]);
  check Alcotest.int "channels" ((30 + 24) * 2) (Graph.num_channels g);
  Alcotest.(check bool) "valid" true (valid g);
  (* diameter of switch graph = #dims *)
  let sw_only, _ = Topo_hyperx.make ~dims:[| 3; 4 |] ~terminals_per_switch:0 in
  check Alcotest.int "diameter = dims" 2 (Graph.diameter sw_only);
  Array.iter (fun sw -> Alcotest.(check bool) "has coords" true (Coords.mem coords sw)) (Graph.switches g);
  Alcotest.check_raises "size 1 rejected" (Invalid_argument "Topo_hyperx.make: dimension size < 2")
    (fun () -> ignore (Topo_hyperx.make ~dims:[| 1; 3 |] ~terminals_per_switch:0))

let test_clusters () =
  List.iter
    (fun (s : Clusters.system) ->
      Alcotest.(check bool) (s.Clusters.name ^ " valid") true (valid s.Clusters.graph))
    (Clusters.all ~scale:8 ());
  (* Odin and Deimos at full scale too (small enough) *)
  Alcotest.(check bool) "odin full" true (valid (Clusters.odin ()).Clusters.graph);
  let deimos = Clusters.deimos () in
  Alcotest.(check bool) "deimos full" true (valid deimos.Clusters.graph);
  check Alcotest.int "deimos nodes" 724 (Graph.num_terminals deimos.Clusters.graph);
  check Alcotest.(option string) "lookup" (Some "Deimos")
    (Option.map (fun s -> s.Clusters.name) (Clusters.by_name ~scale:8 "deimos"));
  check Alcotest.(option string) "lookup miss" None
    (Option.map (fun s -> s.Clusters.name) (Clusters.by_name "nonesuch"))

(* ------------------------------------------------------------------ *)
(* Parallel                                                             *)
(* ------------------------------------------------------------------ *)

let test_parallel_map () =
  let a = Array.init 1000 Fun.id in
  let seq = Array.map (fun x -> x * x) a in
  List.iter
    (fun domains ->
      check Alcotest.(array int) (Printf.sprintf "%d domains" domains) seq
        (Parallel.map_array ~domains (fun x -> x * x) a))
    [ 1; 2; 4; 7 ];
  check Alcotest.(array int) "empty" [||] (Parallel.map_array ~domains:4 (fun x -> x) [||]);
  check Alcotest.(array int) "singleton" [| 9 |] (Parallel.map_array ~domains:4 (fun x -> x * x) [| 3 |])

let test_parallel_init () =
  check Alcotest.(array int) "init" (Array.init 100 (fun i -> 2 * i))
    (Parallel.init ~domains:3 100 (fun i -> 2 * i));
  Alcotest.(check bool) "recommended sane" true
    (let d = Parallel.recommended_domains () in
     d >= 1 && d <= 8)

let test_parallel_exception () =
  Alcotest.check_raises "propagates" (Failure "boom") (fun () ->
      ignore (Parallel.map_array ~domains:4 (fun x -> if x = 500 then failwith "boom" else x) (Array.init 800 Fun.id)))

let test_pool_run_and_scratch () =
  List.iter
    (fun domains ->
      Parallel.Pool.with_pool ~domains
        (fun slot -> (slot, Array.make 100 0))
        (fun pool ->
          Alcotest.(check int) "size" (max 1 domains) (Parallel.Pool.size pool);
          let out = Array.make 1000 0 in
          (* several invocations reuse the same workers *)
          for round = 1 to 3 do
            Parallel.Pool.run pool ~n:1000 (fun _s i -> out.(i) <- (round * i) + 1)
          done;
          check Alcotest.(array int) (Printf.sprintf "run %d domains" domains)
            (Array.init 1000 (fun i -> (3 * i) + 1))
            out;
          (* scratch: every slot got a distinct state; increments observed
             via iter_scratch sum to the item count *)
          Parallel.Pool.run pool ~n:500 (fun (_, tally) _i -> tally.(0) <- tally.(0) + 1);
          let total = ref 0 in
          Parallel.Pool.iter_scratch pool (fun (_, tally) -> total := !total + tally.(0));
          Alcotest.(check int) (Printf.sprintf "scratch sum %d domains" domains) 500 !total))
    [ 1; 2; 4 ]

let test_pool_exception_and_shutdown () =
  let pool = Parallel.Pool.create ~domains:4 (fun _slot -> ()) in
  Alcotest.check_raises "propagates" (Failure "pool boom") (fun () ->
      Parallel.Pool.run pool ~n:800 (fun () i -> if i = 400 then failwith "pool boom"));
  (* the pool survives a failed task *)
  let hits = Atomic.make 0 in
  Parallel.Pool.run pool ~n:100 (fun () _ -> Atomic.incr hits);
  Alcotest.(check int) "usable after failure" 100 (Atomic.get hits);
  Parallel.Pool.shutdown pool;
  Parallel.Pool.shutdown pool (* idempotent *);
  Alcotest.check_raises "run after shutdown" (Invalid_argument "Parallel.Pool.run: pool is shut down")
    (fun () -> Parallel.Pool.run pool ~n:10 (fun () _ -> ()))

(* ------------------------------------------------------------------ *)
(* Degrade                                                              *)
(* ------------------------------------------------------------------ *)

let test_degrade_remove_cables () =
  let g, _ = Topo_torus.torus ~dims:[| 4; 4 |] ~terminals_per_switch:1 in
  let rng = Rng.create 3 in
  let g', removed = Degrade.remove_cables g ~rng ~count:5 in
  check Alcotest.int "removed as asked" 5 removed;
  check Alcotest.int "channels dropped" (Graph.num_channels g - 10) (Graph.num_channels g');
  check Alcotest.int "nodes kept" (Graph.num_nodes g) (Graph.num_nodes g');
  Alcotest.(check bool) "still valid" true (valid g')

let test_degrade_respects_connectivity () =
  (* a ring has no redundant cable once one is gone *)
  let g = Topo_ring.make ~switches:5 ~terminals_per_switch:1 in
  let rng = Rng.create 4 in
  let g', removed = Degrade.remove_cables g ~rng ~count:3 in
  check Alcotest.int "only one removable" 1 removed;
  Alcotest.(check bool) "still connected" true (Graph.connected g')

let degrade_qcheck =
  qtest ~count:25 "degrade: connected at any removal count" QCheck2.Gen.(pair (int_range 0 500) (int_range 0 20))
    (fun (seed, count) ->
      let rng = Rng.create seed in
      let g = Topo_random.make ~switches:8 ~switch_radix:10 ~terminals:16 ~inter_links:14 ~rng in
      let g', removed = Degrade.remove_cables g ~rng ~count in
      removed <= count && Graph.connected g' && Result.is_ok (Graph.validate g'))

let test_degrade_remove_switch () =
  let g = Topo_xgft.make ~ms:[| 4; 4 |] ~ws:[| 2; 2 |] ~endpoints:32 in
  (* removing one spine keeps the tree connected *)
  let spine =
    let levels = Result.get_ok (Routing.Ftree.levels g) in
    Array.to_list (Graph.switches g) |> List.find (fun sw -> levels.(sw) = 2)
  in
  (match Degrade.remove_switch g ~switch:spine with
  | Error e -> Alcotest.fail e
  | Ok g' ->
    check Alcotest.int "one switch fewer" (Graph.num_switches g - 1) (Graph.num_switches g');
    check Alcotest.int "terminals kept" 32 (Graph.num_terminals g');
    Alcotest.(check bool) "valid" true (valid g'));
  (* removing a leaf takes its terminals with it *)
  let leaf =
    let levels = Result.get_ok (Routing.Ftree.levels g) in
    Array.to_list (Graph.switches g) |> List.find (fun sw -> levels.(sw) = 0)
  in
  (match Degrade.remove_switch g ~switch:leaf with
  | Error e -> Alcotest.fail e
  | Ok g' -> check Alcotest.int "terminals dropped" 30 (Graph.num_terminals g'));
  Alcotest.(check bool) "terminal id rejected" true
    (Result.is_error (Degrade.remove_switch g ~switch:(Graph.terminals g).(0)))

(* ------------------------------------------------------------------ *)
(* Serial                                                               *)
(* ------------------------------------------------------------------ *)

let test_serial_roundtrip () =
  let g = Topo_ring.make ~switches:4 ~terminals_per_switch:2 in
  let text = Serial.to_string g in
  match Serial.of_string text with
  | Error e -> Alcotest.failf "parse: %s" e
  | Ok g2 ->
    check Alcotest.int "nodes" (Graph.num_nodes g) (Graph.num_nodes g2);
    check Alcotest.int "channels" (Graph.num_channels g) (Graph.num_channels g2);
    check Alcotest.int "terminals" (Graph.num_terminals g) (Graph.num_terminals g2);
    Alcotest.(check bool) "valid" true (valid g2);
    (* idempotent second round trip *)
    check Alcotest.string "canonical form" text (Serial.to_string g2)

let test_serial_multiplicity () =
  let input = "switch a\nswitch b\nlink a b 3\nterminal t0 a\n" in
  (match Serial.of_string input with
  | Error e -> Alcotest.failf "parse: %s" e
  | Ok g -> check Alcotest.int "three cables + terminal" 8 (Graph.num_channels g));
  (* the bound itself is accepted *)
  match Serial.of_string (Printf.sprintf "switch a\nswitch b\nlink a b %d\n" Builder.max_multiplicity) with
  | Error e -> Alcotest.failf "parse at the bound: %s" e
  | Ok g -> check Alcotest.int "cables at the bound" (2 * Builder.max_multiplicity) (Graph.num_channels g)

let test_serial_errors () =
  let expect_error input fragment =
    match Serial.of_string input with
    | Ok _ -> Alcotest.failf "expected parse error for %S" input
    | Error msg ->
      Alcotest.(check bool)
        (Printf.sprintf "error mentions %S (got %S)" fragment msg)
        true
        (Testutil.contains msg fragment)
  in
  expect_error "switch a\nswitch a\n" "duplicate";
  expect_error "terminal t0 nowhere\n" "unknown switch";
  expect_error "link a b\n" "unknown node";
  expect_error "switch a\nswitch b\nlink a b zero\n" "multiplicity";
  (* refused before a single cable is added *)
  expect_error "switch a\nswitch b\nlink a b 1000000000\n"
    "line 3: multiplicity 1000000000 exceeds the limit of 255";
  expect_error "switch a\nswitch b\nlink a b 256\n" "exceeds the limit";
  expect_error "frobnicate\n" "unrecognized";
  expect_error "switch a\nlink a a\n" "self link"

let test_serial_comments_and_blanks () =
  let input = "# a comment\n\nswitch a\n  \nswitch b\nlink a b\n" in
  match Serial.of_string input with
  | Error e -> Alcotest.failf "parse: %s" e
  | Ok g -> check Alcotest.int "nodes" 2 (Graph.num_nodes g)

(* Every --dot export is Topo_import's dialect: it parses back strictly
   with the same nodes, switches, terminals and channels. *)
let test_dot () =
  let g = Topo_ring.make ~switches:3 ~terminals_per_switch:1 in
  match Topo_import.parse_dot (Topo_import.write_dot g) with
  | Error e -> Alcotest.failf "parse_dot: %s" e
  | Ok { Topo_import.graph = g'; _ } ->
    check Alcotest.int "nodes" (Graph.num_nodes g) (Graph.num_nodes g');
    check Alcotest.int "switches" (Graph.num_switches g) (Graph.num_switches g');
    check Alcotest.int "terminals" (Graph.num_terminals g) (Graph.num_terminals g');
    check Alcotest.int "channels" (Graph.num_channels g) (Graph.num_channels g')

let () =
  Alcotest.run "netgraph"
    [
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "seeds differ" `Quick test_rng_seeds_differ;
          Alcotest.test_case "copy" `Quick test_rng_copy;
          Alcotest.test_case "split" `Quick test_rng_split;
          Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
          Alcotest.test_case "int covers" `Quick test_rng_int_covers;
          Alcotest.test_case "shuffle permutes" `Quick test_rng_shuffle_permutes;
          Alcotest.test_case "sample distinct" `Quick test_rng_sample_distinct;
          Alcotest.test_case "float bounds" `Quick test_rng_float_bounds;
          rng_qcheck;
        ] );
      ( "heap",
        [
          Alcotest.test_case "basic" `Quick test_heap_basic;
          Alcotest.test_case "decrease" `Quick test_heap_decrease;
          Alcotest.test_case "insert_or_decrease" `Quick test_heap_insert_or_decrease;
          Alcotest.test_case "duplicate insert" `Quick test_heap_duplicate_insert;
          Alcotest.test_case "clear" `Quick test_heap_clear;
          Alcotest.test_case "generation clear" `Quick test_heap_generation_clear;
          heap_sort_qcheck;
          heap_decrease_qcheck;
        ] );
      ("dsu", [ Alcotest.test_case "basic" `Quick test_dsu; dsu_qcheck ]);
      ( "graph",
        [
          Alcotest.test_case "builder basic" `Quick test_builder_basic;
          Alcotest.test_case "builder errors" `Quick test_builder_errors;
          Alcotest.test_case "link count" `Quick test_builder_link_count;
          Alcotest.test_case "validate rejects bad terminal" `Quick test_graph_validate_rejects;
          Alcotest.test_case "validate rejects more" `Quick test_graph_validate_more_violations;
          Alcotest.test_case "cluster structure" `Slow test_cluster_structure;
          Alcotest.test_case "disconnected" `Quick test_graph_disconnected;
          Alcotest.test_case "bfs dist" `Quick test_bfs_dist;
          Alcotest.test_case "flat endpoint arrays on every family" `Quick test_flat_arrays_families;
          Alcotest.test_case "attached edges" `Quick test_attached_edges;
        ] );
      ( "path",
        [
          Alcotest.test_case "basics" `Quick test_path;
          Alcotest.test_case "revisit not simple" `Quick test_path_simple_rejects_revisit;
        ] );
      ("coords", [ Alcotest.test_case "basics" `Quick test_coords ]);
      ( "topologies",
        [
          Alcotest.test_case "ring" `Quick test_ring;
          Alcotest.test_case "torus" `Quick test_torus;
          Alcotest.test_case "torus size-2" `Quick test_torus_size2_no_duplicate;
          Alcotest.test_case "mesh" `Quick test_mesh;
          Alcotest.test_case "hypercube" `Quick test_hypercube;
          Alcotest.test_case "k-ary n-tree" `Quick test_tree;
          Alcotest.test_case "xgft" `Quick test_xgft;
          Alcotest.test_case "kautz" `Quick test_kautz;
          Alcotest.test_case "random" `Quick test_random_topo;
          random_topo_qcheck;
          Alcotest.test_case "dragonfly" `Quick test_dragonfly;
          Alcotest.test_case "hyperx" `Quick test_hyperx;
          Alcotest.test_case "clusters" `Slow test_clusters;
        ] );
      ( "parallel",
        [
          Alcotest.test_case "map" `Quick test_parallel_map;
          Alcotest.test_case "init" `Quick test_parallel_init;
          Alcotest.test_case "exception" `Quick test_parallel_exception;
          Alcotest.test_case "pool run and scratch" `Quick test_pool_run_and_scratch;
          Alcotest.test_case "pool exception and shutdown" `Quick test_pool_exception_and_shutdown;
        ] );
      ( "degrade",
        [
          Alcotest.test_case "remove cables" `Quick test_degrade_remove_cables;
          Alcotest.test_case "connectivity kept" `Quick test_degrade_respects_connectivity;
          degrade_qcheck;
          Alcotest.test_case "remove switch" `Quick test_degrade_remove_switch;
        ] );
      ( "serial",
        [
          Alcotest.test_case "roundtrip" `Quick test_serial_roundtrip;
          Alcotest.test_case "multiplicity" `Quick test_serial_multiplicity;
          Alcotest.test_case "errors" `Quick test_serial_errors;
          Alcotest.test_case "comments" `Quick test_serial_comments_and_blanks;
          Alcotest.test_case "dot export" `Quick test_dot;
        ] );
    ]
