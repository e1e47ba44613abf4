(* Tests for the routing engines: the heap shortest-path core, forwarding tables,
   and the six algorithms the paper compares (MinHop, SSSP, Up*/Down*,
   DOR, FatTree, LASH). *)

open Routing

let check = Alcotest.check

let qtest ?(count = 40) name gen prop = QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let expect label = function
  | Ok x -> x
  | Error e -> Alcotest.failf "%s: %s" label e

let stats label ft = expect label (Ftable.validate ft)

(* shared fixtures *)
let ring5 = lazy (Topo_ring.make ~switches:5 ~terminals_per_switch:1)
let torus44 = lazy (Topo_torus.torus ~dims:[| 4; 4 |] ~terminals_per_switch:2)
let mesh33 = lazy (Topo_torus.mesh ~dims:[| 3; 3 |] ~terminals_per_switch:2)
let tree62 = lazy (Topo_tree.make ~k:6 ~n:2 ())
let xgft_small = lazy (Topo_xgft.make ~ms:[| 4; 4 |] ~ws:[| 2; 2 |] ~endpoints:48)
let kautz23 = lazy (Topo_kautz.make ~b:2 ~n:3 ~endpoints:36)

(* ------------------------------------------------------------------ *)
(* Heap shortest-path core                                              *)
(* ------------------------------------------------------------------ *)

let test_dijkstra_matches_bfs () =
  let g = fst (Lazy.force torus44) in
  let ws = Spf.workspace ~kernel:Spf.Heap g in
  let stamp = Spf.fresh_stamp () in
  Array.iter
    (fun dst ->
      let { Spf.dist; via; _ } = Spf.compute_hops ws g ~stamp ~dst in
      let dist = Array.copy dist and via = Array.copy via in
      (* reference: reverse BFS *)
      let refd = Array.make (Graph.num_nodes g) max_int in
      let q = Queue.create () in
      refd.(dst) <- 0;
      Queue.add dst q;
      while not (Queue.is_empty q) do
        let v = Queue.take q in
        Array.iter
          (fun c ->
            let u = (Graph.channel g c).Channel.src in
            if refd.(u) = max_int then begin
              refd.(u) <- refd.(v) + 1;
              Queue.add u q
            end)
          (Graph.in_channels g v)
      done;
      check Alcotest.(array int) "distances" refd dist;
      (* first hops decrease distance *)
      Array.iteri
        (fun u c ->
          if u <> dst then begin
            Alcotest.(check bool) "has first hop" true (c >= 0);
            let v = (Graph.channel g c).Channel.dst in
            check Alcotest.int "via decreases" (dist.(u) - 1) dist.(v)
          end)
        via)
    (Array.sub (Graph.terminals g) 0 4)

let test_dijkstra_weighted () =
  (* triangle with one expensive edge: the cheap two-hop detour wins *)
  let b = Builder.create () in
  let s0 = Builder.add_switch b ~name:"s0" in
  let s1 = Builder.add_switch b ~name:"s1" in
  let s2 = Builder.add_switch b ~name:"s2" in
  let c01, _ = Builder.add_link b s0 s1 in
  let c12, _ = Builder.add_link b s1 s2 in
  let c02, _ = Builder.add_link b s0 s2 in
  let g = Builder.build b in
  let weights = Array.make (Graph.num_channels g) 1 in
  weights.(c02) <- 10;
  let ws = Spf.workspace ~kernel:Spf.Heap g in
  let { Spf.dist; via; _ } = Spf.compute ws g ~weights ~stamp:(Spf.fresh_stamp ()) ~dst:s2 in
  check Alcotest.int "detour distance" 2 dist.(s0);
  check Alcotest.int "detour first hop" c01 via.(s0);
  check Alcotest.int "direct from middle" c12 via.(s1)

(* ------------------------------------------------------------------ *)
(* Ftable                                                               *)
(* ------------------------------------------------------------------ *)

let test_ftable_basics () =
  let g = Lazy.force ring5 in
  let ft = Ftable.create g ~algorithm:"test" in
  check Alcotest.string "algorithm" "test" (Ftable.algorithm ft);
  let t = (Graph.terminals g).(0) and t' = (Graph.terminals g).(1) in
  check Alcotest.(option int) "unset entry" None (Ftable.next ft ~node:t ~dst:t');
  check Alcotest.(option (array int)) "self path" (Some [||]) (Ftable.path ft ~src:t ~dst:t);
  check Alcotest.(option (array int)) "missing path" None (Ftable.path ft ~src:t ~dst:t');
  Alcotest.check_raises "set_next wrong channel"
    (Invalid_argument "Ftable.set_next: channel does not leave node") (fun () ->
      Ftable.set_next ft ~node:t ~dst:t' ~channel:(Graph.out_channels g t').(0));
  Alcotest.check_raises "dst_index on switch" (Invalid_argument "Ftable.dst_index: not a terminal")
    (fun () -> ignore (Ftable.dst_index ft (Graph.switches g).(0)))

let test_ftable_layers () =
  let g = Lazy.force ring5 in
  let ft = Ftable.create g ~algorithm:"test" in
  let t = (Graph.terminals g).(0) and t' = (Graph.terminals g).(1) in
  check Alcotest.int "default layer" 0 (Ftable.layer ft ~src:t ~dst:t');
  Ftable.set_layer ft ~src:t ~dst:t' 3;
  check Alcotest.int "layer set" 3 (Ftable.layer ft ~src:t ~dst:t');
  check Alcotest.int "other pair untouched" 0 (Ftable.layer ft ~src:t' ~dst:t);
  check Alcotest.int "default num_layers" 1 (Ftable.num_layers ft);
  Ftable.set_num_layers ft 4;
  check Alcotest.int "num_layers" 4 (Ftable.num_layers ft);
  Alcotest.check_raises "layer range" (Invalid_argument "Ftable.set_layer: layer out of range")
    (fun () -> Ftable.set_layer ft ~src:t ~dst:t' 256);
  (* bulk writes check every layer first: a refusal leaves the table as
     it was, even when only the last pair is out of range *)
  let routed = expect "sssp" (Sssp.route g) in
  let before = Ftable.pair_layers routed in
  let bad = Array.map (fun l -> if l < 0 then l else 1) before in
  let last = ref (-1) in
  Array.iteri (fun p l -> if l >= 0 then last := p) bad;
  bad.(!last) <- 256;
  Alcotest.check_raises "set_pair_layers range" (Invalid_argument "Ftable.set_pair_layers: layer out of range")
    (fun () -> Ftable.set_pair_layers routed bad);
  check Alcotest.(array int) "untouched" before (Ftable.pair_layers routed)

let test_ftable_loop_detection () =
  (* two switches, each forwarding to the other: a forwarding loop *)
  let b = Builder.create () in
  let s0 = Builder.add_switch b ~name:"s0" in
  let s1 = Builder.add_switch b ~name:"s1" in
  let t0 = Builder.add_terminal b ~name:"t0" ~switch:s0 in
  let t1 = Builder.add_terminal b ~name:"t1" ~switch:s1 in
  let c01, c10 = Builder.add_link b s0 s1 in
  let g = Builder.build b in
  let ft = Ftable.create g ~algorithm:"loopy" in
  Ftable.set_next ft ~node:t0 ~dst:t1 ~channel:(Graph.out_channels g t0).(0);
  Ftable.set_next ft ~node:s0 ~dst:t1 ~channel:c01;
  Ftable.set_next ft ~node:s1 ~dst:t1 ~channel:c10 (* loops back! *);
  check Alcotest.(option (array int)) "loop detected" None (Ftable.path ft ~src:t0 ~dst:t1);
  Alcotest.(check bool) "validate fails" true (Result.is_error (Ftable.validate ft))

(* The loop bound is tight: a loop-free walk visits distinct nodes, so
   num_nodes - 1 hops is the exact maximum — a Hamiltonian-length route
   must still resolve, anything longer is a loop. *)
let test_ftable_loop_bound_tight () =
  let k = 4 in
  let b = Builder.create () in
  let switches = Array.init k (fun i -> Builder.add_switch b ~name:(Printf.sprintf "s%d" i)) in
  let t0 = Builder.add_terminal b ~name:"t0" ~switch:switches.(0) in
  let t1 = Builder.add_terminal b ~name:"t1" ~switch:switches.(k - 1) in
  let links = Array.init (k - 1) (fun i -> Builder.add_link b switches.(i) switches.(i + 1)) in
  let g = Builder.build b in
  let ft = Ftable.create g ~algorithm:"line" in
  Ftable.set_next ft ~node:t0 ~dst:t1 ~channel:(Graph.out_channels g t0).(0);
  Array.iteri (fun i (fwd, _) -> Ftable.set_next ft ~node:switches.(i) ~dst:t1 ~channel:fwd) links;
  let eject =
    Array.to_list (Graph.out_channels g switches.(k - 1))
    |> List.find (fun c -> (Graph.channel g c).Channel.dst = t1)
  in
  Ftable.set_next ft ~node:switches.(k - 1) ~dst:t1 ~channel:eject;
  match Ftable.path ft ~src:t0 ~dst:t1 with
  | None -> Alcotest.fail "Hamiltonian-length route must resolve"
  | Some p -> check Alcotest.int "num_nodes - 1 hops" (Graph.num_nodes g - 1) (Array.length p)

let test_ftable_cyclic_table () =
  (* deliberately cyclic 3-switch table: the walk revolves s0->s1->s2->s0
     forever and must be cut off at the num_nodes - 1 hop bound *)
  let b = Builder.create () in
  let s0 = Builder.add_switch b ~name:"s0" in
  let s1 = Builder.add_switch b ~name:"s1" in
  let s2 = Builder.add_switch b ~name:"s2" in
  let t0 = Builder.add_terminal b ~name:"t0" ~switch:s0 in
  let t1 = Builder.add_terminal b ~name:"t1" ~switch:s1 in
  let c01, _ = Builder.add_link b s0 s1 in
  let c12, _ = Builder.add_link b s1 s2 in
  let c20, _ = Builder.add_link b s2 s0 in
  let g = Builder.build b in
  let ft = Ftable.create g ~algorithm:"cyclic" in
  Ftable.set_next ft ~node:t0 ~dst:t1 ~channel:(Graph.out_channels g t0).(0);
  Ftable.set_next ft ~node:s0 ~dst:t1 ~channel:c01;
  Ftable.set_next ft ~node:s1 ~dst:t1 ~channel:c12 (* skips t1's ejection port *);
  Ftable.set_next ft ~node:s2 ~dst:t1 ~channel:c20;
  check Alcotest.(option (array int)) "cycle cut off" None (Ftable.path ft ~src:t0 ~dst:t1);
  (* the all-pairs walk refuses the table, naming the looping pair *)
  check
    Alcotest.(result reject string)
    "to_store refuses"
    (Error (Printf.sprintf "no loop-free route %d -> %d" t0 t1))
    (Result.map ignore (Ftable.to_store ft))

(* ------------------------------------------------------------------ *)
(* Algorithm conformance on applicable topologies                       *)
(* ------------------------------------------------------------------ *)

let pairs_of g =
  let t = Graph.num_terminals g in
  t * (t - 1)

let test_minhop_everywhere () =
  List.iter
    (fun (name, g) ->
      let ft = expect (name ^ "/minhop") (Minhop.route g) in
      let s = stats (name ^ "/minhop") ft in
      check Alcotest.int (name ^ " pairs") (pairs_of g) s.Ftable.pairs;
      Alcotest.(check bool) (name ^ " minimal") true s.Ftable.minimal)
    [
      ("ring", Lazy.force ring5);
      ("torus", fst (Lazy.force torus44));
      ("tree", Lazy.force tree62);
      ("xgft", Lazy.force xgft_small);
      ("kautz", Lazy.force kautz23);
    ]

let test_sssp_everywhere () =
  List.iter
    (fun (name, g) ->
      let ft = expect (name ^ "/sssp") (Sssp.route g) in
      let s = stats (name ^ "/sssp") ft in
      check Alcotest.int (name ^ " pairs") (pairs_of g) s.Ftable.pairs;
      Alcotest.(check bool) (name ^ " minimal") true s.Ftable.minimal)
    [
      ("ring", Lazy.force ring5);
      ("torus", fst (Lazy.force torus44));
      ("tree", Lazy.force tree62);
      ("xgft", Lazy.force xgft_small);
      ("kautz", Lazy.force kautz23);
    ]

let test_sssp_balances_better_than_plain () =
  (* On a 2-level tree the SSSP load spread should never be worse than the
     most naive routing: compare hottest-channel load under all-to-all. *)
  let g = Lazy.force tree62 in
  let hottest ft =
    let flows = ref [] in
    Ftable.iter_pairs ft (fun ~src ~dst _ -> flows := (src, dst) :: !flows);
    let load = Array.make (Graph.num_channels g) 0 in
    List.iter
      (fun (src, dst) ->
        match Ftable.path ft ~src ~dst with
        | Some p -> Array.iter (fun c -> load.(c) <- load.(c) + 1) p
        | None -> Alcotest.fail "missing path")
      !flows;
    Array.fold_left max 0 load
  in
  let sssp = expect "sssp" (Sssp.route g) in
  let lash = expect "lash" (Lash.route g) in
  Alcotest.(check bool) "sssp hottest <= lash hottest" true (hottest sssp <= hottest lash)

let test_sssp_initial_weight_fig1 () =
  (* paper Fig. 1: with base weight 1 the accumulated balancing increments
     cause latency-increasing detours; the |V|^2 base forbids them *)
  let g = Lazy.force ring5 in
  let g8 = Topo_ring.make ~switches:8 ~terminals_per_switch:2 in
  ignore g;
  let naive = expect "sssp w=1" (Sssp.route ~initial_weight:1 g8) in
  let s_naive = stats "sssp w=1" naive in
  Alcotest.(check bool) "naive weight detours" false s_naive.Ftable.minimal;
  let proper = expect "sssp default" (Sssp.route g8) in
  let s_proper = stats "sssp default" proper in
  Alcotest.(check bool) "paper weight minimal" true s_proper.Ftable.minimal;
  Alcotest.check_raises "weight must be positive" (Invalid_argument "Sssp.route: initial_weight < 1")
    (fun () -> ignore (Sssp.route ~initial_weight:0 g8))

let test_updown_properties () =
  List.iter
    (fun (name, g) ->
      let ft = expect (name ^ "/updown") (Updown.route g) in
      let s = stats (name ^ "/updown") ft in
      check Alcotest.int (name ^ " pairs") (pairs_of g) s.Ftable.pairs;
      (* legality: along every path, no up channel after a down channel *)
      let root, up = expect "orientation" (Updown.orientation g) in
      ignore root;
      Ftable.iter_pairs ft (fun ~src:_ ~dst:_ p ->
          let gone_down = ref false in
          Array.iter
            (fun c ->
              if up.(c) then
                Alcotest.(check bool) (name ^ " up after down") false !gone_down
              else gone_down := true)
            p))
    [
      ("ring", Lazy.force ring5);
      ("torus", fst (Lazy.force torus44));
      ("tree", Lazy.force tree62);
      ("xgft", Lazy.force xgft_small);
      ("kautz", Lazy.force kautz23);
    ]

let test_updown_minimal_on_tree () =
  (* On a tree every legal path is also minimal. *)
  let g = Lazy.force tree62 in
  let ft = expect "updown" (Updown.route g) in
  let s = stats "updown" ft in
  Alcotest.(check bool) "minimal on fat tree" true s.Ftable.minimal

let test_dor_mesh_and_torus () =
  let gm, cm = Lazy.force mesh33 in
  let ftm = expect "dor/mesh" (Dor.route gm cm) in
  let sm = stats "dor/mesh" ftm in
  Alcotest.(check bool) "mesh minimal" true sm.Ftable.minimal;
  let gt, ct = Lazy.force torus44 in
  let ftt = expect "dor/torus" (Dor.route gt ct) in
  let st = stats "dor/torus" ftt in
  Alcotest.(check bool) "torus minimal" true st.Ftable.minimal;
  check Alcotest.int "torus pairs" (pairs_of gt) st.Ftable.pairs

let test_dor_dimension_order () =
  (* DOR must correct dimension 0 fully before touching dimension 1 *)
  let g, coords = Lazy.force torus44 in
  let ft = expect "dor" (Dor.route g coords) in
  let ok = ref true in
  Ftable.iter_pairs ft (fun ~src:_ ~dst:_ p ->
      let nodes = Path.node_sequence g p in
      let coords_of =
        Array.to_list nodes
        |> List.filter (fun v -> Graph.is_switch g v)
        |> List.map (fun v -> Coords.get coords v)
      in
      (* once dimension 0 stops changing it must never change again *)
      let rec check_phase = function
        | a :: (b :: _ as tl) ->
          if a.(0) = b.(0) then
            (* from here on dim 0 is fixed *)
            let rec fixed = function
              | x :: (y :: _ as tl') -> x.(0) = y.(0) && fixed tl'
              | _ -> true
            in
            fixed (a :: tl)
          else check_phase tl
        | _ -> true
      in
      if not (check_phase coords_of) then ok := false);
  Alcotest.(check bool) "dimension order respected" true !ok

let test_updown_orientation_dag () =
  let g = Lazy.force kautz23 in
  let root, up = expect "orientation" (Updown.orientation g) in
  Alcotest.(check bool) "root is a switch" true (Graph.is_switch g root);
  (* up channels strictly decrease (rank, id): no up-cycle possible; check
     by Kahn over the up-subgraph *)
  let n = Graph.num_nodes g in
  let indeg = Array.make n 0 in
  Array.iter
    (fun (c : Channel.t) -> if up.(c.id) then indeg.(c.dst) <- indeg.(c.dst) + 1)
    (Graph.channels g);
  let q = Queue.create () in
  for v = 0 to n - 1 do
    if indeg.(v) = 0 then Queue.add v q
  done;
  let seen = ref 0 in
  while not (Queue.is_empty q) do
    let v = Queue.take q in
    incr seen;
    Array.iter
      (fun c ->
        if up.(c) then begin
          let w = (Graph.channel g c).Channel.dst in
          indeg.(w) <- indeg.(w) - 1;
          if indeg.(w) = 0 then Queue.add w q
        end)
      (Graph.out_channels g v)
  done;
  check Alcotest.int "up-relation acyclic" n !seen;
  (* every cable is oriented one way up, the other down *)
  Array.iter
    (fun (c : Channel.t) ->
      match Graph.reverse_channel g c.id with
      | Some r -> Alcotest.(check bool) "antisymmetric" true (up.(c.id) <> up.(r))
      | None -> ())
    (Graph.channels g)

let test_dor_requires_coords () =
  let g = Lazy.force ring5 in
  let c = Coords.make ~dims:[| 5 |] ~wrap:[| true |] in
  (* no coordinates recorded -> refused *)
  Alcotest.(check bool) "missing coords rejected" true (Result.is_error (Dor.route g c))

let test_dor_wraps_shortest () =
  let g, c = Lazy.force torus44 in
  let ft = expect "dor" (Dor.route g c) in
  (* pick terminals on switches (0,0) and (3,0): wrap distance 1 *)
  let term_at coord =
    let sw = Coords.node_at c coord in
    let t = ref (-1) in
    Array.iter
      (fun ch ->
        let v = (Graph.channel g ch).Channel.dst in
        if Graph.is_terminal g v && !t < 0 then t := v)
      (Graph.out_channels g sw);
    !t
  in
  let a = term_at [| 0; 0 |] and b = term_at [| 3; 0 |] in
  match Ftable.path ft ~src:a ~dst:b with
  | None -> Alcotest.fail "no path"
  | Some p -> check Alcotest.int "wrap-shortest hops" 3 (Path.length p)

let test_ftree_on_trees () =
  List.iter
    (fun (name, g) ->
      let ft = expect (name ^ "/ftree") (Ftree.route g) in
      let s = stats (name ^ "/ftree") ft in
      check Alcotest.int (name ^ " pairs") (pairs_of g) s.Ftable.pairs;
      Alcotest.(check bool) (name ^ " minimal") true s.Ftable.minimal)
    [ ("tree", Lazy.force tree62); ("xgft", Lazy.force xgft_small) ]

let test_ftree_rejects_non_trees () =
  List.iter
    (fun (name, g) ->
      Alcotest.(check bool) (name ^ " rejected") true (Result.is_error (Ftree.route g)))
    [ ("ring", Lazy.force ring5); ("torus", fst (Lazy.force torus44)); ("kautz", Lazy.force kautz23) ]

let test_ftree_levels () =
  let g = Lazy.force tree62 in
  let levels = expect "levels" (Ftree.levels g) in
  (* 6-ary 2-tree: leaf level 0 and top level 1, 6 switches each *)
  let count l = Array.fold_left (fun acc sw -> if levels.(sw) = l then acc + 1 else acc) 0 (Graph.switches g) in
  check Alcotest.int "leaves" 6 (count 0);
  check Alcotest.int "tops" 6 (count 1)

let test_lash_valid_and_layered () =
  List.iter
    (fun (name, g) ->
      let ft = expect (name ^ "/lash") (Lash.route g) in
      let s = stats (name ^ "/lash") ft in
      check Alcotest.int (name ^ " pairs") (pairs_of g) s.Ftable.pairs;
      Alcotest.(check bool) (name ^ " minimal") true s.Ftable.minimal;
      Alcotest.(check bool) (name ^ " layers sane") true (Ftable.num_layers ft >= 1))
    [ ("ring", Lazy.force ring5); ("torus", fst (Lazy.force torus44)); ("kautz", Lazy.force kautz23) ]

let test_lash_layer_budget () =
  let g = Lazy.force ring5 in
  Alcotest.(check bool) "1 layer refused on ring" true (Result.is_error (Lash.route ~max_layers:1 g))

let routing_qcheck name route =
  qtest ~count:25
    (Printf.sprintf "%s: valid minimal routes on random fabrics" name)
    QCheck2.Gen.(int_range 0 10_000)
    (fun seed ->
      let rng = Rng.create seed in
      let g = Topo_random.make ~switches:10 ~switch_radix:10 ~terminals:20 ~inter_links:16 ~rng in
      match route g with
      | Error _ -> false
      | Ok ft -> (
        match Ftable.validate ft with
        | Error _ -> false
        | Ok s -> s.Ftable.pairs = 20 * 19 && s.Ftable.minimal))

let updown_random_qcheck =
  qtest ~count:25 "updown: valid (possibly non-minimal) routes on random fabrics"
    QCheck2.Gen.(int_range 0 10_000)
    (fun seed ->
      let rng = Rng.create seed in
      let g = Topo_random.make ~switches:10 ~switch_radix:10 ~terminals:20 ~inter_links:16 ~rng in
      match Updown.route g with
      | Error _ -> false
      | Ok ft -> (
        match Ftable.validate ft with
        | Error _ -> false
        | Ok s -> s.Ftable.pairs = 20 * 19))

(* Ftable.to_store streams every pair into one arena; Ftable.path walks
   every pair on its own. On intact and damaged tables alike (entries
   dropped, entries redirected, often into loops) the two must agree: the
   same slice for every pair, or the same first failing pair. *)
let to_store_qcheck =
  qtest ~count:60 "to_store agrees with per-pair walks, damaged tables too"
    QCheck2.Gen.(int_range 0 10_000)
    (fun seed ->
      let rng = Rng.create seed in
      let g = Topo_random.make ~switches:8 ~switch_radix:8 ~terminals:12 ~inter_links:12 ~rng in
      let good = expect "sssp" (Sssp.route g) in
      let ft = Ftable.create g ~algorithm:"damaged" in
      let terms = Graph.terminals g in
      let damage = seed mod 3 (* 0 intact, 1 drop entries, 2 redirect entries *) in
      for node = 0 to Graph.num_nodes g - 1 do
        Array.iter
          (fun dst ->
            match Ftable.next good ~node ~dst with
            | None -> ()
            | Some c ->
              if damage = 0 || Rng.int rng 30 > 0 then Ftable.set_next ft ~node ~dst ~channel:c
              else if damage = 2 then
                let outs = Graph.out_channels g node in
                Ftable.set_next ft ~node ~dst ~channel:outs.(Rng.int rng (Array.length outs)))
          terms
      done;
      let first_bad = ref None in
      Array.iter
        (fun src ->
          Array.iter
            (fun dst ->
              if src <> dst && !first_bad = None && Ftable.path ft ~src ~dst = None then
                first_bad := Some (src, dst))
            terms)
        terms;
      match (Ftable.to_store ft, !first_bad) with
      | Error msg, Some (src, dst) -> msg = Printf.sprintf "no loop-free route %d -> %d" src dst
      | Ok store, None ->
        let nt = Array.length terms in
        Deadlock.Route_store.num_paths store = nt * (nt - 1)
        && Array.for_all
             (fun src ->
               Array.for_all
                 (fun dst ->
                   src = dst
                   || Deadlock.Route_store.to_path store ~pair:(Ftable.pair_id ft ~src ~dst)
                      = Option.get (Ftable.path ft ~src ~dst))
                 terms)
             terms
      | _ -> false)

(* Deterministic edge cases of the two-pass Ftable.to_store: a chain of
   [k] switches with one terminal per listed switch, routed by SSSP and
   then edited entry by entry ([Some c] redirects, [None] drops). *)
let chain k ~hosts =
  let b = Builder.create () in
  let sw = Array.init k (fun i -> Builder.add_switch b ~name:(Printf.sprintf "s%d" i)) in
  List.iteri (fun j i -> ignore (Builder.add_terminal b ~name:(Printf.sprintf "t%d" j) ~switch:sw.(i))) hosts;
  let links = Array.init (k - 1) (fun i -> Builder.add_link b sw.(i) sw.(i + 1)) in
  let g = Builder.build b in
  (g, sw, links, expect "sssp" (Sssp.route g))

let edited g good edits =
  let ft = Ftable.create g ~algorithm:"edited" in
  for node = 0 to Graph.num_nodes g - 1 do
    Array.iter
      (fun dst ->
        match List.assoc_opt (node, dst) edits with
        | Some (Some channel) -> Ftable.set_next ft ~node ~dst ~channel
        | Some None -> ()
        | None -> Option.iter (fun channel -> Ftable.set_next ft ~node ~dst ~channel) (Ftable.next good ~node ~dst))
      (Graph.terminals g)
  done;
  ft

let to_store_error ft =
  match Ftable.to_store ft with
  | Ok _ -> Alcotest.fail "damaged table materialised"
  | Error msg -> msg

let to_store_walks () =
  match Obs.Registry.find_timer (Obs.Registry.default ()) "routing.to_store_walk" with
  | Some t -> Obs.Timer.count t
  | None -> Alcotest.fail "routing.to_store_walk timer not registered"

let test_to_store_longest_route () =
  (* t0 and t1 at the two ends of the chain: the route visits every node,
     num_nodes - 1 hops, the longest a loop-free walk can take *)
  let g, _, _, ft = chain 4 ~hosts:[ 0; 3 ] in
  let terms = Graph.terminals g in
  let store = expect "to_store" (Ftable.to_store ft) in
  let pair = Ftable.pair_id ft ~src:terms.(0) ~dst:terms.(1) in
  check Alcotest.int "num_nodes - 1 hops" (Graph.num_nodes g - 1) (Deadlock.Route_store.length store ~pair);
  check Alcotest.(array int) "slice is the walk" (Option.get (Ftable.path ft ~src:terms.(0) ~dst:terms.(1)))
    (Deadlock.Route_store.to_path store ~pair)

let test_to_store_loop_and_dead_end () =
  let g, sw, links, good = chain 4 ~hosts:[ 0; 3 ] in
  let terms = Graph.terminals g in
  let t0 = terms.(0) and t1 = terms.(1) in
  let want = Printf.sprintf "no loop-free route %d -> %d" t0 t1 in
  (* s1 bounces traffic for t1 back to s0, which forwards it to s1 again *)
  let loop = edited g good [ ((sw.(1), t1), Some (snd links.(0))) ] in
  check Alcotest.string "two-node loop" want (to_store_error loop);
  let dead = edited g good [ ((sw.(2), t1), None) ] in
  let before = to_store_walks () in
  check Alcotest.string "mid-route dead end" want (to_store_error dead);
  check Alcotest.int "failed walks are timed too" (before + 1) (to_store_walks ());
  check Alcotest.bool "reverse direction intact" true (Option.is_some (Ftable.path dead ~src:t1 ~dst:t0))

let test_to_store_first_failure_row_major () =
  (* one terminal per switch; failing pairs (0,2) and (1,2) by a loop
     s0 <-> s1 toward t2, and (2,0) by a dead end at t2 itself. Row-major
     order names (0,2) although the per-destination pass meets (2,0)
     first. *)
  let g, sw, links, good = chain 3 ~hosts:[ 0; 1; 2 ] in
  let terms = Graph.terminals g in
  let ft =
    edited g good
      [ ((sw.(0), terms.(2)), Some (fst links.(0))); ((sw.(1), terms.(2)), Some (snd links.(0))); ((terms.(2), terms.(0)), None) ]
  in
  check Alcotest.string "first in pair-id order"
    (Printf.sprintf "no loop-free route %d -> %d" terms.(0) terms.(2))
    (to_store_error ft)

let test_to_store_layout () =
  let g = fst (Lazy.force torus44) in
  let ft = expect "sssp" (Sssp.route g) in
  let before = to_store_walks () in
  let store = expect "to_store" (Ftable.to_store ft) in
  check Alcotest.int "one timed walk" (before + 1) (to_store_walks ());
  let terms = Graph.terminals g in
  let nt = Array.length terms in
  Array.iter
    (fun t -> check Alcotest.bool "diagonal absent" false (Deadlock.Route_store.mem store ~pair:(Ftable.pair_id ft ~src:t ~dst:t)))
    terms;
  check Alcotest.int "every other pair present" (nt * (nt - 1)) (Deadlock.Route_store.num_paths store);
  check Alcotest.int "arena has no slack" (Deadlock.Route_store.total_channels store)
    (Array.length (Deadlock.Route_store.buffer store))

let test_of_arena_rejects () =
  let g = Lazy.force ring5 in
  let buf = [| 0; 1; 2 |] in
  let of_arena ~off ~len ~num_paths () = ignore (Deadlock.Route_store.of_arena g ~buf ~off ~len ~num_paths) in
  let store = Deadlock.Route_store.of_arena g ~buf ~off:[| 0; 0; 2 |] ~len:[| 2; -1; 1 |] ~num_paths:2 in
  check Alcotest.(array int) "slice" [| 2 |] (Deadlock.Route_store.to_path store ~pair:2);
  check Alcotest.bool "absent" false (Deadlock.Route_store.mem store ~pair:1);
  let rejects label f =
    match f () with
    | () -> Alcotest.failf "%s: accepted" label
    | exception Invalid_argument _ -> ()
  in
  rejects "off/len lengths differ" (of_arena ~off:[| 0; 0 |] ~len:[| 1 |] ~num_paths:1);
  rejects "slice past the arena end" (of_arena ~off:[| 2 |] ~len:[| 2 |] ~num_paths:1);
  rejects "negative offset" (of_arena ~off:[| -1 |] ~len:[| 1 |] ~num_paths:1);
  rejects "length below -1" (of_arena ~off:[| 0 |] ~len:[| -2 |] ~num_paths:0);
  rejects "num_paths too high" (of_arena ~off:[| 0; 0 |] ~len:[| 1; -1 |] ~num_paths:2);
  rejects "num_paths too low" (of_arena ~off:[| 0; 0 |] ~len:[| 1; 3 |] ~num_paths:1)

(* [ft]'s forwarding entries over [g'], a fabric with [ft]'s node and
   channel ids. *)
let copy_onto g' ft =
  let g = Ftable.graph ft in
  let copy = Ftable.create g' ~algorithm:"copy" in
  for u = 0 to Graph.num_nodes g - 1 do
    Array.iter
      (fun d ->
        Option.iter (fun c -> Ftable.set_next copy ~node:u ~dst:d ~channel:c) (Ftable.next ft ~node:u ~dst:d))
      (Graph.terminals g)
  done;
  copy

(* Ftable.validate and Dfsssp.Verify.report read their statistics off
   the route classes; the oracle walks every pair with Ftable.path and
   measures it against a reverse BFS from its destination. Tables: SSSP
   (minimal), up*/down* (detours on most seeds), and the SSSP table over
   the fabric with one terminal's cable down (no longer every pair leaves
   by its source's one enabled channel, so the statistics are taken pair
   by pair). *)
let stats_oracle_qcheck =
  qtest ~count:25 "store statistics agree with the path-walk oracle"
    QCheck2.Gen.(int_range 0 10_000)
    (fun seed ->
      let rng = Rng.create seed in
      let g = Topo_random.make ~switches:10 ~switch_radix:10 ~terminals:20 ~inter_links:16 ~rng in
      let cut = (Graph.terminals g).(Rng.int rng (Graph.num_terminals g)) in
      let enabled =
        Array.map (fun (c : Channel.t) -> c.Channel.src <> cut && c.Channel.dst <> cut) (Graph.channels g)
      in
      let degraded = Graph.with_enabled g ~enabled in
      let tables = List.concat_map (fun route -> Result.to_list (route g)) [ Updown.route; Sssp.route ] in
      List.for_all
        (fun ft ->
          let oracle = Oracles.Stats_ref.of_table ft in
          Result.is_ok oracle
          && Ftable.validate ft = oracle
          && Result.map (fun r -> r.Dfsssp.Verify.stats) (Dfsssp.Verify.report ft) = oracle)
        (tables @ List.map (copy_onto degraded) tables))

(* ------------------------------------------------------------------ *)
(* Ftable_io round trip                                                 *)
(* ------------------------------------------------------------------ *)

let path_names g ft ~src ~dst =
  match Ftable.path ft ~src ~dst with
  | None -> Alcotest.fail "missing path"
  | Some p ->
    Array.to_list (Array.map (fun v -> (Graph.node g v).Node.name) (Path.node_sequence g p))

let test_ftable_io_roundtrip () =
  (* a fabric with parallel cables to exercise the occurrence index *)
  let b = Builder.create () in
  let s0 = Builder.add_switch b ~name:"s0" in
  let s1 = Builder.add_switch b ~name:"s1" in
  let s2 = Builder.add_switch b ~name:"s2" in
  ignore (Builder.add_link b s0 s1);
  ignore (Builder.add_link b s0 s1) (* parallel cable *);
  ignore (Builder.add_link b s1 s2);
  ignore (Builder.add_link b s2 s0);
  let _t0 = Builder.add_terminal b ~name:"t0" ~switch:s0 in
  let _t1 = Builder.add_terminal b ~name:"t1" ~switch:s1 in
  let _t2 = Builder.add_terminal b ~name:"t2" ~switch:s2 in
  let g = Builder.build b in
  let ft = expect "sssp" (Sssp.route g) in
  (* put some lanes in *)
  let ft = Result.get_ok (Result.map_error Dfsssp.error_to_string (Dfsssp.assign_layers ft)) in
  let text = Ftable_io.to_string ft in
  match Ftable_io.of_string text with
  | Error e -> Alcotest.fail e
  | Ok ft' ->
    let g' = Ftable.graph ft' in
    check Alcotest.string "algorithm kept" (Ftable.algorithm ft) (Ftable.algorithm ft');
    check Alcotest.int "layers kept" (Ftable.num_layers ft) (Ftable.num_layers ft');
    (* same routes by node names, same lanes *)
    let name_to_id = Hashtbl.create 16 in
    Array.iter (fun (nd : Node.t) -> Hashtbl.replace name_to_id nd.Node.name nd.Node.id) (Graph.nodes g');
    Array.iter
      (fun src ->
        Array.iter
          (fun dst ->
            if src <> dst then begin
              let src' = Hashtbl.find name_to_id (Graph.node g src).Node.name in
              let dst' = Hashtbl.find name_to_id (Graph.node g dst).Node.name in
              check Alcotest.(list string)
                "route preserved"
                (path_names g ft ~src ~dst)
                (path_names g' ft' ~src:src' ~dst:dst');
              check Alcotest.int "lane preserved" (Ftable.layer ft ~src ~dst)
                (Ftable.layer ft' ~src:src' ~dst:dst')
            end)
          (Graph.terminals g))
      (Graph.terminals g);
    Alcotest.(check bool) "reloaded validates" true (Result.is_ok (Ftable.validate ft'))

let test_ftable_io_save_load () =
  let g = Topo_ring.make ~switches:4 ~terminals_per_switch:1 in
  let ft = expect "sssp" (Sssp.route g) in
  let path = Filename.temp_file "routing" ".txt" in
  Ftable_io.save path ft;
  (match Ftable_io.load path with
  | Error e -> Alcotest.fail e
  | Ok ft' -> Alcotest.(check bool) "loaded validates" true (Result.is_ok (Ftable.validate ft')));
  Sys.remove path

let test_ftable_io_errors () =
  let reject text fragment =
    match Ftable_io.of_string text with
    | Ok _ -> Alcotest.failf "accepted %S" text
    | Error msg ->
      Alcotest.(check bool)
        (Printf.sprintf "error mentions %S (got %S)" fragment msg)
        true (Testutil.contains msg fragment)
  in
  reject "" "bad header";
  reject "routing x layers zz\n" "bad layer count";
  reject "routing x layers 1\nswitch a\n" "endtopology";
  reject "routing x layers 1\nswitch a\nswitch b\nlink a b\nterminal t0 a\nendtopology\nentry a zz b 0\n" "unknown node";
  reject "routing x layers 1\nswitch a\nswitch b\nlink a b\nterminal t0 a\nendtopology\nentry b t0 a 7\n" "no cable";
  reject "routing x layers 1\nswitch a\nswitch b\nlink a b\nterminal t0 a\nendtopology\nfrobnicate\n" "unrecognized";
  (* layer ids are bytes, so the header's count is 1..256 *)
  reject "routing x layers 100000\nswitch a\nendtopology\n" "line 1: layer count 100000 outside 1..256";
  reject "routing x layers 0\nswitch a\nendtopology\n" "line 1: layer count 0";
  (* destinations and lane ends are terminals; a switch used to raise *)
  let fabric = "routing x layers 2\nswitch a\nswitch b\nlink a b\nterminal t0 a\nterminal t1 b\nendtopology\n" in
  reject (fabric ^ "entry a b b 0\n") "line 8: entry destination b is not a terminal";
  reject (fabric ^ "# lanes\nlane a t1 1\n") "line 9: lane a -> t1";
  reject (fabric ^ "lane t0 b 1\n") "line 8: lane t0 -> b";
  reject (fabric ^ "entry a t1 b 0\nentry b t1 t1 0\nentry b t9 t1 0\n") "line 10: unknown node"

(* ------------------------------------------------------------------ *)
(* Opensm dumps                                                         *)
(* ------------------------------------------------------------------ *)

let test_opensm_identifiers () =
  check Alcotest.int "lid" 6 (Opensm.lid_of_node 5);
  Alcotest.(check bool) "guid distinct" true (Opensm.guid_of_node 1 <> Opensm.guid_of_node 2);
  let g = Lazy.force ring5 in
  Array.iter
    (fun (c : Channel.t) ->
      let p = Opensm.port_of_channel g c.id in
      Alcotest.(check bool) "port 1-based" true (p >= 1 && p <= Array.length (Graph.out_channels g c.src));
      (* the port resolves back to the channel *)
      check Alcotest.int "port resolves" c.id (Graph.out_channels g c.src).(p - 1))
    (Graph.channels g)

let test_opensm_lft_dump () =
  let g = Lazy.force ring5 in
  let ft = expect "sssp" (Sssp.route g) in
  let dump = Opensm.lft_dump ft in
  (* one block per switch, one entry line per (switch, terminal) pair *)
  let lines = String.split_on_char '\n' dump in
  let headers = List.filter (fun l -> Testutil.contains l "Unicast lids") lines in
  check Alcotest.int "one block per switch" (Graph.num_switches g) (List.length headers);
  let entries = List.filter (fun l -> Testutil.contains l " : (terminal") lines in
  check Alcotest.int "entry lines" (Graph.num_switches g * Graph.num_terminals g) (List.length entries)

let test_opensm_guid_table () =
  let g = Lazy.force ring5 in
  let table = Opensm.guid_table g in
  let lines = String.split_on_char '\n' table |> List.filter (fun l -> l <> "") in
  check Alcotest.int "header + nodes" (1 + Graph.num_nodes g) (List.length lines)

let test_opensm_sl_dump () =
  let g = Lazy.force ring5 in
  let ft = expect "lash" (Lash.route g) in
  let dump = Opensm.sl_dump ft in
  let rows = String.split_on_char '\n' dump |> List.filter (fun l -> l <> "" && l.[0] <> '#') in
  check Alcotest.int "one row per source" (Graph.num_terminals g) (List.length rows);
  (* each row: lid prefix + one char per destination *)
  List.iter
    (fun row ->
      let payload = List.nth (String.split_on_char ' ' row) 1 in
      check Alcotest.int "row width" (Graph.num_terminals g) (String.length payload))
    rows

let test_opensm_diff () =
  let g = Lazy.force ring5 in
  let a = expect "sssp" (Sssp.route g) in
  let same = Opensm.diff_tables a a in
  check Alcotest.int "self diff entries" 0 same.Opensm.entries_changed;
  check Alcotest.int "self diff lanes" 0 same.Opensm.lanes_changed;
  Alcotest.(check bool) "compared > 0" true (same.Opensm.entries_compared > 0);
  let b = expect "updown" (Updown.route g) in
  let d = Opensm.diff_tables a b in
  Alcotest.(check bool) "different routings differ" true (d.Opensm.entries_changed > 0);
  (* lanes: dfsssp vs sssp differ only in lanes, not entries *)
  let df = Result.get_ok (Result.map_error Dfsssp.error_to_string (Dfsssp.route g)) in
  let d2 = Opensm.diff_tables a df in
  check Alcotest.int "same routes" 0 d2.Opensm.entries_changed;
  Alcotest.(check bool) "lanes moved" true (d2.Opensm.lanes_changed > 0);
  let other = expect "sssp" (Sssp.route (Topo_ring.make ~switches:4 ~terminals_per_switch:1)) in
  Alcotest.(check bool) "different fabrics rejected" true
    (try
       ignore (Opensm.diff_tables a other);
       false
     with Invalid_argument _ -> true)

let test_opensm_save_all () =
  let g = Lazy.force ring5 in
  let ft = expect "sssp" (Sssp.route g) in
  let dir = Filename.temp_file "opensm" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let files = Opensm.save_all ~dir ft in
  check Alcotest.int "three files" 3 (List.length files);
  List.iter (fun f -> Alcotest.(check bool) (f ^ " exists") true (Sys.file_exists f)) files

let () =
  Alcotest.run "routing"
    [
      ( "dijkstra",
        [
          Alcotest.test_case "matches BFS" `Quick test_dijkstra_matches_bfs;
          Alcotest.test_case "weighted detour" `Quick test_dijkstra_weighted;
        ] );
      ( "ftable",
        [
          Alcotest.test_case "basics" `Quick test_ftable_basics;
          Alcotest.test_case "layers" `Quick test_ftable_layers;
          Alcotest.test_case "loop detection" `Quick test_ftable_loop_detection;
          Alcotest.test_case "loop bound tight" `Quick test_ftable_loop_bound_tight;
          Alcotest.test_case "cyclic table" `Quick test_ftable_cyclic_table;
          to_store_qcheck;
          Alcotest.test_case "to_store longest route" `Quick test_to_store_longest_route;
          Alcotest.test_case "to_store loop and dead end" `Quick test_to_store_loop_and_dead_end;
          Alcotest.test_case "to_store first failure row-major" `Quick test_to_store_first_failure_row_major;
          Alcotest.test_case "to_store layout" `Quick test_to_store_layout;
          Alcotest.test_case "of_arena rejects" `Quick test_of_arena_rejects;
          stats_oracle_qcheck;
        ] );
      ( "minhop",
        [
          Alcotest.test_case "valid everywhere" `Quick test_minhop_everywhere;
          routing_qcheck "minhop" Minhop.route;
        ] );
      ( "sssp",
        [
          Alcotest.test_case "valid everywhere" `Quick test_sssp_everywhere;
          Alcotest.test_case "balances" `Quick test_sssp_balances_better_than_plain;
          Alcotest.test_case "initial weight (Fig. 1)" `Quick test_sssp_initial_weight_fig1;
          routing_qcheck "sssp" Sssp.route;
        ] );
      ( "updown",
        [
          Alcotest.test_case "legal up*/down*" `Quick test_updown_properties;
          Alcotest.test_case "minimal on tree" `Quick test_updown_minimal_on_tree;
          Alcotest.test_case "orientation is a DAG" `Quick test_updown_orientation_dag;
          updown_random_qcheck;
        ] );
      ( "dor",
        [
          Alcotest.test_case "mesh and torus" `Quick test_dor_mesh_and_torus;
          Alcotest.test_case "requires coords" `Quick test_dor_requires_coords;
          Alcotest.test_case "dimension order" `Quick test_dor_dimension_order;
          Alcotest.test_case "wraps the short way" `Quick test_dor_wraps_shortest;
        ] );
      ( "ftree",
        [
          Alcotest.test_case "routes trees" `Quick test_ftree_on_trees;
          Alcotest.test_case "rejects non-trees" `Quick test_ftree_rejects_non_trees;
          Alcotest.test_case "levels" `Quick test_ftree_levels;
        ] );
      ( "ftable_io",
        [
          Alcotest.test_case "roundtrip" `Quick test_ftable_io_roundtrip;
          Alcotest.test_case "save/load" `Quick test_ftable_io_save_load;
          Alcotest.test_case "errors" `Quick test_ftable_io_errors;
        ] );
      ( "opensm",
        [
          Alcotest.test_case "identifiers" `Quick test_opensm_identifiers;
          Alcotest.test_case "lft dump" `Quick test_opensm_lft_dump;
          Alcotest.test_case "guid table" `Quick test_opensm_guid_table;
          Alcotest.test_case "sl dump" `Quick test_opensm_sl_dump;
          Alcotest.test_case "diff" `Quick test_opensm_diff;
          Alcotest.test_case "save all" `Quick test_opensm_save_all;
        ] );
      ( "lash",
        [
          Alcotest.test_case "valid and layered" `Quick test_lash_valid_and_layered;
          Alcotest.test_case "layer budget" `Quick test_lash_layer_budget;
        ] );
    ]
