(* Cross-module property tests: structural invariants of every topology
   generator, the defining properties of destination-based routing, and
   end-to-end consistency between the analytical machinery (CDG
   acyclicity) and the packet simulator. *)

let _check = Alcotest.check

let qtest ?(count = 40) name gen prop = Testutil.qtest ~count name gen prop

let seed_gen = Testutil.seed_gen

(* ------------------------------------------------------------------ *)
(* Topology generator invariants                                        *)
(* ------------------------------------------------------------------ *)

let torus_invariants =
  qtest ~count:25 "torus: regular degree, exact counts"
    QCheck2.Gen.(pair (int_range 3 5) (int_range 3 5))
    (fun (a, b) ->
      let g, coords = Topo_torus.torus ~dims:[| a; b |] ~terminals_per_switch:1 in
      Graph.num_switches g = a * b
      && Graph.num_terminals g = a * b
      && Array.for_all (fun sw -> Graph.degree g sw = 4 + 1) (Graph.switches g)
      && Array.for_all (fun sw -> Coords.mem coords sw) (Graph.switches g)
      && Result.is_ok (Graph.validate g))

let mesh_invariants =
  qtest ~count:25 "mesh: corner/edge/interior degrees"
    QCheck2.Gen.(pair (int_range 3 5) (int_range 3 5))
    (fun (a, b) ->
      let g, coords = Topo_torus.mesh ~dims:[| a; b |] ~terminals_per_switch:0 in
      Array.for_all
        (fun sw ->
          let c = Coords.get coords sw in
          let expected =
            (if c.(0) = 0 || c.(0) = a - 1 then 1 else 2) + if c.(1) = 0 || c.(1) = b - 1 then 1 else 2
          in
          Graph.degree g sw = expected)
        (Graph.switches g))

let tree_invariants =
  qtest ~count:15 "k-ary n-tree: level populations and port counts"
    QCheck2.Gen.(pair (int_range 2 4) (int_range 2 3))
    (fun (k, n) ->
      let g = Topo_tree.make ~k ~n () in
      match Routing.Ftree.levels g with
      | Error _ -> false
      | Ok levels ->
        let count l =
          Array.fold_left (fun acc sw -> if levels.(sw) = l then acc + 1 else acc) 0 (Graph.switches g)
        in
        let per_level = Testutil.tree_switches ~k ~n / n in
        let rec all_levels l = l >= n || (count (n - 1 - l) = per_level && all_levels (l + 1)) in
        (* note: ftree levels count from the leaves; a k-ary n-tree has n
           switch levels of equal size *)
        all_levels 0
        && Graph.num_terminals g = int_of_float (float_of_int k ** float_of_int n)
        && Result.is_ok (Graph.validate g))

let xgft_invariants =
  qtest ~count:15 "xgft: switch count matches the closed formula"
    QCheck2.Gen.(pair (pair (int_range 2 4) (int_range 2 4)) (pair (int_range 1 3) (int_range 1 3)))
    (fun ((m1, m2), (w1, w2)) ->
      let ms = [| m1; m2 |] and ws = [| w1; w2 |] in
      let g = Topo_xgft.make ~ms ~ws ~endpoints:(Topo_xgft.num_leaves ~ms * 2) in
      Graph.num_switches g = Testutil.xgft_switches ~ms ~ws
      && Graph.num_switches g = (m1 * m2) + (m2 * w1) + (w1 * w2)
      && Graph.connected g)

let kautz_invariants =
  qtest ~count:10 "kautz: vertex count and bounded switch degree"
    QCheck2.Gen.(pair (int_range 2 3) (int_range 2 3))
    (fun (b, n) ->
      let g = Topo_kautz.make ~b ~n ~endpoints:0 in
      Graph.num_switches g = Topo_kautz.num_switches ~b ~n
      && Array.for_all (fun sw -> Graph.degree g sw <= 2 * b) (Graph.switches g)
      && Graph.connected g)

let dragonfly_invariants =
  qtest ~count:10 "dragonfly: canonical group wiring is balanced"
    QCheck2.Gen.(pair (int_range 2 4) (int_range 1 2))
    (fun (a, h) ->
      let g = Topo_dragonfly.make ~a ~p:1 ~h () in
      let groups = (a * h) + 1 in
      Graph.num_switches g = groups * a
      && Array.for_all (fun sw -> Graph.degree g sw = a - 1 + h + 1) (Graph.switches g)
      && Graph.connected g)

let hyperx_invariants =
  qtest ~count:15 "hyperx: degree = sum of (k_i - 1)"
    QCheck2.Gen.(pair (int_range 2 4) (int_range 2 4))
    (fun (a, b) ->
      let g, _ = Topo_hyperx.make ~dims:[| a; b |] ~terminals_per_switch:0 in
      Array.for_all (fun sw -> Graph.degree g sw = a - 1 + (b - 1)) (Graph.switches g)
      && 2 * Testutil.hyperx_cables ~dims:[| a; b |] = Graph.num_channels g)

let serial_roundtrip_random =
  qtest ~count:25 "serial: canonical text form is a fixpoint" seed_gen (fun seed ->
      let rng = Rng.create seed in
      let g = Testutil.random_graph rng in
      let once = Serial.to_string g in
      match Serial.of_string once with
      | Error _ -> false
      | Ok g2 ->
        Serial.to_string g2 = once
        && Graph.num_channels g2 = Graph.num_channels g
        && Graph.num_terminals g2 = Graph.num_terminals g)

(* ------------------------------------------------------------------ *)
(* Destination-based routing: the defining suffix property              *)
(* ------------------------------------------------------------------ *)

(* If the route src -> dst passes through node v, its tail from v equals
   the route v would use itself (there is only one table entry per
   (node, dst)). This is what makes per-pair layer reassignment sound. *)
let suffix_property route_name route =
  qtest ~count:20 (route_name ^ ": route tails agree with the table") seed_gen (fun seed ->
      let rng = Rng.create seed in
      let g = Testutil.random_graph rng in
      match route g with
      | Error _ -> false
      | Ok ft ->
        let ok = ref true in
        let terminals = Graph.terminals g in
        Array.iter
          (fun src ->
            Array.iter
              (fun dst ->
                if src <> dst && !ok then
                  match Routing.Ftable.path ft ~src ~dst with
                  | None -> ok := false
                  | Some p ->
                    let nodes = Path.node_sequence g p in
                    (* compare the tail starting at every intermediate
                       terminal or switch that is itself a terminal pair
                       endpoint: check via table-following from node *)
                    Array.iteri
                      (fun i v ->
                        if i > 0 && i < Array.length nodes - 1 && !ok then begin
                          (* follow the table from v *)
                          let rec follow node acc steps =
                            if node = dst then Some (List.rev acc)
                            else if steps > Graph.num_nodes g then None
                            else
                              match Routing.Ftable.next ft ~node ~dst with
                              | None -> None
                              | Some c -> follow (Graph.channel g c).Channel.dst (c :: acc) (steps + 1)
                          in
                          match follow v [] 0 with
                          | None -> ok := false
                          | Some tail ->
                            let expected = Array.to_list (Array.sub p i (Array.length p - i)) in
                            if tail <> expected then ok := false
                        end)
                      nodes)
              terminals)
          terminals;
        !ok)

let minhop_suffix = suffix_property "minhop" Routing.Minhop.route
let sssp_suffix = suffix_property "sssp" Routing.Sssp.route
let updown_suffix = suffix_property "updown" Routing.Updown.route

(* ------------------------------------------------------------------ *)
(* Determinism                                                          *)
(* ------------------------------------------------------------------ *)

let routing_deterministic =
  qtest ~count:15 "routing: identical tables on repeated runs" seed_gen (fun seed ->
      let rng = Rng.create seed in
      let g = Testutil.random_graph rng in
      List.for_all
        (fun name ->
          match (Harness.Runs.run_named name g, Harness.Runs.run_named name g) with
          | Ok a, Ok b ->
            let same = ref true in
            Routing.Ftable.iter_pairs a (fun ~src ~dst p ->
                (match Routing.Ftable.path b ~src ~dst with
                | Some p' when p' = p -> ()
                | _ -> same := false);
                if Routing.Ftable.layer a ~src ~dst <> Routing.Ftable.layer b ~src ~dst then same := false);
            !same
          | Error _, Error _ -> true
          | _ -> false)
        [ "minhop"; "sssp"; "updown"; "lash"; "dfsssp" ])

(* ------------------------------------------------------------------ *)
(* Congestion conservation                                              *)
(* ------------------------------------------------------------------ *)

let congestion_conservation =
  qtest ~count:20 "congestion: total load = total hops" seed_gen (fun seed ->
      let rng = Rng.create seed in
      let g = Testutil.random_graph rng in
      match Routing.Sssp.route g with
      | Error _ -> false
      | Ok ft ->
        let flows = Simulator.Patterns.random_bisection rng (Graph.terminals g) in
        let r = Simulator.Congestion.evaluate ft ~flows in
        let total_load = Array.fold_left ( + ) 0 r.Simulator.Congestion.channel_load in
        let total_hops =
          Array.fold_left
            (fun acc (src, dst) ->
              match Routing.Ftable.path ft ~src ~dst with
              | Some p -> acc + Array.length p
              | None -> acc)
            0 flows
        in
        total_load = total_hops)

(* ------------------------------------------------------------------ *)
(* Analytical <-> dynamic agreement                                     *)
(* ------------------------------------------------------------------ *)

(* Acyclic per-lane CDGs are sufficient for deadlock freedom: whenever the
   verifier says yes, the packet simulator must drain any workload, both
   message-level and in packet time. *)
let acyclic_implies_drain =
  qtest ~count:12 "acyclic CDG => both configs drain" seed_gen (fun seed ->
      let rng = Rng.create seed in
      let g = Testutil.random_graph ~switches:7 ~switch_radix:8 ~terminals:14 ~inter_links:11 rng in
      match Dfsssp.route ~max_layers:16 g with
      | Error _ -> false
      | Ok ft ->
        Oracles.Acyclic_ref.deadlock_free ft
        &&
        let ts = Graph.terminals g in
        let n = Array.length ts in
        let shift = 1 + Rng.int rng (n - 1) in
        let mk count =
          Array.init n (fun i -> (ts.(i), ts.((i + shift) mod n), count))
          |> Array.to_list
          |> List.filter (fun (a, b, _) -> a <> b)
          |> Array.of_list
        in
        let drains config size =
          match Simulator.Netsim.run ~config:{ config with num_vls = 16 } ft ~flows:(mk size) with
          | Simulator.Netsim.Completed _ -> true
          | _ -> false
        in
        drains Simulator.Netsim.packet_config 12 && drains Testutil.netsim_default 16384)

(* ------------------------------------------------------------------ *)
(* Cycle search vs Kahn on random dependency sets                       *)
(* ------------------------------------------------------------------ *)

let cycle_vs_kahn =
  qtest ~count:30 "cycle search agrees with Kahn" seed_gen (fun seed ->
      let rng = Rng.create seed in
      let g = Testutil.random_graph ~switches:6 ~switch_radix:8 ~terminals:6 ~inter_links:9 rng in
      (* random consistent 2-chains as paths *)
      let paths = ref [] in
      for _ = 0 to 40 do
        let c1 = Rng.int rng (Graph.num_channels g) in
        let succs = Graph.out_channels g (Graph.channel g c1).Channel.dst in
        if Array.length succs > 0 then begin
          let c2 = Rng.pick rng succs in
          if c1 <> c2 then paths := [| c1; c2 |] :: !paths
        end
      done;
      let cdg = Testutil.cdg_of_paths g (Array.of_list (List.rev !paths)) in
      let found = Deadlock.Cycle.find cdg <> None in
      found = not (Oracles.Acyclic_ref.is_acyclic cdg))

(* The shipped one-shot search returns the cycle the oracle's resumable
   search finds first: same roots, same slot order. Random routes on a
   random fabric, so both cyclic and acyclic CDGs occur. *)
let cycle_find_matches_oracle =
  qtest ~count:40 "Cycle.find returns the oracle search's first cycle" seed_gen (fun seed ->
      let rng = Rng.create seed in
      let g = Testutil.random_graph ~switches:6 ~switch_radix:8 ~terminals:6 ~inter_links:9 rng in
      let paths = ref [] in
      for _ = 0 to 10 + Rng.int rng 30 do
        (* a random walk of 2-5 channels *)
        let c = ref (Rng.int rng (Graph.num_channels g)) in
        let walk = ref [ !c ] in
        for _ = 1 to 1 + Rng.int rng 4 do
          let succs = Graph.out_channels g (Graph.channel g !c).Channel.dst in
          if Array.length succs > 0 then begin
            c := Rng.pick rng succs;
            walk := !c :: !walk
          end
        done;
        paths := Array.of_list (List.rev !walk) :: !paths
      done;
      let store = Testutil.of_paths g (Array.of_list !paths) in
      let cdg = Deadlock.Cdg.of_store store in
      let first =
        Oracles.Dfs_ref.Search.find_cycle
          (Oracles.Dfs_ref.Search.create (Oracles.Dfs_ref.Layer.create store cdg))
      in
      Deadlock.Cycle.find cdg = first)

(* ------------------------------------------------------------------ *)
(* CSR CDG vs the naive Hashtbl reference                               *)
(* ------------------------------------------------------------------ *)

let cdg_matches_reference =
  qtest ~count:24 "CSR CDG agrees with the Hashtbl reference" seed_gen (fun seed ->
      let rng = Rng.create seed in
      let g =
        match seed mod 3 with
        | 0 -> Topo_ring.make ~switches:(4 + Rng.int rng 4) ~terminals_per_switch:1
        | 1 ->
          fst
            (Topo_torus.torus
               ~dims:[| 3 + Rng.int rng 2; 3 + Rng.int rng 2 |]
               ~terminals_per_switch:1)
        | _ -> Topo_xgft.make ~ms:[| 3; 3 |] ~ws:[| 2; 2 |] ~endpoints:(9 + Rng.int rng 10)
      in
      match Routing.Sssp.route g with
      | Error _ -> false
      | Ok ft -> (
        match Routing.Ftable.to_store ft with
        | Error _ -> false
        | Ok store ->
          let csr = Deadlock.Cdg.of_store store in
          let rc = Oracles.Cdg_ref.create g in
          Deadlock.Route_store.iter_pairs store (fun pair ->
              Oracles.Cdg_ref.add_path rc ~pair (Deadlock.Route_store.to_path store ~pair));
          (* [csr] is a build of the reference's routes; [layer] is the
             oracle's overlay after the same removals *)
          let agree csr layer =
            let ok = ref true in
            if Deadlock.Cdg.num_edges csr <> Oracles.Cdg_ref.num_edges rc then ok := false;
            if Deadlock.Cdg.num_paths csr <> Oracles.Cdg_ref.num_paths rc then ok := false;
            if Oracles.Dfs_ref.Layer.num_edges layer <> Oracles.Cdg_ref.num_edges rc then ok := false;
            if Oracles.Dfs_ref.Layer.num_paths layer <> Oracles.Cdg_ref.num_paths rc then ok := false;
            Oracles.Cdg_ref.iter_edges rc (fun c1 c2 count ->
                if Testutil.cdg_edge_count csr ~c1 ~c2 <> count then ok := false;
                if Oracles.Dfs_ref.Layer.edge_count layer ~c1 ~c2 <> count then ok := false;
                let pairs = List.sort compare (Oracles.Cdg_ref.edge_pairs rc ~c1 ~c2) in
                if List.sort compare (Deadlock.Cdg.edge_pairs csr ~c1 ~c2) <> pairs then ok := false;
                if List.sort compare (Oracles.Dfs_ref.Layer.edge_pairs layer ~c1 ~c2) <> pairs then
                  ok := false);
            for c = 0 to Graph.num_channels g - 1 do
              let succ = ref [] in
              Testutil.cdg_iter_successors csr c (fun s -> succ := s :: !succ);
              if
                List.sort compare !succ
                <> List.sort compare (Array.to_list (Oracles.Cdg_ref.successors rc c))
              then ok := false
            done;
            (* weakest-edge choice over all live edges, in a fixed order:
               identical counts must yield the identical pick *)
            let edges = ref [] in
            Oracles.Cdg_ref.iter_edges rc (fun c1 c2 _ -> edges := (c1, c2) :: !edges);
            let edges = Array.of_list (List.sort compare !edges) in
            if Array.length edges > 0 then begin
              let expected = ref edges.(0) in
              let expected_count =
                ref (Oracles.Cdg_ref.edge_count rc ~c1:(fst edges.(0)) ~c2:(snd edges.(0)))
              in
              Array.iter
                (fun (c1, c2) ->
                  let count = Oracles.Cdg_ref.edge_count rc ~c1 ~c2 in
                  if count < !expected_count then begin
                    expected := (c1, c2);
                    expected_count := count
                  end)
                edges;
              if Oracles.Dfs_ref.choose Deadlock.Heuristic.Weakest layer edges <> !expected then
                ok := false
            end;
            !ok
          in
          let layer = Oracles.Dfs_ref.Layer.create store csr in
          let ok = ref (agree csr layer) in
          (* random removals must track exactly: in the oracle's overlay,
             and in a build without the removed pairs *)
          let removed = ref [] in
          Deadlock.Route_store.iter_pairs store (fun pair ->
              if Rng.int rng 2 = 0 then removed := pair :: !removed);
          List.iter
            (fun pair ->
              Oracles.Dfs_ref.Layer.remove_pair layer ~pair;
              Oracles.Cdg_ref.remove_path rc ~pair (Deadlock.Route_store.to_path store ~pair))
            !removed;
          let rest = Deadlock.Cdg.of_store ~filter:(fun pr -> not (List.mem pr !removed)) store in
          if not (agree rest layer) then ok := false;
          !ok))

(* ------------------------------------------------------------------ *)
(* Opensm dump consistency                                              *)
(* ------------------------------------------------------------------ *)

let sl_dump_matches_layers =
  qtest ~count:10 "opensm: SL dump encodes the layer table" seed_gen (fun seed ->
      let rng = Rng.create seed in
      let g = Testutil.random_graph ~switches:6 ~switch_radix:8 ~terminals:10 ~inter_links:9 rng in
      match Dfsssp.route ~max_layers:16 g with
      | Error _ -> false
      | Ok ft ->
        let _, _, dump = Testutil.opensm_dumps ft in
        let rows =
          String.split_on_char '\n' dump |> List.filter (fun l -> l <> "" && l.[0] <> '#')
        in
        let terminals = Graph.terminals g in
        List.length rows = Array.length terminals
        && List.for_all2
             (fun row src ->
               match String.split_on_char ' ' row with
               | [ _lid; payload ] ->
                 String.length payload = Array.length terminals
                 && Array.for_all
                      (fun j ->
                        let dst = terminals.(j) in
                        if src = dst then payload.[j] = '.'
                        else
                          let vl = Routing.Ftable.layer ft ~src ~dst in
                          payload.[j] = "0123456789abcdef".[vl])
                      (Array.init (Array.length terminals) Fun.id)
               | _ -> false)
             rows (Array.to_list terminals))

(* ------------------------------------------------------------------ *)
(* Ftable_io on random fabrics                                          *)
(* ------------------------------------------------------------------ *)

let ftable_io_random =
  qtest ~count:12 "ftable_io: routes survive the round trip" seed_gen (fun seed ->
      let rng = Rng.create seed in
      let g = Testutil.random_graph ~switches:7 ~switch_radix:8 ~terminals:10 ~inter_links:10 rng in
      match Dfsssp.route ~max_layers:16 g with
      | Error _ -> false
      | Ok ft -> (
        match Testutil.ftable_of_string (Routing.Ftable_io.to_string ft) with
        | Error _ -> false
        | Ok ft' ->
          let g' = Routing.Ftable.graph ft' in
          let by_name = Hashtbl.create 32 in
          Array.iter (fun (nd : Node.t) -> Hashtbl.replace by_name nd.name nd.id) (Graph.nodes g');
          let names gg p = Array.map (fun v -> (Graph.node gg v).Node.name) (Path.node_sequence gg p) in
          let ok = ref (Result.is_ok (Routing.Ftable.validate ft')) in
          Routing.Ftable.iter_pairs ft (fun ~src ~dst p ->
              let src' = Hashtbl.find by_name (Graph.node g src).Node.name in
              let dst' = Hashtbl.find by_name (Graph.node g dst).Node.name in
              (match Routing.Ftable.path ft' ~src:src' ~dst:dst' with
              | Some p' when names g' p' = names g p -> ()
              | _ -> ok := false);
              if Routing.Ftable.layer ft ~src ~dst <> Routing.Ftable.layer ft' ~src:src' ~dst:dst' then
                ok := false);
          !ok && Oracles.Acyclic_ref.deadlock_free ft'))


(* ------------------------------------------------------------------ *)
(* Resumable offline sweep vs a naive restart-based reference           *)
(* ------------------------------------------------------------------ *)

(* A from-scratch reimplementation of Algorithm 2 that restarts the cycle
   search after every break (the expensive strategy the paper's resumable
   search avoids). It, the shipped SCC engine and the resumable DFS
   oracle must all produce valid assignments; agreement on the layer
   count over random workloads is strong evidence the resumable
   bookkeeping (stack truncation, stale color reuse) is faithful. *)
let naive_offline g ~paths ~max_layers =
  let store = Testutil.of_paths g paths in
  let layer_of_path = Array.make (Array.length paths) 0 in
  let exception Budget in
  let rec settle vl =
    if vl >= max_layers then raise Budget
    else begin
      let cdg = Deadlock.Cdg.of_store ~filter:(fun i -> layer_of_path.(i) = vl) store in
      match Deadlock.Cycle.find cdg with
      | None -> ()
      | Some cycle ->
        if vl + 1 >= max_layers then raise Budget;
        let c1, c2 =
          Oracles.Dfs_ref.choose Deadlock.Heuristic.Weakest (Oracles.Dfs_ref.Layer.create store cdg) cycle
        in
        List.iter
          (fun pr -> if layer_of_path.(pr) = vl then layer_of_path.(pr) <- vl + 1)
          (Deadlock.Cdg.edge_pairs cdg ~c1 ~c2);
        settle vl (* full restart on the same layer *)
    end
  in
  match
    let vl = ref 0 in
    let continue = ref true in
    while !continue do
      settle !vl;
      incr vl;
      if Array.for_all (fun l -> l < !vl) layer_of_path then continue := false
    done
  with
  | () -> Some (layer_of_path, 1 + Array.fold_left max 0 layer_of_path)
  | exception Budget -> None

let resumable_matches_naive =
  qtest ~count:15 "offline sweep agrees with restart-based reference" seed_gen (fun seed ->
      let rng = Rng.create seed in
      let g = Testutil.random_graph ~switch_radix:8 ~inter_links:12 rng in
      match Routing.Sssp.route g with
      | Error _ -> false
      | Ok ft ->
        let paths = ref [] in
        Routing.Ftable.iter_pairs ft (fun ~src:_ ~dst:_ p -> paths := p :: !paths);
        let paths = Array.of_list (List.rev !paths) in
        let heuristic = Deadlock.Heuristic.Weakest in
        let sound_near naive_used (outcome : Deadlock.Layers.outcome) =
          Testutil.layers_acyclic g ~paths ~layer_of_path:outcome.layer_of_path
            ~num_layers:outcome.layers_used
          (* the strategies must land within one layer of each other *)
          && abs (outcome.layers_used - naive_used) <= 1
        in
        (match
           ( Deadlock.Layers.assign_store (Testutil.of_paths g paths) ~max_layers:16 ~heuristic,
             Oracles.Dfs_ref.assign_store (Testutil.of_paths g paths) ~max_layers:16
               ~heuristic,
             naive_offline g ~paths ~max_layers:16 )
         with
        | Ok outcome, Ok dfs, Some (naive_layers, naive_used) ->
          Testutil.layers_acyclic g ~paths ~layer_of_path:naive_layers ~num_layers:naive_used
          && sound_near naive_used outcome
          && sound_near naive_used dfs
        | Error _, Error _, None -> true
        | _ -> false))

(* ------------------------------------------------------------------ *)
(* Degradation keeps DFSSSP sound at switch granularity                 *)
(* ------------------------------------------------------------------ *)

let switch_removal_sound =
  qtest ~count:15 "dfsssp survives switch removal" seed_gen (fun seed ->
      let rng = Rng.create seed in
      let g = Testutil.random_graph ~switches:9 ~terminals:18 ~inter_links:16 rng in
      let victim = Rng.pick rng (Graph.switches g) in
      match Degrade.remove_switch g ~switch:victim with
      | Error _ -> true (* remainder disconnected: nothing to check *)
      | Ok g' -> (
        match Dfsssp.route ~max_layers:16 g' with
        | Error _ -> false
        | Ok ft -> Oracles.Acyclic_ref.deadlock_free ft))

(* ------------------------------------------------------------------ *)
(* The fabric manager converges under arbitrary fault schedules         *)
(* ------------------------------------------------------------------ *)

(* Whatever mix of link downs/ups, drains and a switch removal a random
   schedule throws at it, and on whichever substrate (ring, torus,
   degraded XGFT), the manager must end every run on tables that pass the
   full independent verifier: complete and deadlock-free. *)
let fabric_manager_converges =
  qtest ~count:10 "fabric manager: random fault schedules end verified" seed_gen (fun seed ->
      let rng = Rng.create seed in
      let g =
        match Rng.int rng 3 with
        | 0 -> Topo_ring.make ~switches:6 ~terminals_per_switch:1
        | 1 -> fst (Topo_torus.torus ~dims:[| 3; 3 |] ~terminals_per_switch:1)
        | _ ->
          let base = Topo_xgft.make ~ms:[| 2; 3 |] ~ws:[| 2; 2 |] ~endpoints:12 in
          fst (Degrade.remove_cables base ~rng ~count:1)
      in
      let schedule = Fabric.Schedule.generate g ~rng ~events:6 ~switch_removals:1 ~drains:1 () in
      match Fabric.Manager.create g with
      | Error _ -> false
      | Ok mgr ->
        let _ = List.map (Fabric.Manager.apply mgr) schedule in
        Fabric.Manager.converged mgr && Oracles.Acyclic_ref.deadlock_free (Fabric.Manager.tables mgr))

(* ------------------------------------------------------------------ *)
(* Every registry engine faces the certifier                            *)
(* ------------------------------------------------------------------ *)

(* The independent certifier referees the whole line-up: on random and
   degraded fabrics every engine must either refuse with a structured
   error (the paper's "missing bar") or hand back tables the analyzer can
   judge — and an engine that claims deadlock freedom by design must walk
   away certified, never rejected. *)
let registry_engines_certify =
  qtest ~count:10 "registry: every engine certifies or refuses structurally" seed_gen (fun seed ->
      let rng = Rng.create seed in
      let g, coords =
        match Rng.int rng 3 with
        | 0 ->
          let g, coords = Topo_torus.torus ~dims:[| 3; 4 |] ~terminals_per_switch:1 in
          (fst (Degrade.remove_cables g ~rng ~count:(Rng.int rng 2)), Some coords)
        | 1 -> (Testutil.random_graph ~terminals:10 rng, None)
        | _ ->
          let base = Topo_xgft.make ~ms:[| 2; 3 |] ~ws:[| 2; 2 |] ~endpoints:12 in
          (fst (Degrade.remove_cables base ~rng ~count:1), None)
      in
      List.for_all
        (fun (a : Dfsssp.Registry.algorithm) ->
          match a.Dfsssp.Registry.run g with
          | Error msg -> msg <> "" (* a refusal must say why *)
          | Ok ft -> (
            let report = Analysis.Analyzer.analyze ft in
            match report.Analysis.Analyzer.verdict with
            | Analysis.Analyzer.Certified _ -> true
            | Analysis.Analyzer.Rejected _ -> not a.Dfsssp.Registry.deadlock_free_by_design))
        (Dfsssp.Registry.all ?coords ~max_layers:16 ()))

(* Both offline cycle-break engines must hand the analyzer certifiable
   tables on the registry's fabric mix, with the SCC engine's layer
   count within one of the DFS oracle's (DESIGN.md section 17). *)
let break_engines_certify =
  qtest ~count:10 "break engines: scc and dfs both certify, layers within one" seed_gen
    (fun seed ->
      let rng = Rng.create seed in
      let g =
        match Rng.int rng 3 with
        | 0 -> fst (Topo_torus.torus ~dims:[| 4; 4 |] ~terminals_per_switch:1)
        | 1 -> Testutil.random_graph ~terminals:10 rng
        | _ -> Topo_kautz.make ~b:2 ~n:3 ~endpoints:18
      in
      let layers engine =
        match Testutil.dfsssp ~engine ~max_layers:16 g with
        | Error _ -> None
        | Ok ft -> (
          let report = Analysis.Analyzer.analyze ft in
          match report.Analysis.Analyzer.verdict with
          | Analysis.Analyzer.Certified _ -> Some (Routing.Ftable.num_layers ft)
          | Analysis.Analyzer.Rejected _ -> None)
      in
      match (layers `Scc, layers `Dfs) with
      | Some scc, Some dfs -> scc <= dfs + 1
      | _ -> false)

(* ------------------------------------------------------------------ *)
(* Route classes: class-keyed Algorithm 2 and certifier                 *)
(* ------------------------------------------------------------------ *)

(* A jellyfish, random or torus fabric with 1-4 terminals per switch. *)
let class_fabric rng =
  let tps = 1 + Rng.int rng 4 in
  match Rng.int rng 3 with
  | 0 -> Topo_jellyfish.make ~switches:(8 + Rng.int rng 5) ~ports:(3 + tps) ~net_ports:3 ~rng
  | 1 ->
    let switches = 6 + Rng.int rng 4 in
    Topo_random.make ~switches ~switch_radix:(4 + tps) ~terminals:(switches * tps)
      ~inter_links:(switches + 2 + Rng.int rng 4) ~rng
  | _ -> fst (Topo_torus.torus ~dims:[| 3 + Rng.int rng 2; 3 |] ~terminals_per_switch:tps)

let sssp_table g = Result.get_ok (Routing.Sssp.route g)

let classes_of ft = Result.get_ok (Routing.Ftable.to_classes ft)

(* Class layers spread over the pairs, [-1] on the diagonal. *)
let per_pair (cls : Routing.Ftable.classes) class_layer =
  Array.map (fun k -> if k < 0 then -1 else class_layer.(k)) cls.Routing.Ftable.class_of_pair

(* Algorithm 2 over the weighted class store gives every pair the layer
   the weight-1 per-pair store gives it, with the same layer count and
   evictions, for every heuristic, under the shipped engine and the DFS
   oracle — and so does the online placement. Dfsssp.assign_layers,
   which runs the shipped engine on the classes, writes exactly the
   per-pair outcome into the table. *)
let classes_algorithm2_parity =
  qtest ~count:12 "route classes: Algorithm 2 equals the per-pair run" seed_gen (fun seed ->
      let rng = Rng.create seed in
      let g = class_fabric rng in
      let ft = sssp_table g in
      let store = Result.get_ok (Routing.Ftable.to_store ft) in
      let cls = classes_of ft in
      let same name a b =
        match (a, b) with
        | Ok (pl, pu, pc), Ok (cl, cu, cc) ->
          let ok = pl = per_pair cls cl && pu = cu && pc = cc in
          if not ok then QCheck2.Test.fail_reportf "%s: class run differs" name;
          ok
        | Error a, Error b -> a = b
        | _ -> QCheck2.Test.fail_reportf "%s: one run failed" name
      in
      let offline engine heuristic st =
        Result.map
          (fun (o : Deadlock.Layers.outcome) -> (o.layer_of_path, o.layers_used, o.cycles_broken))
          (match engine with
          | `Scc -> Deadlock.Layers.assign_store st ~max_layers:16 ~heuristic
          | `Dfs -> Oracles.Dfs_ref.assign_store st ~max_layers:16 ~heuristic)
      in
      let online st =
        Result.map
          (fun (o : Deadlock.Online.outcome) -> (o.layer_of_path, o.layers_used, 0))
          (Deadlock.Online.assign_store st ~max_layers:16)
      in
      List.for_all
        (fun engine ->
          List.for_all
            (fun h ->
              let name =
                Printf.sprintf "%s/%s"
                  (match engine with `Scc -> "scc" | `Dfs -> "dfs")
                  (Deadlock.Heuristic.to_string h)
              in
              same name (offline engine h store) (offline engine h cls.Routing.Ftable.store)
              && (engine = `Dfs
                 ||
                 let copy = sssp_table g in
                 match (offline engine h store, Dfsssp.assign_layers ~heuristic:h ~max_layers:16 copy) with
                 | Ok (pl, pu, _), Ok t -> Routing.Ftable.pair_layers t = pl && Routing.Ftable.num_layers t = pu
                 | Error _, Error _ -> true
                 | _ -> QCheck2.Test.fail_reportf "%s: assign_layers disagrees" name))
            Deadlock.Heuristic.all)
        [ `Scc; `Dfs ]
      && same "online" (online store) (online cls.Routing.Ftable.store))

(* The certified classes stand in for the per-pair routes on the swap
   path: their expansion holds every pair's own table walk, slice for
   slice, and their statistics are the per-pair oracle's. *)
let classes_expand_parity =
  qtest ~count:20 "route classes: expansion and statistics equal the per-pair store" seed_gen
    (fun seed ->
      let rng = Rng.create seed in
      let g = class_fabric rng in
      (* SSSP's minimal routes and up*/down*'s detours *)
      List.for_all
        (fun ft ->
          let cls = classes_of ft in
          let expanded = Routing.Ftable.expand ft cls in
          let nt = Graph.num_terminals g in
          let same = ref (Deadlock.Route_store.num_paths expanded = nt * (nt - 1)) in
          Deadlock.Route_store.iter_pairs expanded (fun pair ->
              let src, dst = Routing.Ftable.pair_of_id ft pair in
              if Some (Deadlock.Route_store.to_path expanded ~pair) <> Routing.Ftable.path ft ~src ~dst then
                same := false);
          !same && Oracles.Stats_ref.of_table ft = Ok (Routing.Ftable.class_stats ft cls))
        (sssp_table g :: Result.to_list (Routing.Updown.route g)))

(* Random per-pair layerings — a DFSSSP layering with random pairs moved
   to a shadow copy of their layer (certifiable, and one class's pairs
   then ride two layers), or layers drawn at random (mostly cyclic): the
   class certifier gives the per-pair verdict and [stuck] count, and every
   certificate it generates checks against the per-pair store. *)
let classes_certifier_parity =
  qtest ~count:20 "route classes: certifier verdicts equal the per-pair ones" seed_gen (fun seed ->
      let rng = Rng.create seed in
      let g = class_fabric rng in
      let ft =
        match Dfsssp.assign_layers ~max_layers:16 (sssp_table g) with
        | Ok ft -> ft
        | Error e -> QCheck2.Test.fail_reportf "dfsssp: %s" (Dfsssp.error_to_string e)
      in
      let layers = Routing.Ftable.pair_layers ft and used = Routing.Ftable.num_layers ft in
      let shadow = Rng.int rng 2 = 0 in
      let k = if shadow then 2 * used else 1 + Rng.int rng 3 in
      Array.iteri
        (fun p l ->
          if l >= 0 then
            layers.(p) <-
              (if shadow then if Rng.int rng 3 = 0 then l + used else l else Rng.int rng k))
        layers;
      Routing.Ftable.set_pair_layers ft layers;
      Routing.Ftable.set_num_layers ft k;
      let pair_routes =
        Analysis.Cert.Routes.of_store (Result.get_ok (Routing.Ftable.to_store ft))
          ~layer_of_path:(Routing.Ftable.pair_layers ft)
      in
      let per_pair =
        match Analysis.Cert.of_routes ft pair_routes with
        | Ok cert -> Result.map_error (fun m -> `Refuted m) (Analysis.Cert.check_routes cert pair_routes)
        | Error e -> Error (`Cert e)
      in
      let routes = Analysis.Cert.Routes.of_classes ft (classes_of ft) in
      let by_class =
        match Analysis.Cert.of_routes ft routes with
        | Ok cert -> (
          match Analysis.Cert.check_routes cert routes with
          | Error m -> Error (`Refuted m)
          | Ok () ->
            (* the class certificate is a certificate of the per-pair routes *)
            Result.map_error
              (fun m -> `Refuted ("per-pair check: " ^ m))
              (Analysis.Cert.check_routes cert pair_routes))
        | Error e -> Error (`Cert e)
      in
      (if shadow && Result.is_error by_class then QCheck2.Test.fail_report "shadow layering refused");
      per_pair = by_class)

(* The three deadlock verdicts agree on every registry engine's tables,
   the cyclic sssp, minhop and dor included, and again after a random
   re-layering: the shipped one ({!Dfsssp.Verify.report}, the trusted
   checker's), the A007 witness search, and the Kahn oracle rebuilding
   each layer's CDG. Every witness found re-checks against the table. *)
let deadlock_verdicts_agree =
  qtest ~count:8 "deadlock verdicts: checker, witness search and Kahn oracle agree" seed_gen
    (fun seed ->
      let rng = Rng.create seed in
      let g, coords =
        if Rng.int rng 2 = 0 then
          let g, coords =
            Topo_torus.torus ~dims:[| 3 + Rng.int rng 2; 3 |] ~terminals_per_switch:(1 + Rng.int rng 2)
          in
          (g, Some coords)
        else (class_fabric rng, None)
      in
      let verdicts what ft =
        let checker =
          match Dfsssp.Verify.report ft with
          | Ok r -> r.Dfsssp.Verify.deadlock_free
          | Error msg -> QCheck2.Test.fail_reportf "%s: report: %s" what msg
        in
        let search =
          match Analysis.Witness.of_table ft with
          | Ok None -> true
          | Ok (Some w) -> (
            match Analysis.Witness.check_table w ft with
            | Ok () -> false
            | Error msg -> QCheck2.Test.fail_reportf "%s: witness does not check: %s" what msg)
          | Error msg -> QCheck2.Test.fail_reportf "%s: witness search: %s" what msg
        in
        let oracle = Oracles.Acyclic_ref.deadlock_free ft in
        if checker <> search || search <> oracle then
          QCheck2.Test.fail_reportf "%s: checker %b, witness search %b, oracle %b" what checker search
            oracle
      in
      List.iter
        (fun (a : Dfsssp.Registry.algorithm) ->
          match a.Dfsssp.Registry.run g with
          | Error _ -> ()
          | Ok ft ->
            verdicts a.Dfsssp.Registry.name ft;
            let k = 1 + Rng.int rng 3 in
            Routing.Ftable.set_pair_layers ft
              (Array.map (fun l -> if l < 0 then l else Rng.int rng k) (Routing.Ftable.pair_layers ft));
            Routing.Ftable.set_num_layers ft k;
            verdicts (a.Dfsssp.Registry.name ^ " re-layered") ft)
        (Dfsssp.Registry.all ?coords ~max_layers:16 ());
      true)

(* ------------------------------------------------------------------ *)
(* Collective schedules partition the pair space                        *)
(* ------------------------------------------------------------------ *)

let a2a_rounds_partition =
  qtest ~count:25 "pairwise all-to-all rounds partition all ordered pairs"
    QCheck2.Gen.(int_range 2 17)
    (fun n ->
      let ranks = Array.init n (fun i -> 100 + i) in
      let sched = Simulator.Collective.all_to_all_pairwise ranks in
      let seen = Hashtbl.create 64 in
      List.for_all
        (fun round ->
          Array.for_all
            (fun (a, b) ->
              if a = b || Hashtbl.mem seen (a, b) then false
              else begin
                Hashtbl.replace seen (a, b) ();
                true
              end)
            round)
        sched.Simulator.Collective.rounds
      && Hashtbl.length seen = n * (n - 1))

(* ------------------------------------------------------------------ *)
(* Multipath planes stay minimal and spread consistently                *)
(* ------------------------------------------------------------------ *)

let multipath_sound =
  qtest ~count:10 "multipath: every plane minimal, spread paths consistent" seed_gen (fun seed ->
      let rng = Rng.create seed in
      let g = Testutil.random_graph ~terminals:12 ~inter_links:12 rng in
      match Dfsssp.Multipath.route ~planes:3 ~max_layers:16 g with
      | Error _ -> false
      | Ok mp ->
        Testutil.multipath_deadlock_free mp
        && Array.for_all
             (fun ft ->
               match Routing.Ftable.validate ft with
               | Ok s -> s.Routing.Ftable.minimal
               | Error _ -> false)
             (Dfsssp.Multipath.planes mp)
        &&
        let flows = Simulator.Patterns.all_to_all (Graph.terminals g) in
        let paths = Dfsssp.Multipath.spread_paths mp ~flows in
        Array.for_all (fun p -> Array.length p = 0 || Testutil.path_is_consistent g p) paths)

let () =
  Alcotest.run "properties"
    [
      ( "topologies",
        [
          torus_invariants;
          mesh_invariants;
          tree_invariants;
          xgft_invariants;
          kautz_invariants;
          dragonfly_invariants;
          hyperx_invariants;
          serial_roundtrip_random;
        ] );
      ("routing", [ minhop_suffix; sssp_suffix; updown_suffix; routing_deterministic ]);
      ("congestion", [ congestion_conservation ]);
      ("netsim", [ acyclic_implies_drain ]);
      ("cdg", [ cycle_vs_kahn; resumable_matches_naive; cdg_matches_reference; cycle_find_matches_oracle ]);
      ("interop", [ sl_dump_matches_layers; ftable_io_random ]);
      ("degradation", [ switch_removal_sound ]);
      ("certification", [ registry_engines_certify; break_engines_certify ]);
      ("route-classes", [ classes_algorithm2_parity; classes_expand_parity; classes_certifier_parity ]);
      ("verdicts", [ deadlock_verdicts_agree ]);
      ("fabric", [ fabric_manager_converges ]);
      ("collectives", [ a2a_rounds_partition ]);
      ("multipath", [ multipath_sound ]);
    ]
