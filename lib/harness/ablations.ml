let sssp_initial_weight () =
  let fabrics =
    [
      ("ring8", Topo_ring.make ~switches:8 ~terminals_per_switch:2);
      ("kautz(2,3)", Topo_kautz.make ~b:2 ~n:3 ~endpoints:36);
      ("6-ary 2-tree", Topo_tree.make ~k:6 ~n:2 ());
      ( "random",
        let rng = Rng.create 5 in
        Topo_random.make ~switches:10 ~switch_radix:10 ~terminals:20 ~inter_links:14 ~rng );
    ]
  in
  let rows =
    List.concat_map
      (fun (name, g) ->
        List.filter_map
          (fun (label, initial_weight) ->
            match Routing.Sssp.route ?initial_weight g with
            | Error _ -> None
            | Ok ft -> (
              match Ftable.validate ft with
              | Error _ -> None
              | Ok s ->
                Some
                  [
                    Report.Str name;
                    Report.Str label;
                    Report.Str (if s.Ftable.minimal then "yes" else "NO");
                    Report.Int s.Ftable.max_hops;
                    Report.Flt s.Ftable.avg_hops;
                  ]))
          [ ("|V|^2 (paper)", None); ("1 (naive)", Some 1) ])
      fabrics
  in
  {
    Report.title = "Ablation: SSSP initial channel weight (paper Fig. 1)";
    columns = [ "fabric"; "initial weight"; "minimal"; "max hops"; "avg hops" ];
    rows;
    notes = [ "weight 1 lets accumulated increments exceed a hop's cost: detours appear" ];
  }

let ebb_of ft ~patterns ~seed =
  let rng = Rng.create seed in
  (Simulator.Congestion.effective_bisection_bandwidth ~patterns ~rng ft).Simulator.Congestion.samples
    .Obs.Stat.mean

let hardened_routings ?(patterns = 30) ?(seed = 21) ?batch ?domains () =
  let g, coords = Topo_torus.torus ~dims:[| 6; 6 |] ~terminals_per_switch:1 in
  let lb = Analysis.Existence.min_layers_lb g in
  let rows =
    List.filter_map
      (fun name ->
        match Runs.run_named ~coords ~max_layers:8 ?batch ?domains name g with
        | Error _ -> None
        | Ok ft ->
          Some
            [
              Report.Str name;
              Report.Str (if Result.is_ok (Analysis.Analyzer.certify ft) then "yes" else "NO");
              Report.Int (Ftable.num_layers ft);
              Report.Int lb;
              Report.Flt (ebb_of ft ~patterns ~seed);
              Runs.analyzer_cell ft;
            ])
      [ "dor"; "dfdor"; "minhop"; "dfminhop"; "sssp"; "dfsssp" ]
  in
  {
    Report.title = "Ablation: hardening arbitrary routings with the layer assignment (6x6 torus)";
    columns = [ "routing"; "deadlock-free"; "VLs"; "VL lower bound"; "eBB"; "analyzer" ];
    rows;
    notes =
      [
        "df* = base routes unchanged, offline cycle-breaking applied on top";
        "VL lower bound = provable per-topology layer minimum (Analysis.Existence)";
      ];
  }

let dragonfly ?(patterns = 30) ?(seed = 22) ?batch ?domains () =
  let g = Topo_dragonfly.make ~a:4 ~p:2 ~h:2 () in
  let lb = Analysis.Existence.min_layers_lb g in
  let missing_row name =
    [
      Report.Str name; Report.Missing; Report.Missing; Report.Int lb; Report.Missing;
      Report.Missing; Report.Missing;
    ]
  in
  let rows =
    List.map
      (fun name ->
        match Runs.run_named ~max_layers:8 ?batch ?domains name g with
        | Error _ -> missing_row name
        | Ok ft -> (
          match Ftable.validate ft with
          | Error _ -> missing_row name
          | Ok s ->
            [
              Report.Str name;
              Report.Str (if Result.is_ok (Analysis.Analyzer.certify ft) then "yes" else "NO");
              Report.Int (Ftable.num_layers ft);
              Report.Int lb;
              Report.Flt s.Ftable.avg_hops;
              Report.Flt (ebb_of ft ~patterns ~seed);
              Runs.analyzer_cell ft;
            ]))
      Runs.paper_algorithms
  in
  {
    Report.title = "Extension: dragonfly(a=4,p=2,h=2), 9 groups, 72 nodes";
    columns = [ "routing"; "deadlock-free"; "VLs"; "VL lower bound"; "avg hops"; "eBB"; "analyzer" ];
    rows;
    notes =
      [
        "a topology class outside the paper's evaluation set (generality check)";
        "VL lower bound = provable per-topology layer minimum (Analysis.Existence)";
      ];
  }

let random_graphs ?(max_layers = 8) () =
  let rows =
    List.filter_map
      (fun spec ->
        match Topospec.parse spec with
        | Error _ -> None
        | Ok t ->
          let g = t.Topospec.graph in
          let existence = Analysis.Existence.analyze g in
          Some
            [
              Report.Str spec;
              Report.Int (Graph.num_switches g);
              Report.Int (Graph.num_terminals g);
              Report.Str
                (if Analysis.Existence.feasible existence ~budget:max_layers then "yes" else "NO");
              Report.Int existence.Analysis.Existence.min_layers_lb;
              Runs.vl_cell ~max_layers "updown" g;
              Runs.vl_cell ~max_layers "lash" g;
              Runs.vl_cell ~max_layers "dfsssp" g;
              Runs.analyzer_run_cell ~max_layers "dfsssp" g;
            ])
      Zoo.generator_specs
  in
  {
    Report.title = "Extension: expander-family random graphs (jellyfish, xpander) — existence and VL lower bounds";
    columns =
      [ "spec"; "switches"; "terminals"; "feasible@8"; "VL lower bound"; "updown VLs"; "lash VLs"; "dfsssp VLs"; "analyzer" ];
    rows;
    notes =
      [
        "seeded samples from the zoo battery (Zoo.generator_specs); deterministic in the spec";
        "VL lower bound = provable per-topology layer minimum (Analysis.Existence)";
      ];
  }

let balancing ?(seed = 23) () =
  (* Layer balancing spreads routes over unused lanes: same wire, more
     buffer slots in use. Measure drain time of a heavy shift pattern on
     the packet simulator. *)
  let g = fst (Topo_torus.torus ~dims:[| 4; 4 |] ~terminals_per_switch:1) in
  ignore seed;
  let terminals = Graph.terminals g in
  let n = Array.length terminals in
  (* two superposed shifts, single-slot buffers: lane occupancy is the
     bottleneck, so spreading routes over more lanes pays *)
  let flows =
    Array.init (2 * n) (fun i ->
        let j = i / 2 in
        let hop = if i mod 2 = 0 then n / 2 else (n / 4) + 1 in
        (terminals.(j), terminals.((j + hop) mod n), 40))
  in
  let rows =
    List.filter_map
      (fun (label, balance) ->
        match Dfsssp.route ~max_layers:8 ~balance g with
        | Error _ -> None
        | Ok ft -> (
          let config = { Simulator.Netsim.packet_config with num_vls = 8; credits = 1 } in
          match Simulator.Netsim.run ~config ft ~flows with
          | Simulator.Netsim.Completed { makespan; packets; _ } ->
            Some
              [
                Report.Str label;
                Report.Int (Ftable.num_layers ft);
                Report.Int (Float.to_int makespan);
                Report.Int packets;
              ]
          | Simulator.Netsim.Deadlocked _ | Simulator.Netsim.Out_of_events _ -> None))
      [ ("required lanes only", false); ("balanced over 8 lanes", true) ]
  in
  {
    Report.title = "Ablation: layer balancing (tail of Algorithm 2), packet simulator on 4x4 torus";
    columns = [ "assignment"; "lanes used"; "drain time (packet times)"; "packets" ];
    rows;
    notes = [ "more lanes = more buffer slots per physical link = fewer stalls" ];
  }

let online_engines ?(max_endpoints = 512) () =
  let rows =
    List.map
      (fun (r : Tableone.row) ->
        let g = Tableone.tree_graph r in
        match Routing.Sssp.route g with
        | Error _ -> [ Report.Int r.Tableone.endpoints ]
        | Ok ft -> (
          match Ftable.to_store ft with
          | Error _ -> [ Report.Int r.Tableone.endpoints ]
          | Ok store ->
          let time f =
            let dt, outcome = Runs.timed f in
            match outcome with
            | Ok _ -> Report.Time dt
            | Error _ -> Report.Missing
          in
          [
            Report.Int r.Tableone.endpoints;
            time (fun () -> Online.assign_store store ~max_layers:16);
            time (fun () ->
                Layers.assign_store store ~max_layers:16 ~heuristic:Heuristic.Weakest);
          ]))
      (Tableone.rows_up_to max_endpoints)
  in
  {
    Report.title = "Ablation: online cycle-check engines vs offline sweep (k-ary n-tree, SSSP paths)";
    columns = [ "#endpoints"; "online Pearce-Kelly"; "offline SCC" ];
    rows;
    notes = [ "assignment time only (routes precomputed); both are deadlock-free" ];
  }

let adversarial_patterns () =
  let algorithms = [ "minhop"; "updown"; "lash"; "dfsssp" ] in
  let fabrics =
    [
      ("8x8 torus", fst (Topo_torus.torus ~dims:[| 8; 8 |] ~terminals_per_switch:1));
      ("16-ary 2-tree", Topo_tree.make ~k:16 ~n:2 ());
    ]
  in
  let rows =
    List.concat_map
      (fun (fname, g) ->
        let ranks = Graph.terminals g in
        let routed =
          List.filter_map
            (fun name ->
              match Runs.run_named name g with
              | Ok ft -> Some (name, ft)
              | Error _ -> None)
            algorithms
        in
        List.filter_map
          (fun (pname, pattern) ->
            match pattern ranks with
            | Error _ -> None
            | Ok flows ->
              Some
                (Report.Str fname :: Report.Str pname
                :: List.map
                     (fun name ->
                       match List.assoc_opt name routed with
                       | None -> Report.Missing
                       | Some ft ->
                         let r = Simulator.Congestion.evaluate ft ~flows in
                         Report.Flt r.Simulator.Congestion.mean_share)
                     algorithms))
          Simulator.Patterns.adversarial)
      fabrics
  in
  {
    Report.title = "Extension: adversarial permutation patterns (mean bandwidth share)";
    columns = "fabric" :: "pattern" :: algorithms;
    rows;
    notes = [ "deterministic permutations; 1.0 = every flow at wire speed" ];
  }

let multipath ?(matchings = 20) ?(seed = 29) () =
  let g = fst (Topo_torus.torus ~dims:[| 8; 8 |] ~terminals_per_switch:1) in
  let ranks = Graph.terminals g in
  let tornado_flows =
    match Simulator.Patterns.tornado ranks with
    | Ok f -> f
    | Error _ -> [||]
  in
  let rows =
    List.map
      (fun planes ->
        match Dfsssp.Multipath.route ~planes ~max_layers:16 g with
        | Error _ -> [ Report.Int planes; Report.Missing; Report.Missing; Report.Missing ]
        | Ok mp ->
          let tornado_share =
            let paths = Dfsssp.Multipath.spread_paths mp ~flows:tornado_flows in
            (Simulator.Congestion.evaluate_paths g ~paths).Simulator.Congestion.mean_share
          in
          let rng = Rng.create seed in
          let means =
            Array.init matchings (fun _ ->
                let flows = Simulator.Patterns.random_bisection rng ranks in
                let paths = Dfsssp.Multipath.spread_paths mp ~flows in
                (Simulator.Congestion.evaluate_paths g ~paths).Simulator.Congestion.mean_share)
          in
          [
            Report.Int planes;
            Report.Int (Dfsssp.Multipath.num_layers mp);
            Report.Flt tornado_share;
            Report.Flt (Obs.Stat.mean means);
          ])
      [ 1; 2; 4 ]
  in
  {
    Report.title = "Extension: LMC-style multipath on the 8x8 torus (16-lane budget)";
    columns = [ "planes"; "joint VLs"; "tornado share"; "bisection eBB" ];
    rows;
    notes =
      [
        "planes share channel weights: each avoids its predecessors' load";
        "one joint lane assignment covers every plane (shared buffers)";
      ];
  }

let routing_quality ?(scale = 8) ?batch ?domains () =
  let g = (Clusters.deimos ~scale ()).Clusters.graph in
  let rows =
    List.filter_map
      (fun name ->
        match Runs.run_named ?batch ?domains name g with
        | Error _ ->
          Some
            [
              Report.Str name; Report.Missing; Report.Missing; Report.Missing; Report.Missing;
              Report.Missing; Report.Missing;
            ]
        | Ok ft ->
          let q = Simulator.Quality.measure ft in
          Some
            [
              Report.Str name;
              Report.Flt q.Simulator.Quality.mean_hops;
              Report.Int q.Simulator.Quality.max_hops;
              Report.Str (if q.Simulator.Quality.max_hops = q.Simulator.Quality.diameter_hops then "yes" else "no");
              Report.Int q.Simulator.Quality.max_load;
              Report.Flt q.Simulator.Quality.load_cv;
              Runs.analyzer_cell ft;
            ])
      Runs.paper_algorithms
  in
  {
    Report.title = Printf.sprintf "Quality: all-pairs path length and load balance, Deimos stand-in (scale 1/%d)" scale;
    columns = [ "routing"; "mean hops"; "max hops"; "tight"; "max load"; "load cv"; "analyzer" ];
    rows;
    notes =
      [
        "tight = the longest route matches the fabric diameter (no detours)";
        "load cv = coefficient of variation over switch-channel loads; lower = better balanced";
      ];
  }

let vl_budget ?(budgets = [ 1; 2; 3; 4; 6; 8 ]) () =
  let g = fst (Topo_torus.torus ~dims:[| 6; 6 |] ~terminals_per_switch:1) in
  let terminals = Graph.terminals g in
  let n = Array.length terminals in
  let flows =
    Array.init (2 * n) (fun i ->
        let j = i / 2 in
        let hop = if i mod 2 = 0 then n / 2 else (n / 4) + 1 in
        (terminals.(j), terminals.((j + hop) mod n), 30))
  in
  let rows =
    List.map
      (fun budget ->
        match Dfsssp.route ~max_layers:budget ~balance:true g with
        | Error _ -> [ Report.Int budget; Report.Str "failed"; Report.Missing; Report.Missing ]
        | Ok ft -> (
          let config = { Simulator.Netsim.packet_config with num_vls = budget; credits = 1 } in
          match Simulator.Netsim.run ~config ft ~flows with
          | Simulator.Netsim.Completed { makespan; _ } ->
            [
              Report.Int budget; Report.Str "ok"; Report.Int (Ftable.num_layers ft); Report.Int (Float.to_int makespan);
            ]
          | Simulator.Netsim.Deadlocked _ | Simulator.Netsim.Out_of_events _ ->
            [ Report.Int budget; Report.Str "sim stall"; Report.Int (Ftable.num_layers ft); Report.Missing ]))
      budgets
  in
  {
    Report.title = "Ablation: virtual-lane budget on the 6x6 torus (DFSSSP, balancing on)";
    columns = [ "budget"; "status"; "lanes used"; "drain time (packet times)" ];
    rows;
    notes = [ "below the APP requirement the assignment fails; surplus lanes buy buffering" ];
  }

let collectives ?(message_bytes = 65536.0) () =
  let algorithms = [ "minhop"; "updown"; "lash"; "dfsssp" ] in
  let bandwidth = 1e9 in
  let fabrics =
    [
      ("deimos/8", (Clusters.deimos ~scale:8 ()).Clusters.graph);
      ("8x8 torus", fst (Topo_torus.torus ~dims:[| 8; 8 |] ~terminals_per_switch:1));
    ]
  in
  let rows =
    List.concat_map
      (fun (fname, g) ->
        let ranks = Graph.terminals g in
        let schedules =
          [ Simulator.Collective.all_to_all_pairwise ranks; Simulator.Collective.allreduce_ring ranks ]
          @ (match Simulator.Collective.allreduce_recursive_doubling ranks with
            | Ok s -> [ s ]
            | Error _ -> [])
        in
        let routed =
          List.filter_map
            (fun name ->
              match Runs.run_named name g with
              | Ok ft -> Some (name, ft)
              | Error _ -> None)
            algorithms
        in
        List.map
          (fun (sched : Simulator.Collective.schedule) ->
            Report.Str fname :: Report.Str sched.Simulator.Collective.name
            :: List.map
                 (fun name ->
                   match List.assoc_opt name routed with
                   | None -> Report.Missing
                   | Some ft ->
                     Report.Time
                       (Simulator.Collective.completion_time ft sched ~message_bytes ~bandwidth))
                 algorithms)
          schedules)
      fabrics
  in
  {
    Report.title =
      Printf.sprintf "Extension: phased collectives, %.0f KiB per rank, 1 GB/s links" (message_bytes /. 1024.0);
    columns = "fabric" :: "schedule" :: algorithms;
    rows;
    notes = [ "rounds are barriers; each round is a permutation priced at its bottleneck load" ];
  }

let complexity ?(max_endpoints = 512) () =
  let rows =
    List.filter_map
      (fun (r : Tableone.row) ->
        let g = Tableone.tree_graph r in
        match Routing.Sssp.route g with
        | Error _ -> None
        | Ok ft -> (
          match Ftable.to_store ft with
          | Error _ -> None
          | Ok store ->
            (* CDG size of the full (single-layer) dependency graph *)
            let cdg = Cdg.of_store store in
            let dt, outcome =
              Runs.timed (fun () -> Layers.assign_store store ~max_layers:16 ~heuristic:Heuristic.Weakest)
            in
            (match outcome with
            | Error _ -> None
            | Ok o ->
              Some
                [
                  Report.Int r.Tableone.endpoints;
                  Report.Int (Graph.num_channels g);
                  Report.Int (Cdg.num_edges cdg);
                  Report.Int (Route_store.num_paths store);
                  Report.Int o.Layers.layers_used;
                  Report.Int o.Layers.cycles_broken;
                  Report.Time dt;
                ])))
      (Tableone.rows_up_to max_endpoints)
  in
  {
    Report.title = "Complexity: CDG size and offline assignment cost on the k-ary n-tree sweep (Prop. 2)";
    columns = [ "#endpoints"; "|C| channels"; "|E| CDG edges"; "paths"; "layers"; "cycles broken"; "assign time" ];
    rows;
    notes =
      [
        "Prop. 2: offline time O(|N|^2 (log|N| + V) + |N||C| + V(|C|+|E|)); watch the growth, not constants";
      ];
  }
