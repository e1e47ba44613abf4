(* Routing subcommands: compute and verify a routing (route), put a
   workload on it (simulate), certify forwarding tables (analyze), and
   regenerate the paper's tables and figures (experiment). *)

open Cmdliner

(* route: the moral equivalent of running a routing engine inside
   OpenSM, against generated or file-described fabrics — compute the
   forwarding tables and virtual-lane assignment, verify
   deadlock-freedom, and optionally measure effective bisection
   bandwidth or export artefacts. *)
let route_cmd =
  let run verbose (spec : Cli.spec) algorithm max_layers heuristic online balance ebb_patterns seed
      show_routes out dot opensm_out routing_out =
    Logs.set_reporter (Logs.format_reporter ());
    Logs.set_level (Some (if verbose then Logs.Debug else Logs.Warning));
    let { Harness.Topospec.graph = g; coords; description } = spec.Cli.topo in
    Format.printf "fabric: %s@." description;
    Format.printf "        %a@." Netgraph.Graph.pp_stats g;
    let result =
      if algorithm = "dfsssp" then
        let variant = if online then Dfsssp.Online else Dfsssp.Offline in
        Result.map_error Dfsssp.error_to_string (Dfsssp.route ~variant ~heuristic ~max_layers ~balance g)
      else Harness.Runs.run_named ?coords ~max_layers algorithm g
    in
    match result with
    | Error msg ->
      Printf.eprintf "routing failed: %s\n" msg;
      1
    | Ok ft ->
      (match Dfsssp.Verify.report ft with
      | Ok r -> Format.printf "result: %a@." Dfsssp.Verify.pp_report r
      | Error msg -> Format.printf "result: INVALID ROUTING (%s)@." msg);
      if ebb_patterns > 0 then begin
        let rng = Netgraph.Rng.create seed in
        let ebb = Simulator.Congestion.effective_bisection_bandwidth ~patterns:ebb_patterns ~rng ft in
        Format.printf "effective bisection bandwidth: %a (worst pair %.4f)@." Obs.Stat.pp_summary
          ebb.Simulator.Congestion.samples ebb.Simulator.Congestion.worst_pair
      end;
      if show_routes then
        Routing.Ftable.iter_pairs ft (fun ~src ~dst path ->
            Format.printf "  %s -> %s vl%d hops=%d@."
              (Netgraph.Graph.node g src).Netgraph.Node.name
              (Netgraph.Graph.node g dst).Netgraph.Node.name
              (Routing.Ftable.layer ft ~src ~dst)
              (Netgraph.Path.length path));
      Cli.write_fabric ~out ~dot g;
      Option.iter
        (fun dir ->
          Cli.ensure_dir dir;
          List.iter (Format.printf "wrote %s@.") (Routing.Opensm.save_all ~dir ft))
        opensm_out;
      Option.iter (fun path -> Cli.write path (Routing.Ftable_io.to_string ft)) routing_out;
      0
  in
  let verbose = Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Log the layer assignment's progress.") in
  let heuristic =
    let heuristics = List.map (fun h -> (Deadlock.Heuristic.to_string h, h)) Deadlock.Heuristic.all in
    Arg.(
      value
      & opt (enum heuristics) Deadlock.Heuristic.Weakest
      & info [ "heuristic" ] ~docv:"H"
          ~doc:("Cycle-breaking heuristic for dfsssp: " ^ String.concat ", " (List.map fst heuristics) ^ "."))
  in
  let online =
    Arg.(value & flag & info [ "online" ] ~doc:"Use the online (path-at-a-time) layer assignment for dfsssp.")
  in
  let balance =
    Arg.(value & flag & info [ "balance" ] ~doc:"Spread dfsssp routes over unused virtual lanes after assignment.")
  in
  let ebb =
    Arg.(
      value & opt Cli.nonneg_int 0
      & info [ "ebb" ] ~docv:"PATTERNS"
          ~doc:"Also estimate effective bisection bandwidth over $(docv) random bisections.")
  in
  let routes = Arg.(value & flag & info [ "routes" ] ~doc:"Print every route (large on big fabrics).") in
  let opensm_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "opensm" ] ~docv:"DIR" ~doc:"Write OpenSM-style LFT/GUID/SL2VL dump files into $(docv).")
  in
  let routing_out =
    Cli.out_file [ "save-routing" ]
      ~doc:"Save the complete routing (fabric + tables + lanes) to $(docv) in the Ftable_io text format."
  in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Computes destination-based forwarding tables plus a virtual-lane assignment whose per-lane \
         channel dependency graphs are acyclic (Domke, Hoefler, Nagel; IPDPS 2011), and verifies the \
         result.";
      `S Manpage.s_examples;
      `Pre
        "  fabric_tool route torus:8x8:2 -a dfsssp --ebb 100\n\
        \  fabric_tool route cluster:deimos:4 -a lash\n\
        \  fabric_tool route file:fabric.txt --routes";
    ]
  in
  Cmd.v
    (Cmd.info "route" ~man
       ~doc:"compute, verify and export a deadlock-free routing (DFSSSP and the paper's baselines)")
    Term.(
      const run $ verbose $ Cli.spec $ Cli.algorithm $ Cli.max_layers $ heuristic $ online $ balance $ ebb
      $ Cli.seed $ routes $ Cli.out $ Cli.dot $ opensm_out $ routing_out)

(* simulate: route a fabric, put a workload on it, and run the static
   congestion model or the discrete-event simulator. *)
let simulate_cmd =
  let run (spec : Cli.spec) algorithm (pattern_name, pattern) engine bytes seed =
    let rng = Netgraph.Rng.create seed in
    let { Harness.Topospec.graph = g; coords; description } = spec.Cli.topo in
    Format.printf "fabric:  %s@." description;
    match Harness.Runs.run_named ?coords algorithm g with
    | Error msg ->
      Printf.eprintf "routing: %s\n" msg;
      1
    | Ok ft -> (
      Format.printf "routing: %s, %d virtual lane(s), deadlock-free: %b@." algorithm
        (Routing.Ftable.num_layers ft) (Result.is_ok (Analysis.Analyzer.certify ft));
      match pattern rng (Netgraph.Graph.terminals g) with
      | Error msg ->
        Printf.eprintf "%s\n" msg;
        2
      | Ok flows -> (
        Format.printf "pattern: %s, %d flows@." pattern_name (Array.length flows);
        match engine with
        | `Static ->
          let r = Simulator.Congestion.evaluate ft ~flows in
          Format.printf "static congestion: mean share %.4f, worst flow %.4f, hottest channel %d flows@."
            r.Simulator.Congestion.mean_share r.Simulator.Congestion.min_share
            r.Simulator.Congestion.max_congestion;
          List.iter
            (fun (h : Simulator.Congestion.hotspot) ->
              Format.printf "  hot: %-16s -> %-16s %4d flows@." h.Simulator.Congestion.src_name
                h.Simulator.Congestion.dst_name h.Simulator.Congestion.load)
            (Simulator.Congestion.hotspots ~top:5 ft ~flows);
          0
        | `Event -> (
          let fl = Array.map (fun (a, b) -> (a, b, bytes)) flows in
          match Simulator.Netsim.run ft ~flows:fl with
          | exception Invalid_argument msg ->
            Printf.eprintf "event simulator: %s\n" msg;
            2
          | Simulator.Netsim.Completed { makespan; flows = st; packets; mean_packet_latency } ->
            let bws = Array.map Simulator.Netsim.bandwidth_of st in
            let mean_bw = Array.fold_left ( +. ) 0.0 bws /. float_of_int (max 1 (Array.length bws)) in
            Format.printf
              "event simulator: %d packets in %.4f ms, mean pair bandwidth %.1f MB/s, mean latency %.1f us@."
              packets (1e3 *. makespan) (mean_bw /. 1e6) (1e6 *. mean_packet_latency);
            0
          | o ->
            Format.printf "event simulator: %a@." Simulator.Netsim.pp_outcome o;
            1)))
  in
  let pattern =
    let fixed name p = (name, (name, fun _ ranks -> p ranks)) in
    let patterns =
      [
        fixed "all-to-all" (fun r -> Ok (Simulator.Patterns.all_to_all r));
        ("bisection", ("bisection", fun rng r -> Ok (Simulator.Patterns.random_bisection rng r)));
        fixed "ring-shift" (fun r -> Ok (Simulator.Patterns.ring_shift ~by:(Array.length r / 2) r));
      ]
      @ List.map (fun (name, p) -> fixed name p) Simulator.Patterns.adversarial
      @ List.map (fun (name, p) -> fixed (String.lowercase_ascii name) p) Simulator.Patterns.nas_kernels
    in
    Arg.(
      value
      & opt (enum patterns) (List.assoc "bisection" patterns)
      & info [ "p"; "pattern" ] ~docv:"PATTERN"
          ~doc:("Workload: " ^ String.concat ", " (List.map fst patterns) ^ " (the last six are NAS kernels)."))
  in
  let engine =
    Arg.(
      value
      & opt (enum [ ("static", `Static); ("event", `Event) ]) `Static
      & info [ "e"; "engine" ] ~docv:"ENGINE" ~doc:"static (congestion counting) or event (discrete-event).")
  in
  let bytes =
    Arg.(value & opt Cli.pos_int 262144 & info [ "bytes" ] ~docv:"N" ~doc:"Bytes per flow for the event engine.")
  in
  Cmd.v
    (Cmd.info "simulate" ~doc:"simulate a workload over a routed fabric")
    Term.(const run $ Cli.spec $ Cli.algorithm $ pattern $ engine $ bytes $ Cli.seed)

(* experiment: the paper's tables and figures by id, or all of them.
   The defaults are the sizes the committed bench_results CSVs were made
   with, so `experiment all --csv bench_results` (make figures)
   regenerates them in place. *)
let experiment_cmd =
  let run selected scale patterns max_endpoints trials domains csv_dir =
    let params = { Harness.Experiments.scale; patterns; max_endpoints; trials; domains } in
    Option.iter Cli.ensure_dir csv_dir;
    List.iter
      (fun (e : Harness.Experiments.t) ->
        let t = e.run params in
        Harness.Report.print t;
        Option.iter (fun dir -> Printf.printf "wrote %s\n" (Harness.Report.save_csv ~dir t)) csv_dir;
        print_newline ())
      (List.concat selected);
    0
  in
  let experiments =
    let entries = Harness.Experiments.all in
    let choices =
      ("all", List.filter (fun (e : Harness.Experiments.t) -> not e.full_scale) entries)
      :: List.map (fun (e : Harness.Experiments.t) -> (e.id, [ e ])) entries
    in
    Arg.(
      non_empty & pos_all (enum choices) []
      & info [] ~docv:"EXPERIMENT" ~doc:"Experiment ids (see EXPERIMENTS), or all: every entry but the full-scale ones.")
  in
  let count names default ~doc = Arg.(value & opt Cli.pos_int default & info names ~docv:"N" ~doc) in
  let scale = count [ "scale" ] 4 ~doc:"Divide real-system sizes by $(docv); 1 = full published size." in
  let patterns = count [ "patterns" ] 30 ~doc:"Random bisection patterns per bandwidth cell." in
  let max_endpoints = count [ "max-endpoints" ] 512 ~doc:"Largest sweep size for Figs. 5-7." in
  let trials = count [ "trials" ] 5 ~doc:"Random topology seeds for Fig. 9 / heuristics." in
  let domains =
    Arg.(
      value
      & opt (some Cli.domain_count) None
      & info [ "domains" ] ~docv:"D"
          ~doc:
            (Printf.sprintf
               "Use $(docv) domains, 1..%d: Figs. 4-6 fill their bandwidth grids with a worker pool \
                (identical numbers), Figs. 7-8 time the batched-snapshot routing pipeline; omitted, \
                everything runs sequentially."
               Netgraph.Parallel.max_domains))
  in
  let csv =
    Arg.(value & opt (some string) None & info [ "csv" ] ~docv:"DIR" ~doc:"Also write each table as CSV into $(docv).")
  in
  let man =
    `S "EXPERIMENTS"
    :: List.map
         (fun (e : Harness.Experiments.t) -> `I (e.Harness.Experiments.id, e.Harness.Experiments.title))
         Harness.Experiments.all
  in
  Cmd.v
    (Cmd.info "experiment" ~doc:"regenerate tables and figures of the DFSSSP paper" ~man)
    Term.(const run $ experiments $ scale $ patterns $ max_endpoints $ trials $ domains $ csv)

(* analyze: the routing certifier — route (or load) forwarding tables,
   lint them, and validate a deadlock-freedom certificate. *)
let analyze_cmd =
  let explain_rule rule_id =
    match Analysis.Diag.find_rule rule_id with
    | None ->
      Format.eprintf "unknown rule %s; catalog: %s@." rule_id
        (String.concat ", " (List.map (fun r -> r.Analysis.Diag.id) Analysis.Diag.catalog));
      2
    | Some r ->
      Format.printf "%s (%s)@.%s@.@.%s@." r.Analysis.Diag.id
        (Analysis.Diag.severity_to_string r.Analysis.Diag.severity)
        r.Analysis.Diag.title (Analysis.Diag.explain r);
      0
  in
  let existence_json target (ex : Analysis.Existence.t) =
    let num i = Obs.Json.Num (float_of_int i) in
    Obs.Json.Obj
      [
        ("target", Obs.Json.Str target);
        ("existence", Obs.Json.Bool true);
        ("min_layers_lb", num ex.min_layers_lb);
        ( "unreachable",
          match ex.unreachable with
          | Some (s, d) -> Obs.Json.Obj [ ("src", num s); ("dst", num d) ]
          | None -> Obs.Json.Null );
        ( "cores",
          Obs.Json.List
            (List.map
               (fun (c : Analysis.Existence.core) ->
                 Obs.Json.Obj
                   [
                     ("length", num (Array.length c.cycle));
                     ("hosts", num (Array.length c.hosts));
                     ("bound", num c.bound);
                   ])
               ex.cores) );
      ]
  in
  let run specs tables algorithm max_layers json minimal slack cert_out existence min_layers
      witness_out explain =
    match explain with
    | Some rule_id -> explain_rule rule_id
    | None ->
    let hop_budget =
      if minimal then Some `Minimal
      else Option.map (fun n -> `Slack n) slack
    in
    let print_json j = print_endline (Obs.Json.to_string j) in
    let analyze_table target ft =
      let report = Analysis.Analyzer.analyze ?hop_budget ft in
      if json then print_json (Analysis.Analyzer.to_json ~target report)
      else Format.printf "== %s ==@.%a@.@." target Analysis.Analyzer.pp report;
      let g = Routing.Ftable.graph ft in
      let ex =
        if existence || min_layers || witness_out <> None then Some (Analysis.Existence.analyze g)
        else None
      in
      Option.iter
        (fun ex ->
          let open Analysis.Existence in
          (* under --json the report and existence objects already carry
             min_layers_lb; keep stdout pure JSON *)
          if min_layers && not json then
            Format.printf "%s: min layers >= %d, achieved %d (slack %d)@." target ex.min_layers_lb
              (Routing.Ftable.num_layers ft)
              (Routing.Ftable.num_layers ft - ex.min_layers_lb);
          if existence then
            if json then print_json (existence_json target ex)
            else begin
              (match ex.unreachable with
              | Some (s, d) ->
                Format.printf "%s: INFEASIBLE: terminal %d cannot reach terminal %d@." target s d
              | None -> Format.printf "%s: feasible, min layers >= %d@." target ex.min_layers_lb);
              List.iter
                (fun c ->
                  Format.printf "  core: %d channels, %d hosts, forces >= %d layer(s)@."
                    (Array.length c.cycle) (Array.length c.hosts) c.bound)
                ex.cores
            end)
        ex;
      Option.iter
        (fun path ->
          let w =
            match ex with
            | Some ({ min_layers_lb; cores = core :: _; _ } : Analysis.Existence.t)
              when min_layers_lb > Routing.Ftable.num_layers ft ->
              Analysis.Witness.of_core g core
            | _ -> (
              match report.Analysis.Analyzer.verdict with
              | Analysis.Analyzer.Certified _ ->
                Error "table is certified and its layer budget feasible; nothing to witness"
              | Analysis.Analyzer.Rejected _ -> (
                match Analysis.Witness.of_table ft with
                | Ok (Some w) -> Ok w
                | Ok None -> Error "rejection is not a layer cycle; no cycle witness exists"
                | Error msg -> Error msg))
          in
          match w with
          | Error msg -> Format.eprintf "%s: no witness written: %s@." target msg
          | Ok w -> (
            let recheck =
              match w.Analysis.Witness.kind with
              | Analysis.Witness.Layer_cycle _ -> Analysis.Witness.check_table w ft
              | Analysis.Witness.Topology_core _ -> Analysis.Witness.check_graph w g
            in
            match recheck with
            | Error msg -> Format.eprintf "%s: generated witness failed its re-check: %s@." target msg
            | Ok () ->
              Cli.save path (Analysis.Witness.to_string w);
              if not json then Format.printf "wrote %s (trusted re-check passed)@." path))
        witness_out;
      Option.iter
        (fun path ->
          match report.Analysis.Analyzer.verdict with
          | Analysis.Analyzer.Certified cert ->
            Cli.save path (Analysis.Cert.to_string cert);
            if not json then Format.printf "wrote %s@." path
          | Analysis.Analyzer.Rejected _ ->
            Format.eprintf "%s: no certificate to write (rejected)@." target)
        cert_out;
      Analysis.Analyzer.ok report
    in
    let outcomes =
      List.map
        (fun (spec : Cli.spec) ->
          let t = spec.Cli.topo in
          match
            Harness.Runs.run_named ?coords:t.Harness.Topospec.coords ~max_layers algorithm
              t.Harness.Topospec.graph
          with
          | Error msg ->
            Format.eprintf "%s: %s refused: %s@." spec.Cli.text algorithm msg;
            None
          | Ok ft -> Some (analyze_table spec.Cli.text ft))
        specs
      @ List.map
          (fun path ->
            match Routing.Ftable_io.load path with
            | Error msg ->
              Format.eprintf "%s: %s@." path msg;
              None
            | Ok ft -> Some (analyze_table path ft))
          tables
    in
    if outcomes = [] then begin
      prerr_endline "analyze: no SPEC or --table given";
      2
    end
    else if List.mem None outcomes then 2
    else if List.for_all (fun o -> o = Some true) outcomes then 0
    else 1
  in
  let tables =
    Arg.(
      value & opt_all file []
      & info [ "table" ] ~docv:"FILE" ~doc:"Analyze a saved routing artifact (Ftable_io format).")
  in
  let json = Arg.(value & flag & info [ "json" ] ~doc:"One JSON object per target instead of text.") in
  let minimal =
    Arg.(value & flag & info [ "minimal" ] ~doc:"Enable A006: flag routes longer than shortest-path.")
  in
  let slack =
    Arg.(
      value
      & opt (some Cli.nonneg_int) None
      & info [ "slack" ] ~docv:"N" ~doc:"Enable A006 with N extra hops allowed over shortest-path.")
  in
  let cert_out =
    Cli.out_file [ "cert" ] ~doc:"Write the (last certified target's) certificate to $(docv)."
  in
  let existence =
    Arg.(
      value & flag
      & info [ "existence" ]
          ~doc:
            "Print the topology-level existence analysis per target: feasibility, provable layer \
             minimum, and the clean cores forcing it.")
  in
  let min_layers =
    Arg.(
      value & flag
      & info [ "min-layers" ]
          ~doc:"Print the provable layer lower bound against the achieved layer count per target.")
  in
  let witness_out =
    Cli.out_file [ "witness" ]
      ~doc:
        "On a cyclic layer or an infeasible layer budget, write a minimized counterexample witness \
         to $(docv) (validated by the trusted re-check before writing)."
  in
  let explain =
    Arg.(
      value
      & opt (some string) None
      & info [ "explain" ] ~docv:"RULE-ID"
          ~doc:"Print the catalog entry and remediation for a rule (e.g. A009-layer-budget-infeasible) and exit.")
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:"lint forwarding tables and check their deadlock-freedom certificate (exit 0 iff all certified and lint-clean)")
    Term.(
      const run $ Cli.specs $ tables $ Cli.algorithm $ Cli.max_layers $ json $ minimal $ slack $ cert_out
      $ existence $ min_layers $ witness_out $ explain)
