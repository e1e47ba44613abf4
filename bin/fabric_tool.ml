(* Fabric utility belt: generate, inspect, degrade, convert and diff
   fabrics without touching the routing layer — the jobs an operator (or a
   test pipeline) does around the subnet manager. *)

open Cmdliner

let load_spec spec =
  match Harness.Topospec.parse spec with
  | Ok t -> Ok t
  | Error msg -> Error (Printf.sprintf "topology: %s" msg)

(* --max-layers, shared by analyze, manage, trace, serve and soak: a
   virtual-layer budget below 1 is a usage error. *)
let max_layers_arg =
  let parse s =
    match int_of_string_opt s with
    | Some k when k >= 1 -> Ok k
    | _ -> Error (`Msg (Printf.sprintf "expected a positive integer, got %S" s))
  in
  Arg.(
    value
    & opt (conv (parse, Format.pp_print_int)) 8
    & info [ "max-layers" ] ~docv:"K" ~doc:"Virtual layer budget (at least 1).")

let print_info (t : Harness.Topospec.t) =
  let g = t.Harness.Topospec.graph in
  Format.printf "%s@." t.Harness.Topospec.description;
  Format.printf "%a@." Netgraph.Graph.pp_stats g;
  Format.printf "connected: %b@." (Netgraph.Graph.connected g);
  (match Netgraph.Graph.validate g with
  | Ok () -> Format.printf "valid: yes@."
  | Error msg -> Format.printf "valid: NO (%s)@." msg);
  let switches = Netgraph.Graph.switches g in
  if Array.length switches > 0 then begin
    let degrees = Array.map (fun sw -> Netgraph.Graph.degree g sw) switches in
    Array.sort compare degrees;
    Format.printf "switch degree: min=%d median=%d max=%d@." degrees.(0)
      degrees.(Array.length degrees / 2)
      degrees.(Array.length degrees - 1)
  end;
  if Netgraph.Graph.connected g && Netgraph.Graph.num_nodes g <= 2000 then
    Format.printf "diameter: %d@." (Netgraph.Graph.diameter g)

(* info *)
let info_cmd =
  let run spec =
    match load_spec spec with
    | Error msg ->
      prerr_endline msg;
      2
    | Ok t ->
      print_info t;
      0
  in
  let spec = Arg.(required & pos 0 (some string) None & info [] ~docv:"SPEC") in
  Cmd.v (Cmd.info "info" ~doc:"describe a fabric") Term.(const run $ spec)

(* convert *)
let convert_cmd =
  let run spec out dot =
    match load_spec spec with
    | Error msg ->
      prerr_endline msg;
      2
    | Ok t ->
      let g = t.Harness.Topospec.graph in
      Option.iter
        (fun path ->
          Netgraph.Serial.save path g;
          Format.printf "wrote %s@." path)
        out;
      Option.iter
        (fun path ->
          Out_channel.with_open_text path (fun oc ->
              Out_channel.output_string oc (Netgraph.Serial.to_dot g));
          Format.printf "wrote %s@." path)
        dot;
      if out = None && dot = None then print_string (Netgraph.Serial.to_string g);
      0
  in
  let spec = Arg.(required & pos 0 (some string) None & info [] ~docv:"SPEC") in
  let out = Arg.(value & opt (some string) None & info [ "o"; "out" ] ~docv:"FILE" ~doc:"Text format output.") in
  let dot = Arg.(value & opt (some string) None & info [ "dot" ] ~docv:"FILE" ~doc:"Graphviz output.") in
  Cmd.v
    (Cmd.info "convert" ~doc:"generate a fabric and write it out (stdout text format by default)")
    Term.(const run $ spec $ out $ dot)

(* degrade *)
let degrade_cmd =
  let run spec cables seed out =
    match load_spec spec with
    | Error msg ->
      prerr_endline msg;
      2
    | Ok t ->
      let rng = Netgraph.Rng.create seed in
      let g', removed = Netgraph.Degrade.remove_cables t.Harness.Topospec.graph ~rng ~count:cables in
      Format.printf "removed %d cable(s) (connectivity preserved)@." removed;
      Format.printf "%a@." Netgraph.Graph.pp_stats g';
      (match out with
      | Some path ->
        Netgraph.Serial.save path g';
        Format.printf "wrote %s@." path
      | None -> ());
      0
  in
  let spec = Arg.(required & pos 0 (some string) None & info [] ~docv:"SPEC") in
  let cables = Arg.(value & opt int 1 & info [ "cables" ] ~docv:"N" ~doc:"Cables to remove.") in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED") in
  let out = Arg.(value & opt (some string) None & info [ "o"; "out" ] ~docv:"FILE") in
  Cmd.v
    (Cmd.info "degrade" ~doc:"remove random cables while preserving connectivity")
    Term.(const run $ spec $ cables $ seed $ out)

(* diff *)
let diff_cmd =
  let run spec_a spec_b =
    match (load_spec spec_a, load_spec spec_b) with
    | Error msg, _ | _, Error msg ->
      prerr_endline msg;
      2
    | Ok a, Ok b ->
      let ga = a.Harness.Topospec.graph and gb = b.Harness.Topospec.graph in
      let lines g = String.split_on_char '\n' (Netgraph.Serial.to_string g) in
      let set_of g =
        let tbl = Hashtbl.create 256 in
        List.iter (fun l -> if l <> "" then Hashtbl.replace tbl l ()) (lines g);
        tbl
      in
      let sa = set_of ga and sb = set_of gb in
      let only_in name here there =
        let shown = ref 0 in
        Hashtbl.iter
          (fun l () ->
            if not (Hashtbl.mem there l) then begin
              if !shown < 50 then Format.printf "%s %s@." name l;
              incr shown
            end)
          here;
        !shown
      in
      let a_only = only_in "-" sa sb in
      let b_only = only_in "+" sb sa in
      Format.printf "@.%d line(s) only in first, %d only in second@." a_only b_only;
      if a_only = 0 && b_only = 0 then 0 else 1
  in
  let spec_a = Arg.(required & pos 0 (some string) None & info [] ~docv:"SPEC_A") in
  let spec_b = Arg.(required & pos 1 (some string) None & info [] ~docv:"SPEC_B") in
  Cmd.v
    (Cmd.info "diff" ~doc:"structural diff of two fabrics (canonical text form)")
    Term.(const run $ spec_a $ spec_b)

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
  let existence_json target ex =
    let open Analysis.Existence in
    let cores =
      String.concat ","
        (List.map
           (fun c ->
             Printf.sprintf {|{"length":%d,"hosts":%d,"bound":%d}|} (Array.length c.cycle)
               (Array.length c.hosts) c.bound)
           ex.cores)
    in
    Printf.sprintf
      {|{"target":"%s","existence":true,"min_layers_lb":%d,"unreachable":%s,"cores":[%s]}|}
      (Analysis.Diag.json_escape target) ex.min_layers_lb
      (match ex.unreachable with
      | Some (s, d) -> Printf.sprintf {|{"src":%d,"dst":%d}|} s d
      | None -> "null")
      cores
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
    let analyze_table target ft =
      let report = Analysis.Analyzer.analyze ?hop_budget ft in
      if json then print_endline (Analysis.Analyzer.to_json ~target report)
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
            if json then print_endline (existence_json target ex)
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
              Out_channel.with_open_text path (fun oc ->
                  Out_channel.output_string oc (Analysis.Witness.to_string w));
              if not json then Format.printf "wrote %s (trusted re-check passed)@." path))
        witness_out;
      Option.iter
        (fun path ->
          match report.Analysis.Analyzer.verdict with
          | Analysis.Analyzer.Certified cert ->
            Out_channel.with_open_text path (fun oc ->
                Out_channel.output_string oc (Analysis.Cert.to_string cert));
            if not json then Format.printf "wrote %s@." path
          | Analysis.Analyzer.Rejected _ ->
            Format.eprintf "%s: no certificate to write (rejected)@." target)
        cert_out;
      Analysis.Analyzer.ok report
    in
    let outcomes =
      List.map
        (fun spec ->
          match load_spec spec with
          | Error msg ->
            prerr_endline msg;
            None
          | Ok t -> (
            match
              Harness.Runs.run_named ?coords:t.Harness.Topospec.coords ~max_layers algorithm
                t.Harness.Topospec.graph
            with
            | Error msg ->
              Format.eprintf "%s: %s refused: %s@." spec algorithm msg;
              None
            | Ok ft -> Some (analyze_table spec ft)))
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
  let specs = Arg.(value & pos_all string [] & info [] ~docv:"SPEC") in
  let tables =
    Arg.(
      value & opt_all string []
      & info [ "table" ] ~docv:"FILE" ~doc:"Analyze a saved routing artifact (Ftable_io format).")
  in
  let algorithm =
    Arg.(value & opt string "dfsssp" & info [ "algorithm" ] ~docv:"NAME" ~doc:"Routing algorithm for SPEC targets.")
  in
  let json = Arg.(value & flag & info [ "json" ] ~doc:"One JSON object per target instead of text.") in
  let minimal =
    Arg.(value & flag & info [ "minimal" ] ~doc:"Enable A006: flag routes longer than shortest-path.")
  in
  let slack =
    Arg.(
      value
      & opt (some int) None
      & info [ "slack" ] ~docv:"N" ~doc:"Enable A006 with N extra hops allowed over shortest-path.")
  in
  let cert_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "cert" ] ~docv:"FILE" ~doc:"Write the (last certified target's) certificate to FILE.")
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
    Arg.(
      value
      & opt (some string) None
      & info [ "witness" ] ~docv:"FILE"
          ~doc:
            "On a cyclic layer or an infeasible layer budget, write a minimized counterexample \
             witness to FILE (validated by the trusted re-check before writing).")
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
      const run $ specs $ tables $ algorithm $ max_layers_arg $ json $ minimal $ slack $ cert_out
      $ existence $ min_layers $ witness_out $ explain)

(* Schedule source shared by manage and trace: a file to replay, or a
   generated mix of cable faults, switch removals and drains. *)
let load_schedule g ~schedule_file ~seed ~events ~removals ~drains =
  match schedule_file with
  | Some path -> (
    match Fabric.Schedule.of_string (In_channel.with_open_text path In_channel.input_all) with
    | Ok s -> Ok s
    | Error msg -> Error (Printf.sprintf "schedule %s: %s" path msg))
  | None ->
    let rng = Netgraph.Rng.create seed in
    Ok (Fabric.Schedule.generate g ~rng ~events ~switch_removals:removals ~drains ~up_fraction:0.35 ())

(* The combined stats snapshot: the manager's own registry plus the
   process-wide one (sssp/layers/analysis/pool counters). *)
let stats_json mgr =
  Obs.Json.Obj
    [
      ("manager", Fabric.Metrics.to_json (Fabric.Manager.metrics mgr));
      ("process", Obs.Registry.to_json (Obs.Registry.default ()));
    ]

let write_stats_json mgr path =
  let s = Obs.Json.to_string (stats_json mgr) in
  if path = "-" then print_endline s
  else begin
    Out_channel.with_open_text path (fun oc ->
        Out_channel.output_string oc s;
        Out_channel.output_char oc '\n');
    Format.printf "wrote %s@." path
  end

(* manage: the live fabric manager — replay a fault schedule and report
   convergence after every event. *)
let manage_cmd =
  let run spec events seed schedule_file removals drains algorithm max_layers batch domains
      print_schedule stats_out =
    (* --batch unset: snapshot in recommended batches when the pipeline
       is on (--domains > 1), stay on the sequential recurrence
       otherwise. *)
    let batch =
      match batch with
      | Some b -> b
      | None -> if domains > 1 then Routing.Sssp.recommended_batch else 1
    in
    if batch < 1 || domains < 1 then begin
      prerr_endline "manage: --batch and --domains must be at least 1";
      2
    end
    else
      match load_spec spec with
      | Error msg ->
        prerr_endline msg;
        2
      | Ok t -> (
        let g = t.Harness.Topospec.graph in
        let config =
          { Fabric.Manager.default_config with algorithm; max_layers; batch; domains }
        in
      match load_schedule g ~schedule_file ~seed ~events ~removals ~drains with
      | Error msg ->
        prerr_endline msg;
        2
      | Ok schedule -> (
        match Fabric.Manager.create ~config g with
        | Error msg ->
          Format.eprintf "initial routing failed: %s@." msg;
          1
        | Ok mgr ->
          (* the pool and trace sinks are torn down even when a replay
             raises — a crashed run must not leak worker domains *)
          Fun.protect ~finally:(fun () -> Fabric.Manager.shutdown mgr) @@ fun () ->
          Format.printf "%s@.%a@.initial tables: epoch %d (%s, %d max layers)@.@." t.Harness.Topospec.description
            Netgraph.Graph.pp_stats g (Fabric.Manager.epoch mgr) algorithm max_layers;
          if print_schedule then
            Format.printf "schedule (%d event(s)):@.%s@." (List.length schedule)
              (Fabric.Schedule.to_string schedule);
          List.iteri
            (fun i ev ->
              let o = Fabric.Manager.apply mgr ev in
              Format.printf "[%2d] %a@." (i + 1) Fabric.Manager.pp_outcome o)
            schedule;
          Format.printf "@.convergence report@.%a@." Fabric.Manager.pp_summary mgr;
          let code =
            if Fabric.Manager.converged mgr then begin
              Format.printf "converged: every applied event ended in a verified table swap@.";
              0
            end
            else begin
              Format.printf "NOT CONVERGED: some applied event left unverified tables@.";
              1
            end
          in
          Option.iter (write_stats_json mgr) stats_out;
          code))
  in
  let spec = Arg.(required & pos 0 (some string) None & info [] ~docv:"SPEC") in
  let events =
    Arg.(value & opt int 10 & info [ "events" ] ~docv:"N" ~doc:"Generated schedule length.")
  in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED") in
  let schedule_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "schedule" ] ~docv:"FILE"
          ~doc:"Replay this schedule file (one \"down/up/drain/remove <id>\" per line) instead of generating one.")
  in
  let removals =
    Arg.(value & opt int 1 & info [ "switch-removals" ] ~docv:"N" ~doc:"Switch removals to schedule.")
  in
  let drains =
    Arg.(value & opt int 0 & info [ "drains" ] ~docv:"N" ~doc:"Switch drains to schedule.")
  in
  let algorithm =
    Arg.(
      value & opt string "dfsssp"
      & info [ "algorithm" ] ~docv:"NAME"
          ~doc:"Routing algorithm for full recomputes; only dfsssp rescues a failed one.")
  in
  let batch =
    Arg.(
      value
      & opt (some int) None
      & info [ "batch" ] ~docv:"B"
          ~doc:
            "Destinations per weight snapshot in full recomputes (default: the recommended batch \
             when --domains > 1, else 1 = the sequential recurrence).")
  in
  let domains =
    Arg.(
      value & opt int 1
      & info [ "domains" ] ~docv:"D"
          ~doc:"Routing domains for full recomputes (a persistent worker pool when > 1).")
  in
  let print_schedule =
    Arg.(value & flag & info [ "print-schedule" ] ~doc:"Echo the schedule before replaying it.")
  in
  let stats_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "stats-json" ] ~docv:"FILE"
          ~doc:"Write the manager + process observability registries as JSON to FILE (\"-\" = stdout).")
  in
  Cmd.v
    (Cmd.info "manage"
       ~doc:"run the live fabric manager over a fault schedule and print a convergence report")
    Term.(
      const run $ spec $ events $ seed $ schedule_file $ removals $ drains $ algorithm $ max_layers_arg
      $ batch $ domains $ print_schedule $ stats_out)

(* trace: the manage path again, but with observability enabled and a
   JSON-lines span sink — one compact JSON object per span, innermost
   first. Progress goes to stderr so "--out -" stays machine-readable. *)
let trace_cmd =
  let run spec events seed schedule_file removals drains algorithm max_layers out stats_out =
    match load_spec spec with
    | Error msg ->
      prerr_endline msg;
      2
    | Ok t -> (
      let g = t.Harness.Topospec.graph in
      match load_schedule g ~schedule_file ~seed ~events ~removals ~drains with
      | Error msg ->
        prerr_endline msg;
        2
      | Ok schedule ->
        let oc, close =
          if out = "-" then (stdout, fun () -> flush stdout)
          else
            let oc = open_out out in
            (oc, fun () -> close_out oc)
        in
        Obs.Control.set_enabled true;
        Obs.Trace.set_sink (Some (Obs.Trace.channel_sink oc));
        (* sink removal (which flushes), channel close and pool release
           run on every exit path — an exception mid-replay must not
           truncate the JSON-lines trace or leak domains *)
        let code =
          Fun.protect
            ~finally:(fun () ->
              Obs.Trace.set_sink None;
              Obs.Control.set_enabled false;
              close ())
          @@ fun () ->
          match
            Fabric.Manager.create
              ~config:{ Fabric.Manager.default_config with algorithm; max_layers }
              g
          with
          | Error msg ->
            Format.eprintf "initial routing failed: %s@." msg;
            1
          | Ok mgr ->
            Fun.protect ~finally:(fun () -> Fabric.Manager.shutdown mgr) @@ fun () ->
            let outcomes = Fabric.Manager.run mgr schedule in
            Format.eprintf "replayed %d event(s), epoch %d, %s@." (List.length outcomes)
              (Fabric.Manager.epoch mgr)
              (if Fabric.Manager.converged mgr then "converged" else "NOT CONVERGED");
            Option.iter (write_stats_json mgr) stats_out;
            if Fabric.Manager.converged mgr then 0 else 1
        in
        (if out <> "-" then Format.eprintf "wrote %s@." out);
        code)
  in
  let spec = Arg.(required & pos 0 (some string) None & info [] ~docv:"SPEC") in
  let events =
    Arg.(value & opt int 10 & info [ "events" ] ~docv:"N" ~doc:"Generated schedule length.")
  in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED") in
  let schedule_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "schedule" ] ~docv:"FILE" ~doc:"Replay this schedule file instead of generating one.")
  in
  let removals =
    Arg.(value & opt int 1 & info [ "switch-removals" ] ~docv:"N" ~doc:"Switch removals to schedule.")
  in
  let drains =
    Arg.(value & opt int 0 & info [ "drains" ] ~docv:"N" ~doc:"Switch drains to schedule.")
  in
  let algorithm =
    Arg.(value & opt string "dfsssp" & info [ "algorithm" ] ~docv:"NAME" ~doc:"Routing algorithm.")
  in
  let out =
    Arg.(
      value & opt string "-"
      & info [ "o"; "out" ] ~docv:"FILE" ~doc:"Span destination, one JSON object per line (\"-\" = stdout).")
  in
  let stats_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "stats-json" ] ~docv:"FILE"
          ~doc:"Also write the observability registries as JSON to FILE (\"-\" = stdout).")
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"replay a fault schedule with tracing enabled, emitting JSON-lines spans")
    Term.(
      const run $ spec $ events $ seed $ schedule_file $ removals $ drains $ algorithm $ max_layers_arg
      $ out $ stats_out)

(* Shared by serve and client: where the daemon listens. --tcp wins over
   --socket when both are given. *)
let resolve_addr ~socket ~tcp ~host =
  match tcp with
  | Some port -> Service.Proto.Tcp (host, port)
  | None -> Service.Proto.Unix_path socket

let socket_arg =
  Arg.(
    value & opt string "fabric.sock"
    & info [ "socket" ] ~docv:"PATH" ~doc:"Unix-domain socket path.")

let tcp_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "tcp" ] ~docv:"PORT" ~doc:"Listen on (or connect to) TCP PORT instead of a Unix socket.")

let host_arg =
  Arg.(
    value & opt string "127.0.0.1"
    & info [ "host" ] ~docv:"HOST" ~doc:"TCP host (with --tcp).")

(* serve: the long-running controller daemon — the fabric manager behind
   a socket, serving route queries, topology events, analyzer reports
   and observability snapshots to many concurrent clients. *)
let serve_cmd =
  let run spec socket tcp host replace queue_depth max_frame trace_capacity algorithm max_layers
      batch domains =
    let batch =
      match batch with
      | Some b -> b
      | None -> if domains > 1 then Routing.Sssp.recommended_batch else 1
    in
    if batch < 1 || domains < 1 || queue_depth < 1 then begin
      prerr_endline "serve: --batch, --domains and --queue-depth must be at least 1";
      2
    end
    else
      match load_spec spec with
      | Error msg ->
        prerr_endline msg;
        2
      | Ok t -> (
        let addr = resolve_addr ~socket ~tcp ~host in
        (match addr with
        | Service.Proto.Unix_path p when replace && Sys.file_exists p -> Unix.unlink p
        | _ -> ());
        let config =
          {
            Service.Server.default_config with
            addr;
            queue_depth;
            max_frame;
            trace_capacity;
            manager =
              { Fabric.Manager.default_config with algorithm; max_layers; batch; domains };
          }
        in
        match Service.Server.create ~config t.Harness.Topospec.graph with
        | Error msg ->
          prerr_endline msg;
          1
        | Ok server ->
          (* SIGINT/SIGTERM reach the same graceful drain as a shutdown
             request; SIGPIPE must not kill a daemon writing to a
             vanished client *)
          (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
          let on_signal _ = Service.Server.stop server in
          (try Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal)
           with Invalid_argument _ -> ());
          (try Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal)
           with Invalid_argument _ -> ());
          Format.printf "%s@.%a@.serving on %s (epoch %d, queue depth %d)@."
            t.Harness.Topospec.description Netgraph.Graph.pp_stats t.Harness.Topospec.graph
            (Service.Proto.addr_to_string (Service.Server.addr server))
            (Fabric.Manager.epoch (Service.Server.manager server))
            queue_depth;
          Format.print_flush ();
          Service.Server.serve server;
          let m = Service.Server.metrics server in
          Format.printf "served %d request(s) over %d connection(s): %d route quer(ies), %d event(s) in %d batch(es), %d busy repl(ies)@."
            (Obs.Counter.value m.Service.Metrics.requests)
            (Obs.Counter.value m.Service.Metrics.connections)
            (Obs.Counter.value m.Service.Metrics.route_queries)
            (Obs.Counter.value m.Service.Metrics.events_applied)
            (Obs.Counter.value m.Service.Metrics.event_batches)
            (Obs.Counter.value m.Service.Metrics.busy_replies);
          0)
  in
  let spec = Arg.(required & pos 0 (some string) None & info [] ~docv:"SPEC") in
  let replace =
    Arg.(value & flag & info [ "replace" ] ~doc:"Unlink an existing Unix socket path before binding.")
  in
  let queue_depth =
    Arg.(
      value & opt int 64
      & info [ "queue-depth" ] ~docv:"N"
          ~doc:"Admission queue bound for topology events; beyond it clients get busy replies.")
  in
  let max_frame =
    Arg.(
      value
      & opt int Service.Proto.default_max_frame
      & info [ "max-frame" ] ~docv:"BYTES" ~doc:"Refuse request frames larger than BYTES.")
  in
  let trace_capacity =
    Arg.(
      value & opt int 512
      & info [ "trace-capacity" ] ~docv:"N"
          ~doc:"Keep the most recent N trace spans for the trace op (0 disables).")
  in
  let algorithm =
    Arg.(
      value & opt string "dfsssp"
      & info [ "algorithm" ] ~docv:"NAME" ~doc:"Routing algorithm for full recomputes.")
  in
  let batch =
    Arg.(
      value
      & opt (some int) None
      & info [ "batch" ] ~docv:"B" ~doc:"Destinations per weight snapshot in full recomputes.")
  in
  let domains =
    Arg.(
      value & opt int 1
      & info [ "domains" ] ~docv:"D" ~doc:"Routing domains for full recomputes.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "run the fabric controller daemon: topology events, route-table queries, analyzer and \
          stats served to concurrent clients over a socket")
    Term.(
      const run $ spec $ socket_arg $ tcp_arg $ host_arg $ replace $ queue_depth $ max_frame
      $ trace_capacity $ algorithm $ max_layers_arg $ batch $ domains)

(* client: one-shot requests, schedule replay and raw JSON scripting
   against a running daemon. *)
let client_cmd =
  let pp_json j = print_endline (Obs.Json.to_string j) in
  let run socket tcp host schedule_file script_file limit op_args =
    let addr = resolve_addr ~socket ~tcp ~host in
    let with_client f =
      match Service.Client.with_connect addr f with
      | Ok code -> code
      | Error msg ->
        prerr_endline msg;
        2
    in
    let replay_schedule path =
      match Fabric.Schedule.of_string (In_channel.with_open_text path In_channel.input_all) with
      | Error msg ->
        prerr_endline (path ^ ": " ^ msg);
        2
      | Ok schedule ->
        with_client @@ fun c ->
        let failures = ref 0 in
        List.iteri
          (fun i ev ->
            (* scripted mode honors backpressure: a busy reply is retried
               after a short pause, never dropped silently *)
            let rec attempt retries =
              match Service.Client.event c ev with
              | Error msg ->
                incr failures;
                Format.printf "[%2d] %s: ERROR %s@." (i + 1) (Fabric.Event.to_string ev) msg
              | Ok (Service.Client.Busy { queue_depth }) ->
                if retries >= 50 then begin
                  incr failures;
                  Format.printf "[%2d] %s: still busy after %d retries (queue %d)@." (i + 1)
                    (Fabric.Event.to_string ev) retries queue_depth
                end
                else begin
                  Unix.sleepf 0.05;
                  attempt (retries + 1)
                end
              | Ok (Service.Client.Applied { epoch; applied; action; note; _ }) ->
                Format.printf "[%2d] %s: %s%s epoch %d%s@." (i + 1) (Fabric.Event.to_string ev)
                  action
                  (if applied then "" else " (rejected)")
                  epoch
                  (if note = "" then "" else " — " ^ note)
            in
            attempt 0)
          schedule;
        Ok (if !failures = 0 then 0 else 1)
    in
    let replay_script path =
      with_client @@ fun c ->
      let failures = ref 0 in
      In_channel.with_open_text path (fun ic ->
          let rec go i =
            match In_channel.input_line ic with
            | None -> ()
            | Some line when String.trim line = "" || (String.trim line).[0] = '#' -> go i
            | Some line ->
              (match Service.Client.call_raw c line with
              | Ok reply -> print_endline reply
              | Error msg ->
                incr failures;
                Format.eprintf "line %d: %s@." i msg);
              go (i + 1)
          in
          go 1);
      Ok (if !failures = 0 then 0 else 1)
    in
    match (schedule_file, script_file, op_args) with
    | Some path, None, [] -> replay_schedule path
    | None, Some path, [] -> replay_script path
    | Some _, Some _, _ ->
      prerr_endline "client: --schedule and --script are mutually exclusive";
      2
    | (Some _, None, _ :: _) | (None, Some _, _ :: _) ->
      prerr_endline "client: give either an OP or --schedule/--script, not both";
      2
    | None, None, [] ->
      prerr_endline "client: no OP given (try ping, route SRC DST, event EV, stats, trace, analyze, epoch, shutdown)";
      2
    | None, None, op :: args -> (
      with_client @@ fun c ->
      match (op, args) with
      | "ping", [] -> (
        match Service.Client.ping c with
        | Ok epoch ->
          Format.printf "ok: epoch %d@." epoch;
          Ok 0
        | Error msg -> Error msg)
      | "route", [ src; dst ] -> (
        match (int_of_string_opt src, int_of_string_opt dst) with
        | Some src, Some dst -> (
          match Service.Client.route c ~src ~dst with
          | Ok r ->
            Format.printf "epoch %d, layer %d/%d, %d hop(s): %s@." r.Service.Client.epoch
              r.Service.Client.layer r.Service.Client.layers
              (Array.length r.Service.Client.path)
              (String.concat " "
                 (Array.to_list (Array.map string_of_int r.Service.Client.path)));
            Ok 0
          | Error msg -> Error msg)
        | _ -> Error "route: SRC and DST must be integers")
      | "event", ev_words when ev_words <> [] -> (
        match Fabric.Event.of_string (String.concat " " ev_words) with
        | Error msg -> Error msg
        | Ok ev -> (
          match Service.Client.event c ev with
          | Ok (Service.Client.Applied { epoch; applied; action; note; _ }) ->
            Format.printf "%s: %s%s epoch %d%s@." (Fabric.Event.to_string ev) action
              (if applied then "" else " (rejected)")
              epoch
              (if note = "" then "" else " — " ^ note);
            Ok 0
          | Ok (Service.Client.Busy { queue_depth }) ->
            Format.printf "busy: admission queue full (%d pending)@." queue_depth;
            Ok 3
          | Error msg -> Error msg))
      | "stats", [] -> (
        match Service.Client.stats c with
        | Ok j ->
          pp_json j;
          Ok 0
        | Error msg -> Error msg)
      | "trace", [] -> (
        match Service.Client.trace ?limit c with
        | Ok spans ->
          List.iter pp_json spans;
          Ok 0
        | Error msg -> Error msg)
      | "analyze", [] -> (
        match Service.Client.analyze c with
        | Ok (certified, report) ->
          pp_json report;
          Ok (if certified then 0 else 1)
        | Error msg -> Error msg)
      | "epoch", [] -> (
        match Service.Client.epoch_history c with
        | Ok entries ->
          List.iter (fun (e, label) -> Format.printf "epoch %2d: %s@." e label) entries;
          Ok 0
        | Error msg -> Error msg)
      | "shutdown", [] -> (
        match Service.Client.shutdown c with
        | Ok () ->
          Format.printf "server shutting down@.";
          Ok 0
        | Error msg -> Error msg)
      | op, _ -> Error (Printf.sprintf "unknown or malformed op %S" op))
  in
  let schedule_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "schedule" ] ~docv:"FILE"
          ~doc:"Replay this schedule file as event requests over the wire (retrying on busy).")
  in
  let script_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "script" ] ~docv:"FILE"
          ~doc:"Send each non-comment line of FILE as a raw JSON request; print each reply.")
  in
  let limit =
    Arg.(
      value
      & opt (some int) None
      & info [ "limit" ] ~docv:"N" ~doc:"Max spans for the trace op.")
  in
  let op_args = Arg.(value & pos_all string [] & info [] ~docv:"OP") in
  Cmd.v
    (Cmd.info "client"
       ~doc:
         "talk to a running fabric controller daemon: one-shot ops (ping, route SRC DST, event EV, \
          stats, trace, analyze, epoch, shutdown), schedule replay, or raw JSON scripting")
    Term.(const run $ socket_arg $ tcp_arg $ host_arg $ schedule_file $ script_file $ limit $ op_args)

(* import: foreign topology files -> validated fabrics *)
let import_cmd =
  let run path format strict terminals out dot =
    let format =
      match String.lowercase_ascii format with
      | "auto" -> None
      | "dot" -> Some Netgraph.Topo_import.Dot
      | "edgelist" -> Some Netgraph.Topo_import.Edge_list
      | other ->
        prerr_endline (Printf.sprintf "unknown format %S (want auto|dot|edgelist)" other);
        exit 2
    in
    let mode = if strict then Netgraph.Topo_import.Strict else Netgraph.Topo_import.Lenient in
    match Netgraph.Topo_import.load ~mode ?format ~terminals_per_switch:terminals path with
    | Error msg ->
      prerr_endline (Printf.sprintf "%s: %s" path msg);
      2
    | Ok imported ->
      let g = imported.Netgraph.Topo_import.graph in
      List.iter
        (fun (d : Netgraph.Topo_import.diag) ->
          Format.printf "repair (line %d): %s@." d.Netgraph.Topo_import.line
            d.Netgraph.Topo_import.message)
        imported.Netgraph.Topo_import.diags;
      if imported.Netgraph.Topo_import.dropped_nodes > 0 then
        Format.printf "dropped %d node(s) outside the largest component@."
          imported.Netgraph.Topo_import.dropped_nodes;
      Format.printf "%a@." Netgraph.Graph.pp_stats g;
      (match Netgraph.Graph.validate g with
      | Ok () -> Format.printf "valid: yes@."
      | Error msg -> Format.printf "valid: NO (%s)@." msg);
      Option.iter
        (fun p ->
          Netgraph.Serial.save p g;
          Format.printf "wrote %s@." p)
        out;
      Option.iter
        (fun p ->
          Out_channel.with_open_text p (fun oc ->
              Out_channel.output_string oc (Netgraph.Topo_import.write_dot g));
          Format.printf "wrote %s@." p)
        dot;
      0
  in
  let path = Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE") in
  let format =
    Arg.(
      value
      & opt string "auto"
      & info [ "format" ] ~docv:"FMT" ~doc:"Input format: auto (sniff), dot or edgelist.")
  in
  let strict =
    Arg.(
      value
      & flag
      & info [ "strict" ]
          ~doc:"Reject files needing repair (duplicates, self loops, disconnection) instead of fixing them.")
  in
  let terminals =
    Arg.(
      value
      & opt int 1
      & info [ "terminals" ] ~docv:"N"
          ~doc:"Synthetic terminals per switch when the file declares none.")
  in
  let out = Arg.(value & opt (some string) None & info [ "o"; "out" ] ~docv:"FILE" ~doc:"Text format output.") in
  let dot = Arg.(value & opt (some string) None & info [ "dot" ] ~docv:"FILE" ~doc:"Round-trip DOT output.") in
  Cmd.v
    (Cmd.info "import"
       ~doc:"import a DOT or edge-list topology file, repairing or rejecting quirks")
    Term.(const run $ path $ format $ strict $ terminals $ out $ dot)

(* zoo: corpus + generator conformance battery *)
let zoo_cmd =
  let run dir extra_specs generators_only =
    let corpus =
      if generators_only then []
      else
        match (dir, Harness.Zoo.find_corpus_dir ()) with
        | Some d, _ -> Harness.Zoo.corpus_specs ~dir:d
        | None, Some d -> Harness.Zoo.corpus_specs ~dir:d
        | None, None ->
          prerr_endline "no corpus directory found (looked for examples/zoo); use --dir";
          exit 2
    in
    let specs = corpus @ Harness.Zoo.generator_specs @ extra_specs in
    let subjects = Harness.Zoo.run ~specs () in
    Format.printf "%a" Harness.Zoo.pp_summary subjects;
    if Harness.Zoo.failures subjects = [] then 0 else 1
  in
  let dir =
    Arg.(value & opt (some string) None & info [ "dir" ] ~docv:"DIR" ~doc:"Corpus directory (default: examples/zoo).")
  in
  let extra =
    Arg.(value & opt_all string [] & info [ "spec" ] ~docv:"SPEC" ~doc:"Additional topology spec to include.")
  in
  let generators_only =
    Arg.(value & flag & info [ "generators-only" ] ~doc:"Skip the file corpus; only the seeded generator samples.")
  in
  Cmd.v
    (Cmd.info "zoo"
       ~doc:
         "run the topology-zoo conformance battery: every corpus file and generator sample \
          through the full registry, certifier, existence bounds and kernel/engine parity")
    Term.(const run $ dir $ extra $ generators_only)

(* soak: long-haul churn against the live manager *)
let soak_cmd =
  let run specs events seed removals drains max_layers artifact_dir =
    if specs = [] then begin
      prerr_endline "soak: need at least one topology SPEC";
      exit 2
    end;
    let config =
      { Fabric.Manager.default_config with max_layers }
    in
    let results =
      Harness.Soak.run ~config ?switch_removals:removals ?drains ~artifact_dir ~specs ~seed
        ~events ()
    in
    Format.printf "%a" Harness.Soak.pp_summary results;
    if Harness.Soak.failures results = [] then 0 else 1
  in
  let specs = Arg.(value & pos_all string [] & info [] ~docv:"SPEC") in
  let events = Arg.(value & opt int 200 & info [ "events" ] ~docv:"N" ~doc:"Churn events per spec.") in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"Schedule seed (reproduces a failing run).") in
  let removals =
    Arg.(value & opt (some int) None & info [ "removals" ] ~docv:"N" ~doc:"Switch removals (default events/20).")
  in
  let drains =
    Arg.(value & opt (some int) None & info [ "drains" ] ~docv:"N" ~doc:"Switch drains (default events/10).")
  in
  let artifact_dir =
    Arg.(
      value
      & opt string (Filename.concat "_build" "soak")
      & info [ "artifact-dir" ] ~docv:"DIR" ~doc:"Where failing runs dump reproduction artifacts.")
  in
  Cmd.v
    (Cmd.info "soak"
       ~doc:
         "churn soak: drive the fabric manager through a seeded schedule of failures, recoveries, \
          drains and removals, recertifying every epoch swap; failures dump a reproduction artifact")
    Term.(const run $ specs $ events $ seed $ removals $ drains $ max_layers_arg $ artifact_dir)

let () =
  let doc = "fabric generation, inspection and conversion utilities" in
  exit
    (Cmd.eval'
       (Cmd.group
          (Cmd.info "fabric_tool" ~version:"1.0.0" ~doc)
          [
            info_cmd;
            convert_cmd;
            degrade_cmd;
            diff_cmd;
            import_cmd;
            zoo_cmd;
            soak_cmd;
            analyze_cmd;
            manage_cmd;
            trace_cmd;
            serve_cmd;
            client_cmd;
          ]))
