(* Live fabric manager subcommands: replay a fault schedule (manage),
   soak it under long churn (soak), run it as a daemon (serve) and talk
   to that daemon (client). *)

open Cmdliner

(* The combined stats snapshot: the manager's own registry plus the
   process-wide one (sssp/layers/analysis/pool counters). "-" prints it
   on stdout. *)
let write_stats_json ppf mgr path =
  let s =
    Obs.Json.to_string
      (Obs.Json.Obj
         [
           ("manager", Fabric.Metrics.to_json (Fabric.Manager.metrics mgr));
           ("process", Obs.Registry.to_json (Obs.Registry.default ()));
         ])
  in
  if path = "-" then print_endline s else Cli.write ~ppf path (s ^ "\n")

(* [with_trace path f] runs [f] with observability enabled and a
   JSON-lines span sink on [path] ("-" = stdout): one compact JSON object
   per span, innermost first. The sink is removed (which flushes) and the
   file closed on every exit path, so an exception mid-replay cannot
   truncate the trace. *)
let with_trace path f =
  let oc = if path = "-" then stdout else open_out path in
  Obs.Control.set_enabled true;
  Obs.Trace.set_sink (Some (Obs.Trace.channel_sink oc));
  Fun.protect f ~finally:(fun () ->
      Obs.Trace.set_sink None;
      Obs.Control.set_enabled false;
      if path = "-" then flush stdout else close_out oc)

(* manage: the live fabric manager — replay a fault schedule and report
   convergence after every event. *)
let manage_cmd =
  let run (spec : Cli.spec) (config : Fabric.Manager.config) schedule print_schedule stats_out trace =
    let t = spec.Cli.topo in
    let g = t.Harness.Topospec.graph in
    match schedule g with
    | Error msg ->
      prerr_endline msg;
      2
    | Ok schedule ->
      (* with spans on stdout, the report moves to stderr *)
      let ppf = if trace = Some "-" then Format.err_formatter else Format.std_formatter in
      let replay () =
        match Fabric.Manager.create ~config g with
        | Error msg ->
          Format.eprintf "initial routing failed: %s@." msg;
          1
        | Ok mgr ->
          (* the pool and trace sinks are torn down even when a replay
             raises — a crashed run must not leak worker domains *)
          Fun.protect ~finally:(fun () -> Fabric.Manager.shutdown mgr) @@ fun () ->
          Format.fprintf ppf "%s@.%a@.initial tables: epoch %d (%s, %d max layers)%s@.@."
            t.Harness.Topospec.description Netgraph.Graph.pp_stats g (Fabric.Manager.epoch mgr)
            config.Fabric.Manager.algorithm config.Fabric.Manager.max_layers
            (match Fabric.Manager.initial_fallback mgr with
            | None -> ""
            | Some note -> " — " ^ note);
          if print_schedule then
            Format.fprintf ppf "schedule (%d event(s)):@.%s@." (List.length schedule)
              (Fabric.Schedule.to_string schedule);
          List.iteri
            (fun i ev ->
              let o = Fabric.Manager.apply mgr ev in
              Format.fprintf ppf "[%2d] %a@." (i + 1) Fabric.Manager.pp_outcome o)
            schedule;
          Format.fprintf ppf "@.convergence report@.%a@." Fabric.Manager.pp_summary mgr;
          let converged = Fabric.Manager.converged mgr in
          if converged then Format.fprintf ppf "converged: every applied event ended in a verified table swap@."
          else Format.fprintf ppf "NOT CONVERGED: some applied event left unverified tables@.";
          Option.iter (write_stats_json ppf mgr) stats_out;
          if converged then 0 else 1
      in
      (* tracing starts before Manager.create, so spans cover the
         initial routing too *)
      match trace with
      | None -> replay ()
      | Some path ->
        let code = with_trace path replay in
        if path <> "-" then Format.fprintf ppf "wrote %s@." path;
        code
  in
  let print_schedule =
    Arg.(value & flag & info [ "print-schedule" ] ~doc:"Echo the schedule before replaying it.")
  in
  let stats_out =
    Cli.out_file [ "stats-json" ]
      ~doc:"Write the manager + process observability registries as JSON to $(docv) (\"-\" = stdout)."
  in
  let trace =
    Cli.out_file [ "trace" ]
      ~doc:
        "Enable tracing and write JSON-lines spans to $(docv), one object per span, innermost first \
         (\"-\" = stdout, and the report moves to stderr)."
  in
  Cmd.v
    (Cmd.info "manage"
       ~doc:"run the live fabric manager over a fault schedule and print a convergence report")
    Term.(const run $ Cli.spec $ Cli.manager_config $ Cli.schedule $ print_schedule $ stats_out $ trace)

(* soak: long-haul churn against the live manager *)
let soak_cmd =
  let run specs events seed removals drains max_layers artifact_dir =
    let config = { Fabric.Manager.default_config with max_layers } in
    let specs = List.map (fun (s : Cli.spec) -> s.Cli.text) specs in
    let results =
      List.map
        (fun spec ->
          Harness.Soak.run_one ~config ?switch_removals:removals ?drains ~artifact_dir ~spec ~seed ~events ())
        specs
    in
    Format.printf "%a" Harness.Soak.pp_summary results;
    if Harness.Soak.failures results = [] then 0 else 1
  in
  let specs = Arg.(non_empty & pos_all Cli.spec_conv [] & info [] ~docv:"SPEC" ~doc:Cli.spec_doc) in
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
    Term.(
      const run $ specs $ Cli.events ~default:200 $ Cli.seed
      $ Cli.switch_removals ~absent:"events/20"
      $ Cli.drains ~absent:"events/10" $ Cli.max_layers $ artifact_dir)

(* Shared by serve and client: where the daemon listens. --tcp wins over
   --socket when both are given. *)
let addr =
  let resolve socket tcp host =
    match tcp with
    | Some port -> Service.Proto.Tcp (host, port)
    | None -> Service.Proto.Unix_path socket
  in
  let socket =
    Arg.(value & opt string "fabric.sock" & info [ "socket" ] ~docv:"PATH" ~doc:"Unix-domain socket path.")
  in
  let tcp =
    Arg.(
      value
      & opt (some Cli.nonneg_int) None
      & info [ "tcp" ] ~docv:"PORT" ~doc:"Listen on (or connect to) TCP PORT instead of a Unix socket.")
  in
  let host = Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~docv:"HOST" ~doc:"TCP host (with --tcp).") in
  Term.(const resolve $ socket $ tcp $ host)

(* serve: the long-running controller daemon — the fabric manager behind
   a socket, serving route queries, topology events, analyzer reports
   and observability snapshots to many concurrent clients. *)
let serve_cmd =
  let run (spec : Cli.spec) addr replace queue_depth max_frame trace_capacity manager =
    let t = spec.Cli.topo in
    (match addr with
    | Service.Proto.Unix_path p when replace && Sys.file_exists p -> Unix.unlink p
    | _ -> ());
    let config =
      { Service.Server.default_config with addr; queue_depth; max_frame; trace_capacity; manager }
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
      (try Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal) with Invalid_argument _ -> ());
      (try Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal) with Invalid_argument _ -> ());
      Format.printf "%s@.%a@.serving on %s (epoch %d, queue depth %d)@." t.Harness.Topospec.description
        Netgraph.Graph.pp_stats t.Harness.Topospec.graph
        (Service.Proto.addr_to_string (Service.Server.addr server))
        (Fabric.Manager.epoch (Service.Server.manager server))
        queue_depth;
      Format.print_flush ();
      Service.Server.serve server;
      let m = Service.Server.metrics server in
      Format.printf
        "served %d request(s) over %d connection(s): %d route quer(ies), %d event(s) in %d batch(es), %d busy repl(ies)@."
        (Obs.Counter.value m.Service.Metrics.requests)
        (Obs.Counter.value m.Service.Metrics.connections)
        (Obs.Counter.value m.Service.Metrics.route_queries)
        (Obs.Counter.value m.Service.Metrics.events_applied)
        (Obs.Counter.value m.Service.Metrics.event_batches)
        (Obs.Counter.value m.Service.Metrics.busy_replies);
      0
  in
  let replace =
    Arg.(value & flag & info [ "replace" ] ~doc:"Unlink an existing Unix socket path before binding.")
  in
  let queue_depth =
    Arg.(
      value & opt Cli.pos_int 64
      & info [ "queue-depth" ] ~docv:"N"
          ~doc:"Admission queue bound for topology events; beyond it clients get busy replies.")
  in
  let max_frame =
    let lo = Service.Server.min_max_frame in
    Arg.(
      value
      & opt (Cli.int_at_least lo (Printf.sprintf "an integer of at least %d" lo)) Service.Proto.default_max_frame
      & info [ "max-frame" ] ~docv:"BYTES" ~doc:"Refuse request frames larger than BYTES.")
  in
  let trace_capacity =
    Arg.(
      value & opt Cli.nonneg_int 512
      & info [ "trace-capacity" ] ~docv:"N"
          ~doc:"Keep the most recent N trace spans for the trace op (0 disables).")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "run the fabric controller daemon: topology events, route-table queries, analyzer and \
          stats served to concurrent clients over a socket")
    Term.(
      const run $ Cli.spec $ addr $ replace $ queue_depth $ max_frame $ trace_capacity $ Cli.manager_config)

(* client: one-shot requests, schedule replay and raw JSON scripting
   against a running daemon. *)
let client_cmd =
  let pp_json j = print_endline (Obs.Json.to_string j) in
  let run addr schedule_file script_file limit op_args =
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
      & opt (some file) None
      & info [ "schedule" ] ~docv:"FILE"
          ~doc:"Replay this schedule file as event requests over the wire (retrying on busy).")
  in
  let script_file =
    Arg.(
      value
      & opt (some file) None
      & info [ "script" ] ~docv:"FILE"
          ~doc:"Send each non-comment line of FILE as a raw JSON request; print each reply.")
  in
  let limit =
    Arg.(value & opt (some Cli.nonneg_int) None & info [ "limit" ] ~docv:"N" ~doc:"Max spans for the trace op.")
  in
  let op_args = Arg.(value & pos_all string [] & info [] ~docv:"OP") in
  Cmd.v
    (Cmd.info "client"
       ~doc:
         "talk to a running fabric controller daemon: one-shot ops (ping, route SRC DST, event EV, \
          stats, trace, analyze, epoch, shutdown), schedule replay, or raw JSON scripting")
    Term.(const run $ addr $ schedule_file $ script_file $ limit $ op_args)
