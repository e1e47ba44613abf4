let log_src = Logs.Src.create "fabric.manager" ~doc:"event-driven fabric manager"

module Log = (val Logs.src_log log_src : Logs.LOG)

type config = {
  algorithm : string;
  max_layers : int;
  batch : int;
  domains : int;
  kernel : Spf.kind;
  engine : Layers.engine;
}

let default_config =
  {
    algorithm = "dfsssp";
    max_layers = 8;
    batch = 1;
    domains = 1;
    kernel = Spf.Auto;
    engine = `Scc;
  }

type action =
  | Incremental of {
      repaired : int;
      total : int;
    }
  | Full of string
  | Noop

type outcome = {
  event : Event.t;
  applied : bool;
  action : action;
  fallback : bool;
  epoch : int;
  verify : Dfsssp.Verify.report option;
  table_diff : Ftable.diff option;
  note : string;
  elapsed_s : float;
}

type t = {
  config : config;
  state : Fabstate.t;
  epochs : Epoch.t;
  metrics : Metrics.t;
  mutable weights : int array;
  mutable outcomes : outcome list; (* newest first *)
  mutable pool : Sssp.pool option;
      (* persistent routing-domain pool ([domains > 1] only): scratch is
         epoch-stamped, so the same pool serves every full recompute even
         across structural rebuilds of the graph *)
}

let config t = t.config

let graph t = Fabstate.graph t.state

let tables t = Option.get (Epoch.active t.epochs)

let metrics t = t.metrics

let epoch t = Epoch.epoch t.epochs

let epoch_history t = Epoch.history t.epochs

(* Full recompute: fresh weight state, route everything, re-break all
   cycles. The first attempt for every table-changing event. *)
let full_route t =
  let g = Fabstate.graph t.state in
  Obs.Trace.with_span "fabric.full_route"
    ~attrs:(fun () ->
      [
        ("algorithm", Obs.Trace.Str t.config.algorithm);
        ("terminals", Obs.Trace.Int (Graph.num_terminals g));
      ])
  @@ fun () ->
  if t.config.algorithm = "dfsssp" then begin
    t.weights <- Sssp.initial_weights g;
    match
      Sssp.route_plane ~batch:t.config.batch ?pool:t.pool ~kernel:t.config.kernel g
        ~weights:t.weights
    with
    | Error msg -> Error msg
    | Ok ft -> (
      match
        Dfsssp.assign_layers ~engine:t.config.engine ~domains:t.config.domains
          ~max_layers:t.config.max_layers ft
      with
      | Ok ft -> Ok ft
      | Error e -> Error (Dfsssp.error_to_string e))
  end
  else
    match
      Dfsssp.Registry.find ~max_layers:t.config.max_layers ~batch:t.config.batch
        ~domains:t.config.domains t.config.algorithm
    with
    | None -> Error (Printf.sprintf "unknown algorithm %S" t.config.algorithm)
    | Some a -> a.Dfsssp.Registry.run g

let release t =
  match t.pool with
  | None -> ()
  | Some pool ->
    Sssp.destroy_pool pool;
    t.pool <- None

(* The one teardown path for every exit — clean, exception or signal:
   a killed daemon must neither leak worker domains nor truncate a
   JSON-lines trace mid-object. Idempotent. *)
let shutdown t =
  release t;
  Obs.Trace.flush ()

let snapshot t = Epoch.snapshot t.epochs

let create ?(config = default_config) g =
  if config.max_layers < 1 then invalid_arg "Manager.create: max_layers < 1";
  if config.batch < 1 then invalid_arg "Manager.create: batch < 1";
  if config.domains < 1 then invalid_arg "Manager.create: domains < 1";
  if Graph.num_terminals g < 2 then Error "Manager.create: fabric has fewer than two terminals"
  else begin
    let t =
      {
        config;
        state = Fabstate.create g;
        epochs = Epoch.create ();
        metrics = Metrics.create ();
        weights = Sssp.initial_weights g;
        outcomes = [];
        pool = (if config.domains > 1 then Some (Sssp.create_pool ~domains:config.domains ()) else None);
      }
    in
    match full_route t with
    | Error msg ->
      release t;
      Error msg
    | Ok ft -> (
      match Epoch.try_swap t.epochs ~label:"initial" ft with
      | Error msg, verify_s ->
        Obs.Timer.add t.metrics.Metrics.verify verify_s;
        release t;
        Error (Printf.sprintf "initial tables rejected: %s" msg)
      | Ok _, verify_s ->
        Obs.Timer.add t.metrics.Metrics.verify verify_s;
        Obs.Counter.set t.metrics.Metrics.swap_epochs (Epoch.epoch t.epochs);
        Ok t)
  end

let finish t outcome =
  t.outcomes <- outcome :: t.outcomes;
  Log.info (fun m ->
      m "%s: %s%s epoch %d" (Event.to_string outcome.event)
        (match outcome.action with
        | Incremental { repaired; total } -> Printf.sprintf "rescue %d/%d" repaired total
        | Full reason -> "full (" ^ reason ^ ")"
        | Noop -> "noop")
        (if outcome.note = "" then "" else " [" ^ outcome.note ^ "]")
        outcome.epoch);
  outcome

(* Routes one candidate and runs it through the epoch gate:
   [Ok (tables, report)] once it is the active epoch. *)
let try_candidate t ~label route =
  let m = t.metrics in
  let tr0 = Unix.gettimeofday () in
  let candidate = route () in
  Obs.Timer.add m.Metrics.repair (Unix.gettimeofday () -. tr0);
  match candidate with
  | Error msg -> Error msg
  | Ok ft -> (
    match Epoch.try_swap t.epochs ~label ft with
    | Error msg, verify_s ->
      Obs.Timer.add m.Metrics.verify verify_s;
      Obs.Counter.incr m.Metrics.verify_failures;
      Error ("tables rejected: " ^ msg)
    | Ok r, verify_s ->
      Obs.Timer.add m.Metrics.verify verify_s;
      Obs.Counter.set m.Metrics.swap_epochs (Epoch.epoch t.epochs);
      Ok (ft, r))

(* Every table-changing event runs the full recompute. Only when that
   fails does an id-stable event under dfsssp go to the rescue
   ({!Repair.patch}), which re-routes the destinations that used
   [channels] and keeps every other route and its layer. *)
let reconverge t ~event ~t0 ~old_ft ~reason ~channels =
  let m = t.metrics in
  let g = Fabstate.graph t.state in
  (* A structural rebuild removes a switch, so the active tables index
     the current fabric's ids iff the node counts agree. *)
  let same_ids = Graph.num_nodes (Ftable.graph old_ft) = Graph.num_nodes g in
  let outcome ~action ~fallback ~note swapped =
    finish t
      {
        event;
        applied = true;
        action;
        fallback;
        epoch = Epoch.epoch t.epochs;
        verify = Option.map snd swapped;
        table_diff =
          (match swapped with
          | Some (ft, _) when same_ids -> Some (Ftable.diff old_ft ft)
          | _ -> None);
        note;
        elapsed_s = Unix.gettimeofday () -. t0;
      }
  in
  let label kind = Printf.sprintf "%s (%s)" (Event.to_string event) kind in
  match try_candidate t ~label:(label "full") (fun () -> full_route t) with
  | Ok swapped ->
    Obs.Counter.incr m.Metrics.full_recomputes;
    outcome ~action:(Full reason) ~fallback:false ~note:"" (Some swapped)
  | Error msg -> (
    let failed = "full recompute failed: " ^ msg in
    let stale why = outcome ~action:(Full reason) ~fallback:false ~note:(failed ^ why) None in
    match channels with
    | None -> stale ", serving stale tables"
    | Some _ when t.config.algorithm <> "dfsssp" ->
      stale (Printf.sprintf "; %s has no rescue, serving stale tables" t.config.algorithm)
    | Some _ when not same_ids ->
      stale "; the active tables predate a structural rebuild, so no rescue, serving stale tables"
    | Some channels -> (
      Obs.Counter.incr m.Metrics.fallbacks;
      let dsts = Repair.affected_destinations old_ft ~channels in
      let repaired = List.length dsts and total = Graph.num_terminals g in
      let action = Incremental { repaired; total } in
      let rescue () =
        Obs.Trace.with_span "fabric.repair"
          ~attrs:(fun () -> [("destinations", Obs.Trace.Int repaired); ("total", Obs.Trace.Int total)])
          (fun () ->
            Repair.patch ~kernel:t.config.kernel ~graph:g ~old:old_ft ~dsts ~weights:t.weights
              ~max_layers:t.config.max_layers ())
      in
      match try_candidate t ~label:(label "rescue") rescue with
      | Ok swapped ->
        Obs.Counter.incr m.Metrics.incremental_repairs;
        Obs.Counter.incr ~n:repaired m.Metrics.dsts_repaired;
        Obs.Counter.incr ~n:total m.Metrics.dsts_total;
        outcome ~action ~fallback:true ~note:failed (Some swapped)
      | Error rmsg ->
        outcome ~action ~fallback:true
          ~note:(Printf.sprintf "%s; rescue failed: %s, serving stale tables" failed rmsg)
          None))

let apply_inner t event =
  let t0 = Unix.gettimeofday () in
  let m = t.metrics in
  Obs.Counter.incr m.Metrics.events_seen;
  let old_ft = tables t in
  match Fabstate.apply t.state event with
  | Error msg ->
    Obs.Counter.incr m.Metrics.events_rejected;
    finish t
      {
        event;
        applied = false;
        action = Noop;
        fallback = false;
        epoch = Epoch.epoch t.epochs;
        verify = None;
        table_diff = None;
        note = "rejected: " ^ msg;
        elapsed_s = Unix.gettimeofday () -. t0;
      }
  | Ok change -> (
    Obs.Counter.incr m.Metrics.events_applied;
    match change with
    | Fabstate.Rebuilt -> reconverge t ~event ~t0 ~old_ft ~reason:"structural rebuild" ~channels:None
    | Fabstate.Disabled [] ->
      (* a drain that could spare no cable: topology unchanged *)
      finish t
        {
          event;
          applied = true;
          action = Noop;
          fallback = false;
          epoch = Epoch.epoch t.epochs;
          verify = None;
          table_diff = None;
          note = "no cable could be drained";
          elapsed_s = Unix.gettimeofday () -. t0;
        }
    | Fabstate.Disabled chans ->
      reconverge t ~event ~t0 ~old_ft
        ~reason:(Printf.sprintf "%d channel(s) down" (List.length chans))
        ~channels:(Some chans)
    | Fabstate.Restored chans ->
      reconverge t ~event ~t0 ~old_ft
        ~reason:(Printf.sprintf "%d channel(s) restored" (List.length chans))
        ~channels:(Some chans))

let apply t event =
  let span =
    Obs.Trace.begin_span "fabric.apply" ~attrs:(fun () ->
        [("event", Obs.Trace.Str (Event.to_string event))])
  in
  let o = apply_inner t event in
  Obs.Trace.end_span span
    ~attrs:
      [
        ( "action",
          Obs.Trace.Str
            (match o.action with
            | Incremental _ -> "incremental"
            | Full _ -> "full"
            | Noop -> "noop") );
        ("applied", Obs.Trace.Bool o.applied);
        ("epoch", Obs.Trace.Int o.epoch);
      ];
  o

let run t schedule = List.map (apply t) schedule

let pp_action ppf = function
  | Incremental { repaired; total } ->
    Format.fprintf ppf "rescue %d/%d dsts (%.0f%%)" repaired total
      (if total = 0 then 0.0 else 100.0 *. float_of_int repaired /. float_of_int total)
  | Full reason -> Format.fprintf ppf "full recompute (%s)" reason
  | Noop -> Format.pp_print_string ppf "no-op"

let pp_outcome ppf o =
  Format.fprintf ppf "%-12s %a" (Event.to_string o.event) pp_action o.action;
  (match o.table_diff with
  | Some d when o.applied -> Format.fprintf ppf ", %d entries rewritten" d.Ftable.entries_changed
  | _ -> ());
  Format.fprintf ppf ", epoch %d" o.epoch;
  (match o.verify with
  | Some r ->
    Format.fprintf ppf ", %d layer(s), verified deadlock-free%s" r.Dfsssp.Verify.num_layers
      (if r.Dfsssp.Verify.stats.Ftable.minimal then "" else " (detours)")
  | None -> ());
  if o.note <> "" then Format.fprintf ppf " — %s" o.note

let pp_summary ppf t =
  Format.fprintf ppf "@[<v>%a@," Metrics.pp t.metrics;
  Format.fprintf ppf "fabric: %a@," Graph.pp_stats (graph t);
  match Epoch.snapshot t.epochs with
  | Error _ -> Format.fprintf ppf "no active tables@]"
  | Ok s -> Format.fprintf ppf "active tables: %a@]" Dfsssp.Verify.pp_report s.Epoch.report

let converged t =
  List.for_all
    (fun o ->
      (not o.applied)
      ||
      match o.action with
      | Noop -> true
      | Incremental _ | Full _ -> o.verify <> None)
    t.outcomes
