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
    kernel = Spf.Bucket;
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
  mutable unverified : int; (* applied, table-changing events that ended without a verified swap *)
  mutable pool : Sssp.pool option;
      (* persistent routing-domain pool ([domains > 1] only): scratch is
         epoch-stamped, so the same pool serves every full recompute even
         across structural rebuilds of the graph *)
  mutable initial_fallback : string option;
}

let config t = t.config

let graph t = Fabstate.graph t.state

let tables t = Option.get (Epoch.active t.epochs)

let metrics t = t.metrics

let epoch t = Epoch.epoch t.epochs

let epoch_history t = Epoch.history t.epochs

let initial_fallback t = t.initial_fallback

(* Full recompute, timed as [fabric.repair]: fresh weight state, route
   everything, re-break all cycles. Under dfsssp, [Dfsssp.build] places
   the SSSP routes online when Algorithm 2 runs out of layers;
   [Ok (ft, classes, Some note)] says that happened and why, and
   [classes] is the store the layers were placed on, for the epoch gate
   (a registry engine hands none, and the gate walks its table). An
   [Error] names every failed placement. *)
let full_route t =
  let g = Fabstate.graph t.state in
  Obs.Timer.time t.metrics.Metrics.repair
    ~attrs:(fun result ->
      ("algorithm", Obs.Trace.Str t.config.algorithm)
      :: ("terminals", Obs.Trace.Int (Graph.num_terminals g))
      :: ("channels", Obs.Trace.Int (Graph.num_channels g))
      ::
      (match result with
      | Ok (ft, _, online) ->
        [ ("layers", Obs.Trace.Int (Ftable.num_layers ft)); ("fallback", Obs.Trace.Bool (online <> None)) ]
      | Error msg -> [ ("error", Obs.Trace.Str msg) ]))
  @@ fun () ->
  if t.config.algorithm = "dfsssp" then
    match
      Dfsssp.build ~max_layers:t.config.max_layers ~batch:t.config.batch ~domains:t.config.domains
        ?pool:t.pool ~kernel:t.config.kernel g
    with
    | Error e -> Error (Dfsssp.error_to_string e)
    | Ok { Dfsssp.table; classes; placement = Online_fallback { offline_reason }; _ } ->
      Ok
        ( table,
          Some classes,
          Some ("offline layer assignment failed: " ^ offline_reason ^ "; placed online") )
    | Ok { Dfsssp.table; classes; _ } -> Ok (table, Some classes, None)
  else
    match
      Dfsssp.Registry.find ~max_layers:t.config.max_layers ~batch:t.config.batch
        ~domains:t.config.domains t.config.algorithm
    with
    | None -> Error (Printf.sprintf "unknown algorithm %S" t.config.algorithm)
    | Some a -> Result.map (fun ft -> (ft, None, None)) (a.Dfsssp.Registry.run g)

(* The epoch gate, timed as [fabric.verify]. *)
let swap ?classes t ~label ft =
  Obs.Timer.time t.metrics.Metrics.verify
    ~attrs:(fun result ->
      [
        ("label", Obs.Trace.Str label);
        ("ok", Obs.Trace.Bool (Result.is_ok result));
        ("epoch", Obs.Trace.Int (Epoch.epoch t.epochs));
      ])
    (fun () -> Epoch.try_swap ?classes t.epochs ~label ft)

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
  if config.max_layers > Ftable.max_layer_ids then
    Error
      (Printf.sprintf "Manager.create: max_layers %d exceeds the %d layer ids a table holds"
         config.max_layers Ftable.max_layer_ids)
  else if Graph.num_terminals g < 2 then Error "Manager.create: fabric has fewer than two terminals"
  else begin
    let t =
      {
        config;
        state = Fabstate.create g;
        epochs = Epoch.create ();
        metrics = Metrics.create ();
        unverified = 0;
        pool = (if config.domains > 1 then Some (Sssp.create_pool ~domains:config.domains ()) else None);
        initial_fallback = None;
      }
    in
    match full_route t with
    | Error msg ->
      release t;
      Error msg
    | Ok (ft, classes, online) -> (
      t.initial_fallback <- online;
      match swap ?classes t ~label:"initial" ft with
      | Error msg ->
        release t;
        Error (Printf.sprintf "initial tables rejected: %s" msg)
      | Ok _ ->
        Obs.Counter.set t.metrics.Metrics.swap_epochs (Epoch.epoch t.epochs);
        if online <> None then Obs.Counter.incr t.metrics.Metrics.fallbacks;
        Ok t)
  end

let finish t outcome =
  if outcome.applied && outcome.action <> Noop && outcome.verify = None then
    t.unverified <- t.unverified + 1;
  Log.info (fun m ->
      m "%s: %s%s epoch %d" (Event.to_string outcome.event)
        (match outcome.action with
        | Full reason -> "full (" ^ reason ^ ")"
        | Noop | Incremental _ -> "noop")
        (if outcome.note = "" then "" else " [" ^ outcome.note ^ "]")
        outcome.epoch);
  outcome

(* Every table-changing event runs the full recompute and offers the
   result to the epoch gate; a failure leaves the active tables in place. *)
let reconverge t ~event ~t0 ~old_ft ~reason =
  let m = t.metrics in
  let candidate = full_route t in
  let outcome ~fallback ~verify ~table_diff ~note =
    finish t
      {
        event;
        applied = true;
        action = Full reason;
        fallback;
        epoch = Epoch.epoch t.epochs;
        verify;
        table_diff;
        note;
        elapsed_s = Unix.gettimeofday () -. t0;
      }
  in
  let stale msg =
    outcome ~fallback:false ~verify:None ~table_diff:None
      ~note:("full recompute failed: " ^ msg ^ ", serving stale tables")
  in
  match candidate with
  | Error msg -> stale msg
  | Ok (ft, classes, online) -> (
    match swap ?classes t ~label:(Event.to_string event ^ " (full)") ft with
    | Error msg ->
      Obs.Counter.incr m.Metrics.verify_failures;
      stale ("tables rejected: " ^ msg)
    | Ok r ->
      Obs.Counter.set m.Metrics.swap_epochs (Epoch.epoch t.epochs);
      Obs.Counter.incr m.Metrics.full_recomputes;
      if online <> None then Obs.Counter.incr m.Metrics.fallbacks;
      (* A structural rebuild removes a switch, so the active tables
         index the current fabric's ids, and can be diffed, iff the node
         counts agree. *)
      let same_ids = Graph.num_nodes (Ftable.graph old_ft) = Graph.num_nodes (Ftable.graph ft) in
      outcome ~fallback:(online <> None) ~verify:(Some r)
        ~table_diff:(if same_ids then Some (Ftable.diff old_ft ft) else None)
        ~note:(Option.value online ~default:""))

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
    | Fabstate.Rebuilt -> reconverge t ~event ~t0 ~old_ft ~reason:"structural rebuild"
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
    | Fabstate.Restored chans ->
      reconverge t ~event ~t0 ~old_ft
        ~reason:(Printf.sprintf "%d channel(s) restored" (List.length chans)))

let apply t event =
  Obs.Timer.time t.metrics.Metrics.apply
    ~attrs:(fun o ->
      [
        ("event", Obs.Trace.Str (Event.to_string event));
        ("action", Obs.Trace.Str (match o.action with Full _ | Incremental _ -> "full" | Noop -> "noop"));
        ("applied", Obs.Trace.Bool o.applied);
        ("epoch", Obs.Trace.Int o.epoch);
      ])
    (fun () -> apply_inner t event)

let pp_action ppf = function
  | Full reason -> Format.fprintf ppf "full recompute (%s)" reason
  | Noop | Incremental _ -> Format.pp_print_string ppf "no-op"

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

let converged t = t.unverified = 0
