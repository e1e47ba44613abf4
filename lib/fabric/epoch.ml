type entry = {
  epoch : int;
  label : string;
  verify_s : float;
}

type snapshot = {
  snap_epoch : int;
  tables : Ftable.t;
  store : Route_store.t;
  num_layers : int;
  report : Dfsssp.Verify.report;
}

type t = {
  mutable epoch : int;
  mutable snap : snapshot option; (* the current epoch's export *)
  mutable entries : entry list; (* newest first *)
}

let create () = { epoch = 0; snap = None; entries = [] }

let epoch t = t.epoch

let active t = Option.map (fun s -> s.tables) t.snap

let history t = List.rev t.entries

let snapshot t =
  match t.snap with
  | Some s -> Ok s
  | None -> Error "no active epoch"

let t_stats =
  Obs.Registry.timer "epoch.swap_stats" ~desc:"seconds computing a swap's route statistics"

let t_expand =
  Obs.Registry.timer "epoch.snapshot_expand"
    ~desc:"seconds expanding a swap's certified route classes into the per-pair snapshot store"

(* Existence, then the certificate, then statistics from the certified
   classes and their per-pair expansion: [Ok (store, report)] names the
   store the snapshot will serve. *)
let vet candidate =
  (* The topology-level existence gate runs before anything touches the
     candidate's routes: a layer budget below the fabric's provable
     minimum (Analysis.Existence) cannot be certified by any table, so
     the candidate is refused without spending a certificate run on it. *)
  let ex = Analysis.Existence.analyze (Ftable.graph candidate) in
  if ex.Analysis.Existence.min_layers_lb > Ftable.num_layers candidate then
    Error
      (Printf.sprintf "existence: layer budget %d is below the provable minimum %d for this fabric"
         (Ftable.num_layers candidate) ex.Analysis.Existence.min_layers_lb)
  else
    (* The certificate is the one deadlock gate: the trusted checker in
       lib/analysis walks the candidate's route classes itself and must
       accept a topological witness for every layer over them. A table
       the checker cannot certify never goes live, whatever the code that
       built it believes. Completeness and path statistics then come from
       those same classes, and the snapshot serves their per-pair
       expansion — the daemon reads slices by pair id. *)
    match Analysis.Analyzer.certify_classes candidate with
    | Error msg -> Error (Printf.sprintf "certificate: %s" msg)
    | Ok (_cert, cls) ->
      let report =
        Obs.Timer.time t_stats (fun () -> Dfsssp.Verify.of_classes candidate cls ~deadlock_free:true)
      in
      Ok (Obs.Timer.time t_expand (fun () -> Ftable.expand candidate cls), report)

let try_swap t ~label candidate =
  let span =
    Obs.Trace.begin_span "fabric.try_swap" ~attrs:(fun () -> [("label", Obs.Trace.Str label)])
  in
  let t0 = Unix.gettimeofday () in
  let vetted = vet candidate in
  let verify_s = Unix.gettimeofday () -. t0 in
  let result =
    match vetted with
    | Error msg -> Error msg
    | Ok (store, report) ->
      t.epoch <- t.epoch + 1;
      t.snap <-
        Some
          {
            snap_epoch = t.epoch;
            tables = candidate;
            store;
            num_layers = Ftable.num_layers candidate;
            report;
          };
      t.entries <- { epoch = t.epoch; label; verify_s } :: t.entries;
      Ok report
  in
  Obs.Trace.end_span span
    ~attrs:[("ok", Obs.Trace.Bool (Result.is_ok result)); ("epoch", Obs.Trace.Int t.epoch)];
  (result, verify_s)
