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
  Obs.Registry.timer "epoch.swap_stats"
    ~desc:"seconds computing a swap's route statistics (after a class walk if none was handed in)"

let t_expand =
  Obs.Registry.timer "epoch.snapshot_expand"
    ~desc:"seconds expanding a swap's route classes into the per-pair snapshot store"

(* Existence, then the certificate, then statistics from the
   candidate's route classes and their per-pair expansion: [Ok (store,
   report)] names the store the snapshot will serve. Every timed stage
   ends before [try_swap] installs the snapshot, so whatever the daemon
   reads at a stage end is the previous epoch. *)
let vet ?classes candidate =
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
       lib/analysis reads the candidate's destination trees itself and
       must accept a topological witness for every layer over them. A
       table the checker cannot certify never goes live, whatever the
       code that built it believes. Completeness and path statistics
       then come from the route classes the placement walked, which
       [Ftable] refuses unless they were walked from the candidate as it
       stands (a registry engine's table is walked here), and the
       snapshot serves their per-pair expansion: the daemon reads slices
       by pair id. The classes are dropped after the expansion. *)
    match Analysis.Analyzer.certify candidate with
    | Error msg -> Error (Printf.sprintf "certificate: %s" msg)
    | Ok _cert -> (
      match
        Obs.Timer.time t_stats (fun () ->
            Result.map
              (fun cls -> (cls, Dfsssp.Verify.of_classes candidate cls ~deadlock_free:true))
              (match classes with Some cls -> Ok cls | None -> Ftable.to_classes candidate))
      with
      | Error msg -> Error (Printf.sprintf "classes: %s" msg)
      | Ok (cls, report) -> Ok (Obs.Timer.time t_expand (fun () -> Ftable.expand candidate cls), report))

let try_swap ?classes t ~label candidate =
  let t0 = Unix.gettimeofday () in
  let vetted = vet ?classes candidate in
  let verify_s = Unix.gettimeofday () -. t0 in
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
