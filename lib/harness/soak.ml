type result = {
  spec : string;
  seed : int;
  scheduled : int;
  applied : int;
  swaps : int;
  rescued : int;
  full : int;
  failures : string list;
  artifact : string option;
}

let rec mkdir_p dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let sanitize spec =
  String.map (fun c -> if (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') then c else '-') spec

(* The reproduction artifact: everything needed to replay the failing
   run, plus the trace spans captured while it happened. *)
let write_artifact ~dir ~spec ~seed ~events ~scheduled ~failures ~trace_buf =
  mkdir_p dir;
  let path = Filename.concat dir (Printf.sprintf "soak-%s-seed%d.json" (sanitize spec) seed) in
  let trace =
    String.split_on_char '\n' (Buffer.contents trace_buf)
    |> List.filter (fun l -> String.trim l <> "")
    |> List.map (fun l ->
         match Obs.Json.of_string l with Ok j -> j | Error _ -> Obs.Json.Str l)
  in
  let doc =
    Obs.Json.Obj
      [
        ("spec", Obs.Json.Str spec);
        ("seed", Obs.Json.Num (float_of_int seed));
        ("events", Obs.Json.Num (float_of_int events));
        ("scheduled", Obs.Json.Num (float_of_int scheduled));
        ("failures", Obs.Json.List (List.map (fun f -> Obs.Json.Str f) failures));
        ("trace", Obs.Json.List trace);
      ]
  in
  let oc = open_out path in
  output_string oc (Obs.Json.to_string doc);
  output_char oc '\n';
  close_out oc;
  path

let failed ~dir ~spec ~seed ~events msg =
  let artifact =
    write_artifact ~dir ~spec ~seed ~events ~scheduled:0 ~failures:[ msg ]
      ~trace_buf:(Buffer.create 0)
  in
  {
    spec;
    seed;
    scheduled = 0;
    applied = 0;
    swaps = 0;
    rescued = 0;
    full = 0;
    failures = [ msg ];
    artifact = Some artifact;
  }

let run_one ?config ?switch_removals ?drains ?(artifact_dir = Filename.concat "_build" "soak")
    ~spec ~seed ~events () =
  let failed = failed ~dir:artifact_dir ~spec ~seed ~events in
  match Topospec.parse spec with
  | Error e -> failed (Printf.sprintf "spec: %s" e)
  | Ok t -> (
    let g = t.Topospec.graph in
    let switch_removals = Option.value switch_removals ~default:(events / 20) in
    let drains = Option.value drains ~default:(events / 10) in
    let rng = Rng.create seed in
    let schedule =
      Fabric.Schedule.generate g ~rng ~events ~switch_removals ~drains ()
    in
    let scheduled = List.length schedule in
    match Fabric.Manager.create ?config g with
    | Error e -> failed (Printf.sprintf "manager: %s" e)
    | Ok m ->
      let fails = ref [] in
      let fail fmt = Printf.ksprintf (fun msg -> fails := msg :: !fails) fmt in
      let applied = ref 0 and swaps = ref 0 and rescued = ref 0 and full = ref 0 in
      let trace_buf = Buffer.create 4096 in
      Fun.protect
        ~finally:(fun () -> Fabric.Manager.shutdown m)
        (fun () ->
          Obs.Control.with_enabled true (fun () ->
              Obs.Trace.with_sink (Obs.Trace.buffer_sink trace_buf) (fun () ->
                  let prev_epoch = ref (Fabric.Manager.epoch m) in
                  List.iteri
                    (fun i ev ->
                      let o = Fabric.Manager.apply m ev in
                      let tag = Printf.sprintf "event %d (%s)" i (Fabric.Event.to_string ev) in
                      if o.Fabric.Manager.applied then begin
                        incr applied;
                        (match o.Fabric.Manager.action with
                        | Fabric.Manager.Incremental _ -> incr rescued
                        | Fabric.Manager.Full _ -> incr full
                        | Fabric.Manager.Noop -> ());
                        (match (o.Fabric.Manager.action, o.Fabric.Manager.verify) with
                        | Fabric.Manager.Noop, _ | _, Some _ -> ()
                        | _, None ->
                          fail "%s: no verified swap (%s)" tag o.Fabric.Manager.note)
                      end;
                      let epoch = Fabric.Manager.epoch m in
                      if epoch <> !prev_epoch then begin
                        incr swaps;
                        prev_epoch := epoch;
                        (* Two independent opinions on every swap: the
                           trusted checker recertifies the live tables, and
                           the Acyclic CDG oracle — which the epoch gate no
                           longer runs — must reach the same verdict. *)
                        let tables = Fabric.Manager.tables m in
                        let certified =
                          match Analysis.Analyzer.certify tables with
                          | Ok _ -> true
                          | Error msg ->
                            fail "%s: epoch %d recertification: %s" tag epoch msg;
                            false
                        in
                        let acyclic = Dfsssp.Verify.deadlock_free tables in
                        if acyclic <> certified then
                          fail "%s: epoch %d: the CDG oracle finds the layers %s but the certificate %s"
                            tag epoch
                            (if acyclic then "acyclic" else "cyclic")
                            (if certified then "was accepted" else "was refused")
                      end)
                    schedule;
                  if not (Fabric.Manager.converged m) then
                    fail "manager did not converge (%d events)" scheduled;
                  let report =
                    Analysis.Analyzer.analyze ~graph:(Fabric.Manager.graph m)
                      (Fabric.Manager.tables m)
                  in
                  if not (Analysis.Analyzer.ok report) then
                    fail "final tables rejected by the analyzer")));
      let failures = List.rev !fails in
      let artifact =
        if failures = [] then None
        else
          Some
            (write_artifact ~dir:artifact_dir ~spec ~seed ~events ~scheduled ~failures
               ~trace_buf)
      in
      {
        spec;
        seed;
        scheduled;
        applied = !applied;
        swaps = !swaps;
        rescued = !rescued;
        full = !full;
        failures;
        artifact;
      })

let run ?config ?switch_removals ?drains ?artifact_dir ~specs ~seed ~events () =
  List.map
    (fun spec ->
      run_one ?config ?switch_removals ?drains ?artifact_dir ~spec ~seed ~events ())
    specs

let failures results =
  List.concat_map
    (fun r -> List.map (fun f -> Printf.sprintf "%s: %s" r.spec f) r.failures)
    results

let pp_summary ppf results =
  List.iter
    (fun r ->
      if r.failures = [] then
        Format.fprintf ppf
          "PASS %-28s seed=%-4d events=%d/%d swaps=%d rescued=%d full=%d@." r.spec
          r.seed r.applied r.scheduled r.swaps r.rescued r.full
      else begin
        Format.fprintf ppf "FAIL %s seed=%d@." r.spec r.seed;
        List.iter (fun f -> Format.fprintf ppf "  - %s@." f) r.failures;
        match r.artifact with
        | Some path -> Format.fprintf ppf "  reproduction artifact: %s@." path
        | None -> ()
      end)
    results;
  let bad = List.length (List.filter (fun r -> r.failures <> []) results) in
  Format.fprintf ppf "%d soak(s), %d failing@." (List.length results) bad
