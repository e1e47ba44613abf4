type verdict =
  | Certified of Cert.t
  | Rejected of string

type report = {
  algorithm : string;
  channels : int;
  terminals : int;
  num_layers : int;
  min_layers_lb : int;
  findings : Diag.finding list;
  verdict : verdict;
}

(* Certifier telemetry: one counter/timer sample per run, a span per
   analyze — the per-engine "performance counters" the InfiniBand
   controller literature exports for its routing engines. *)
let c_analyses = Obs.Registry.counter "analysis.analyses" ~desc:"full analyzer runs"

let c_certified = Obs.Registry.counter "analysis.certified" ~desc:"analyzer verdicts: certified"

let c_rejected = Obs.Registry.counter "analysis.rejected" ~desc:"analyzer verdicts: rejected"

let t_certify = Obs.Registry.timer "analysis.certify" ~desc:"seconds per certificate generate+check"

let t_analyze = Obs.Registry.timer "analysis.analyze" ~desc:"seconds per full analyzer run"

type refusal =
  | Uncertifiable of Cert.error
  | Refuted of string

let refusal_to_string = function
  | Uncertifiable e -> Cert.error_to_string e
  | Refuted msg -> Printf.sprintf "checker refuted the generated witness: %s" msg

(* One materialisation per run: the witness is generated from, and then
   checked against, the store this function derives from the table
   itself. The generated witness is untrusted until the checker
   re-derives every dependency from that store and accepts it. *)
let certify_artifacts ft =
  match Cert.artifacts_of_table ft with
  | Error msg -> Error (Uncertifiable (Cert.Incomplete msg))
  | Ok (store, layer_of_path) -> (
    match Cert.of_artifacts ft store ~layer_of_path with
    | Error e -> Error (Uncertifiable e)
    | Ok cert -> (
      match Cert.check cert store ~layer_of_path with
      | Ok () -> Ok (cert, store, layer_of_path)
      | Error msg -> Error (Refuted msg)))

let certify_store ft =
  Obs.Timer.time t_certify (fun () ->
      Result.map_error refusal_to_string (certify_artifacts ft))

let certify ft = Result.map (fun (cert, _, _) -> cert) (certify_store ft)

(* Topology-level findings (A008/A009/A010): computed on the fabric the
   table is judged against, so a degraded [?graph] override is analyzed,
   not the construction-time topology. *)
let existence_findings ex ~num_layers =
  let open Existence in
  match ex.unreachable with
  | Some (s, d) ->
    [
      Diag.finding Diag.a008_no_deadlock_free_routing
        (Printf.sprintf
           "terminal %d has no path to terminal %d in the enabled fabric: no routing, \
            deadlock-free or otherwise, serves the demand set"
           s d);
    ]
  | None ->
    if ex.min_layers_lb > num_layers then
      let detail =
        match ex.cores with
        | c :: _ ->
          Printf.sprintf
            "declared budget %d is below the provable minimum %d (forced by a unidirectional \
             core of %d channels)"
            num_layers ex.min_layers_lb (Array.length c.cycle)
        | [] ->
          Printf.sprintf "declared budget %d is below the provable minimum %d" num_layers
            ex.min_layers_lb
      in
      [ Diag.finding Diag.a009_layer_budget_infeasible detail ]
    else
      [
        Diag.finding Diag.a010_layer_slack
          (Printf.sprintf "%d layer(s) used, provable minimum %d (slack %d)" num_layers
             ex.min_layers_lb (num_layers - ex.min_layers_lb));
      ]

let analyze_inner ?hop_budget ?graph ft =
  let findings = Lint.table ?hop_budget ?graph ft in
  let fabric = Option.value graph ~default:(Ftable.graph ft) in
  let ex = Existence.analyze fabric in
  let findings = findings @ existence_findings ex ~num_layers:(Ftable.num_layers ft) in
  let findings, verdict =
    match certify_artifacts ft with
    | Ok (cert, _, _) -> (findings, Certified cert)
    | Error (Uncertifiable (Cert.Cycle { layer; stuck }) as r) ->
      ( findings
        @ [
            Diag.finding ~count:stuck Diag.a007_cdg_cycle
              (Printf.sprintf "layer %d: %d channel(s) stuck on a dependency cycle" layer stuck);
          ],
        Rejected (refusal_to_string r) )
    | Error r -> (findings, Rejected (refusal_to_string r))
  in
  let g = Ftable.graph ft in
  {
    algorithm = Ftable.algorithm ft;
    channels = Graph.num_channels g;
    terminals = Graph.num_terminals g;
    num_layers = Ftable.num_layers ft;
    min_layers_lb = ex.Existence.min_layers_lb;
    findings;
    verdict;
  }

let analyze ?hop_budget ?graph ft =
  Obs.Counter.incr c_analyses;
  let span =
    Obs.Trace.begin_span "analysis.analyze" ~attrs:(fun () ->
        [
          ("algorithm", Obs.Trace.Str (Ftable.algorithm ft));
          ("terminals", Obs.Trace.Int (Graph.num_terminals (Ftable.graph ft)));
        ])
  in
  let report = Obs.Timer.time t_analyze (fun () -> analyze_inner ?hop_budget ?graph ft) in
  (match report.verdict with
  | Certified _ -> Obs.Counter.incr c_certified
  | Rejected _ -> Obs.Counter.incr c_rejected);
  Obs.Trace.end_span span
    ~attrs:
      [
        ( "verdict",
          Obs.Trace.Str (match report.verdict with Certified _ -> "certified" | Rejected _ -> "rejected")
        );
        ("errors", Obs.Trace.Int (Diag.num_errors report.findings));
        ("warnings", Obs.Trace.Int (Diag.num_warnings report.findings));
      ];
  report

let ok r =
  (match r.verdict with Certified _ -> true | Rejected _ -> false) && Diag.num_errors r.findings = 0

let pp ppf r =
  Format.fprintf ppf "@[<v>%s: %d terminals, %d channels, %d layer(s) (provable minimum %d)@,"
    r.algorithm r.terminals r.channels r.num_layers r.min_layers_lb;
  (match r.findings with
  | [] -> Format.fprintf ppf "lint: no findings@,"
  | fs ->
    Format.fprintf ppf "lint: %d error(s), %d warning(s)@," (Diag.num_errors fs) (Diag.num_warnings fs);
    List.iter (fun f -> Format.fprintf ppf "  %a@," Diag.pp_finding f) fs);
  (match r.verdict with
  | Certified cert ->
    Format.fprintf ppf "certificate: CERTIFIED (%d layer(s), topological witness checked)"
      (Cert.num_layers cert)
  | Rejected msg -> Format.fprintf ppf "certificate: REJECTED — %s" msg);
  Format.fprintf ppf "@]"

let to_json ?target r =
  let num i = Obs.Json.Num (float_of_int i) in
  let verdict =
    match r.verdict with
    | Certified cert ->
      [ ("verdict", Obs.Json.Str "certified"); ("certificate_layers", num (Cert.num_layers cert)) ]
    | Rejected msg -> [ ("verdict", Obs.Json.Str "rejected"); ("reason", Obs.Json.Str msg) ]
  in
  Obs.Json.Obj
    ((match target with Some t -> [ ("target", Obs.Json.Str t) ] | None -> [])
    @ [
        ("algorithm", Obs.Json.Str r.algorithm);
        ("terminals", num r.terminals);
        ("channels", num r.channels);
        ("num_layers", num r.num_layers);
        ("min_layers_lb", num r.min_layers_lb);
        ("errors", num (Diag.num_errors r.findings));
        ("warnings", num (Diag.num_warnings r.findings));
        ("findings", Obs.Json.List (List.map Diag.finding_to_json r.findings));
      ]
    @ verdict)
