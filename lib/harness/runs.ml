let paper_algorithms = [ "minhop"; "updown"; "ftree"; "dor"; "lash"; "sssp"; "dfsssp" ]

let run_named ?coords ?max_layers ?batch ?domains name g =
  match Dfsssp.Registry.find ?coords ?max_layers ?batch ?domains name with
  | None -> Error (Printf.sprintf "unknown algorithm %S" name)
  | Some alg -> alg.Dfsssp.Registry.run g

let timed f =
  let t0 = Unix.gettimeofday () in
  let x = f () in
  (Unix.gettimeofday () -. t0, x)

let ebb_cell ?coords ?ranks ~patterns ~seed name g =
  match run_named ?coords name g with
  | Error _ -> Report.Missing
  | Ok ft ->
    let rng = Rng.create seed in
    let ebb = Simulator.Congestion.effective_bisection_bandwidth ~patterns ?ranks ~rng ft in
    Report.Flt ebb.Simulator.Congestion.samples.Simulator.Metrics.mean

let vl_cell ?coords ?max_layers name g =
  match run_named ?coords ?max_layers name g with
  | Error _ -> Report.Missing
  | Ok ft -> Report.Int (Ftable.num_layers ft)

let analyzer_cell ft =
  let r = Analysis.Analyzer.analyze ft in
  if Analysis.Analyzer.ok r then Report.Str "certified"
  else
    let errs = Analysis.Diag.num_errors r.Analysis.Analyzer.findings in
    Report.Str (Printf.sprintf "REJECTED (%d error(s))" errs)

let analyzer_run_cell ?coords ?max_layers name g =
  match run_named ?coords ?max_layers name g with
  | Error _ -> Report.Missing
  | Ok ft -> analyzer_cell ft

let runtime_cell ?coords ?batch ?domains name g =
  match timed (fun () -> run_named ?coords ?batch ?domains name g) with
  | _, Error _ -> Report.Missing
  | dt, Ok _ -> Report.Time dt

let sample_ranks ~rng ~count g =
  let terminals = Graph.terminals g in
  let n = Array.length terminals in
  if count >= n then Array.copy terminals
  else begin
    let idx = Rng.sample_distinct rng ~n:count ~bound:n in
    Array.map (fun i -> terminals.(i)) idx
  end
