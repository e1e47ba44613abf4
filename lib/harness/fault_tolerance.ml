type fabric =
  | Torus
  | Fat_tree

let fabric_to_string = function
  | Torus -> "6x6 torus"
  | Fat_tree -> "XGFT(2;4,4;2,2), 64 endpoints"

let build = function
  | Torus ->
    let g, coords = Topo_torus.torus ~dims:[| 6; 6 |] ~terminals_per_switch:1 in
    (g, Some coords, "dor")
  | Fat_tree -> (Topo_xgft.make ~ms:[| 4; 4 |] ~ws:[| 2; 2 |] ~endpoints:64, None, "ftree")

let specialist_cell ?coords name g =
  match Runs.run_named ?coords name g with
  | Error _ -> Report.Str "refused"
  | Ok ft ->
    if Result.is_ok (Analysis.Analyzer.certify ft) then
      match Ftable.validate ft with
      | Ok s when s.Ftable.minimal -> Report.Str "ok"
      | Ok _ -> Report.Str "ok (detours)"
      | Error _ -> Report.Str "BROKEN"
    else Report.Str "UNSAFE"

let sweep ~fabric ?(removals = [ 0; 2; 4; 8 ]) ?(patterns = 30) ?(seed = 31) () =
  let g0, coords, specialist = build fabric in
  let rows =
    List.map
      (fun removed ->
        let rng = Rng.create (seed + removed) in
        let g, actually_removed =
          if removed = 0 then (g0, 0) else Degrade.remove_cables g0 ~rng ~count:removed
        in
        let ebb name =
          match Runs.run_named ?coords name g with
          | Error _ -> Report.Missing
          | Ok ft ->
            let rng = Rng.create (seed * 53) in
            Report.Flt
              (Simulator.Congestion.effective_bisection_bandwidth ~patterns ~rng ft)
                .Simulator.Congestion.samples
                .Obs.Stat.mean
        in
        let dfsssp_vls =
          match Runs.run_named "dfsssp" g with
          | Error _ -> Report.Missing
          | Ok ft -> Report.Int (Ftable.num_layers ft)
        in
        [
          Report.Int actually_removed;
          specialist_cell ?coords specialist g;
          ebb "updown";
          ebb "minhop";
          ebb "dfsssp";
          dfsssp_vls;
        ])
      removals
  in
  {
    Report.title =
      Printf.sprintf "Fault tolerance: cable removal on %s (specialist: %s)" (fabric_to_string fabric)
        specialist;
    columns =
      [ "cables removed"; specialist; "updown eBB"; "minhop eBB"; "dfsssp eBB"; "dfsssp VLs" ];
    rows;
    notes =
      [
        "removals preserve connectivity (operator drains redundant cables)";
        "UNSAFE = routes but with a cyclic dependency graph; refused = no routing produced";
      ];
  }
