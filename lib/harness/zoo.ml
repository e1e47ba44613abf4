type status =
  | Certified of int
  | Routed of int
  | Refused of string

type outcome = {
  algorithm : string;
  status : status;
}

type subject = {
  spec : string;
  description : string;
  switches : int;
  terminals : int;
  channels : int;
  min_layers_lb : int;
  outcomes : outcome list;
  failures : string list;
}

let find_corpus_dir () =
  List.find_opt
    (fun dir -> Sys.file_exists dir && Sys.is_directory dir)
    [ "examples/zoo"; "../examples/zoo"; "../../examples/zoo"; "../../../examples/zoo" ]

let corpus_specs ~dir =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.filter_map (fun name ->
       let path = Filename.concat dir name in
       match String.lowercase_ascii (Filename.extension name) with
       | ".dot" | ".gv" -> Some ("dot:" ^ path)
       | ".edges" | ".edgelist" -> Some ("edgelist:" ^ path)
       | _ -> None)

let generator_specs =
  [ "jellyfish:10,6,3:3"; "jellyfish:14,8,5:7"; "xpander:3,4:5"; "xpander:4,5:11" ]

let verdict_text (report : Analysis.Analyzer.report) =
  match report.Analysis.Analyzer.verdict with
  | Analysis.Analyzer.Certified _ -> "lint errors"
  | Analysis.Analyzer.Rejected msg -> msg

let check_spec ?max_layers spec =
  match Topospec.parse spec with
  | Error e -> Error e
  | Ok t ->
    let g = t.Topospec.graph in
    let coords = t.Topospec.coords in
    let fails = ref [] in
    let fail fmt = Printf.ksprintf (fun m -> fails := m :: !fails) fmt in
    let existence = Analysis.Existence.analyze g in
    (match existence.Analysis.Existence.unreachable with
    | Some (s, d) -> fail "existence: terminal %d cannot reach terminal %d" s d
    | None -> ());
    let lb = existence.Analysis.Existence.min_layers_lb in
    let algorithms = Dfsssp.Registry.all ?coords ?max_layers () in
    let outcomes =
      List.map
        (fun (a : Dfsssp.Registry.algorithm) ->
          match a.Dfsssp.Registry.run g with
          | Error msg ->
            if a.Dfsssp.Registry.name = "dfsssp" then fail "dfsssp refused: %s" msg;
            { algorithm = a.Dfsssp.Registry.name; status = Refused msg }
          | Ok ft ->
            let name = a.Dfsssp.Registry.name in
            let layers = Ftable.num_layers ft in
            (match Ftable.validate ft with
            | Error msg ->
              fail "%s: invalid table: %s" name msg;
              { algorithm = name; status = Routed layers }
            | Ok _ ->
              if a.Dfsssp.Registry.deadlock_free_by_design then begin
                let report = Analysis.Analyzer.analyze ~graph:g ft in
                if not (Analysis.Analyzer.ok report) then
                  fail "%s: certificate rejected: %s" name (verdict_text report);
                if layers < lb then
                  fail "%s: %d layer(s) below the provable lower bound %d" name layers lb;
                { algorithm = name; status = Certified layers }
              end
              else { algorithm = name; status = Routed layers }))
        algorithms
    in
    (* Kernel parity: the bucket kernel must produce the heap oracle's table. *)
    let kernel_run kernel = Dfsssp.build ~kernel ?max_layers g in
    (match (kernel_run Spf.Heap, kernel_run Spf.Bucket) with
    | Ok { Dfsssp.table = heap; _ }, Ok { Dfsssp.table = bucket; _ } ->
      if (Ftable.diff heap bucket).Ftable.entries_changed <> 0 then
        fail "kernel parity: heap and bucket tables differ";
      if Ftable.num_layers heap <> Ftable.num_layers bucket then
        fail "kernel parity: layer counts differ across kernels"
    | _ -> fail "kernel parity: a kernel run refused where dfsssp should succeed");
    Ok
      {
        spec;
        description = t.Topospec.description;
        switches = Graph.num_switches g;
        terminals = Graph.num_terminals g;
        channels = Graph.num_channels g;
        min_layers_lb = lb;
        outcomes;
        failures = List.rev !fails;
      }

let run ?max_layers ~specs () =
  List.map
    (fun spec ->
      match check_spec ?max_layers spec with
      | Ok s -> s
      | Error e ->
        {
          spec;
          description = "unparsable spec";
          switches = 0;
          terminals = 0;
          channels = 0;
          min_layers_lb = 0;
          outcomes = [];
          failures = [ Printf.sprintf "spec: %s" e ];
        })
    specs

let failures subjects =
  List.concat_map
    (fun s -> List.map (fun f -> Printf.sprintf "%s: %s" s.spec f) s.failures)
    subjects

let pp_outcome ppf { algorithm; status } =
  match status with
  | Certified layers -> Format.fprintf ppf "%s=%dL" algorithm layers
  | Routed _ -> Format.fprintf ppf "%s=ok" algorithm
  | Refused _ -> Format.fprintf ppf "%s=-" algorithm

let pp_summary ppf subjects =
  List.iter
    (fun s ->
      if s.failures = [] then
        Format.fprintf ppf "PASS %-34s sw=%-3d term=%-3d lb=%d  %a@." s.spec s.switches
          s.terminals s.min_layers_lb
          (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " ") pp_outcome)
          s.outcomes
      else begin
        Format.fprintf ppf "FAIL %s@." s.spec;
        List.iter (fun f -> Format.fprintf ppf "  - %s@." f) s.failures
      end)
    subjects;
  let bad = List.length (List.filter (fun s -> s.failures <> []) subjects) in
  Format.fprintf ppf "%d subject(s), %d failing@." (List.length subjects) bad
