(* The topology-zoo conformance battery as a test suite: every corpus
   file under examples/zoo and every seeded generator sample must route,
   certify and respect the existence lower bounds across the full
   registry, and the shipped cycle-break engine must stay within a layer
   of the DFS oracle on each — plus the churn-soak harness invariants
   (quick mode, failure artifacts, determinism). *)

let check = Alcotest.check

let corpus_dir () =
  match Harness.Zoo.find_corpus_dir () with
  | Some dir -> dir
  | None -> Alcotest.fail "examples/zoo corpus not found (test deps missing?)"

let test_corpus_present () =
  let specs = Harness.Zoo.corpus_specs ~dir:(corpus_dir ()) in
  if List.length specs < 4 then
    Alcotest.failf "corpus too small: %s" (String.concat ", " specs);
  check Alcotest.bool "dot files recognized" true
    (List.exists (fun s -> Testutil.contains s "dot:") specs);
  check Alcotest.bool "edge lists recognized" true
    (List.exists (fun s -> Testutil.contains s "edgelist:") specs)

let test_zoo_conformance () =
  let specs =
    Harness.Zoo.corpus_specs ~dir:(corpus_dir ()) @ Harness.Zoo.generator_specs
  in
  let subjects = Harness.Zoo.run ~specs () in
  (match Harness.Zoo.failures subjects with
  | [] -> ()
  | fs -> Alcotest.failf "conformance failures:\n%s" (String.concat "\n" fs));
  check Alcotest.int "every subject checked" (List.length specs) (List.length subjects);
  List.iter
    (fun (s : Harness.Zoo.subject) ->
      (* dfsssp is universal: it must have produced a certified table *)
      match
        List.find_opt (fun (o : Harness.Zoo.outcome) -> o.Harness.Zoo.algorithm = "dfsssp") s.Harness.Zoo.outcomes
      with
      | Some { Harness.Zoo.status = Harness.Zoo.Certified layers; _ } ->
        if layers < s.Harness.Zoo.min_layers_lb then
          Alcotest.failf "%s: dfsssp below lower bound" s.Harness.Zoo.spec
      | _ -> Alcotest.failf "%s: no certified dfsssp outcome" s.Harness.Zoo.spec)
    subjects

(* Engine parity on every subject of the battery: the shipped SCC engine
   certifies with a layer count within +1 of the one-cycle-at-a-time
   DFS oracle, both at the zoo's default budget. *)
let test_zoo_engine_parity () =
  let specs =
    Harness.Zoo.corpus_specs ~dir:(corpus_dir ()) @ Harness.Zoo.generator_specs
  in
  List.iter
    (fun spec ->
      let g =
        match Harness.Topospec.parse spec with
        | Ok t -> t.Harness.Topospec.graph
        | Error e -> Alcotest.failf "%s: %s" spec e
      in
      match (Testutil.dfsssp ~engine:`Scc g, Testutil.dfsssp ~engine:`Dfs g) with
      | Ok scc, Ok dfs ->
        let ls = Routing.Ftable.num_layers scc and ld = Routing.Ftable.num_layers dfs in
        if ls > ld + 1 then Alcotest.failf "%s: scc uses %d layers, dfs oracle %d" spec ls ld;
        (match Analysis.Analyzer.certify scc with
        | Ok _ -> ()
        | Error msg -> Alcotest.failf "%s: scc table rejected: %s" spec msg)
      | Error msg, _ | _, Error msg -> Alcotest.failf "%s: an engine run refused: %s" spec msg)
    specs

(* One build path: on every subject the manager brings up the table the
   registry's dfsssp routes, byte for byte. *)
let test_zoo_manager_matches_registry () =
  let specs =
    Harness.Zoo.corpus_specs ~dir:(corpus_dir ()) @ Harness.Zoo.generator_specs
  in
  let dfsssp = Option.get (Dfsssp.Registry.find "dfsssp") in
  List.iter
    (fun spec ->
      let g =
        match Harness.Topospec.parse spec with
        | Ok t -> t.Harness.Topospec.graph
        | Error e -> Alcotest.failf "%s: %s" spec e
      in
      match (Fabric.Manager.create g, dfsssp.Dfsssp.Registry.run g) with
      | Ok mgr, Ok ft ->
        check Alcotest.string (spec ^ ": bring-up = registry dfsssp") (Routing.Ftable_io.to_string ft)
          (Routing.Ftable_io.to_string (Fabric.Manager.tables mgr));
        Fabric.Manager.shutdown mgr
      | Error msg, _ | _, Error msg -> Alcotest.failf "%s: refused: %s" spec msg)
    specs

let test_zoo_quirky_repairs () =
  let spec = "dot:" ^ Filename.concat (corpus_dir ()) "quirky.dot" in
  match Harness.Zoo.run ~specs:[ spec ] () with
  | [ s ] ->
    check Alcotest.(list string) "quirky certifies despite repairs" [] s.Harness.Zoo.failures;
    check Alcotest.bool "repairs surface in the description" true
      (Testutil.contains s.Harness.Zoo.description "repair")
  | subjects -> Alcotest.failf "expected one subject, got %d" (List.length subjects)

let test_zoo_bad_spec () =
  let subjects = Harness.Zoo.run ~specs:[ "nonsense:1" ] () in
  match Harness.Zoo.failures subjects with
  | [ msg ] -> check Alcotest.bool "carries the parse error" true (Testutil.contains msg "nonsense")
  | other -> Alcotest.failf "expected one failure, got %d" (List.length other)

(* ------------------------------------------------------------------ *)
(* Churn soak                                                           *)
(* ------------------------------------------------------------------ *)

let tmp_artifact_dir () =
  let dir = Filename.temp_file "soak" "" in
  Sys.remove dir;
  dir

let test_soak_quick () =
  let r =
    Harness.Soak.run_one ~artifact_dir:(tmp_artifact_dir ()) ~spec:"torus:3x3" ~seed:5
      ~events:40 ()
  in
  check Alcotest.(list string) "no invariant violations" [] r.Harness.Soak.failures;
  check Alcotest.(option string) "no artifact on success" None r.Harness.Soak.artifact;
  if r.Harness.Soak.swaps = 0 then Alcotest.fail "soak made no epoch swaps";
  if r.Harness.Soak.applied = 0 then Alcotest.fail "soak applied no events"

let test_soak_deterministic () =
  let run () =
    Harness.Soak.run_one ~artifact_dir:(tmp_artifact_dir ()) ~spec:"torus:3x3" ~seed:9
      ~events:30 ()
  in
  let a = run () and b = run () in
  check Alcotest.int "same schedule" a.Harness.Soak.scheduled b.Harness.Soak.scheduled;
  check Alcotest.int "same swaps" a.Harness.Soak.swaps b.Harness.Soak.swaps;
  check Alcotest.int "same fallback mix" a.Harness.Soak.fallbacks b.Harness.Soak.fallbacks

let test_soak_failure_artifact () =
  let dir = tmp_artifact_dir () in
  (* a fabric with no terminals: the manager refuses, and the refusal
     must still leave a reproduction artifact with the seed inside *)
  let r = Harness.Soak.run_one ~artifact_dir:dir ~spec:"ring:5:0" ~seed:42 ~events:10 () in
  (match r.Harness.Soak.failures with
  | [] -> Alcotest.fail "expected a failure"
  | _ -> ());
  match r.Harness.Soak.artifact with
  | None -> Alcotest.fail "failure left no artifact"
  | Some path ->
    check Alcotest.bool "artifact under the requested dir" true (Testutil.contains path dir);
    let content = In_channel.with_open_text path In_channel.input_all in
    (match Obs.Json.of_string content with
    | Error e -> Alcotest.failf "artifact is not JSON: %s" e
    | Ok json ->
      check
        Alcotest.(option int)
        "seed recorded" (Some 42)
        (Option.bind (Obs.Json.member "seed" json) Obs.Json.to_int);
      check
        Alcotest.(option string)
        "spec recorded" (Some "ring:5:0")
        (Option.bind (Obs.Json.member "spec" json) Obs.Json.to_str));
    Sys.remove path;
    Unix.rmdir dir

let () =
  Alcotest.run "zoo"
    [
      ( "conformance",
        [
          Alcotest.test_case "corpus present" `Quick test_corpus_present;
          Alcotest.test_case "full battery" `Slow test_zoo_conformance;
          Alcotest.test_case "quirky repairs" `Quick test_zoo_quirky_repairs;
          Alcotest.test_case "bad spec" `Quick test_zoo_bad_spec;
          Alcotest.test_case "engine parity" `Slow test_zoo_engine_parity;
          Alcotest.test_case "manager bring-up equals the registry" `Slow test_zoo_manager_matches_registry;
        ] );
      ( "soak",
        [
          Alcotest.test_case "quick churn" `Quick test_soak_quick;
          Alcotest.test_case "deterministic" `Quick test_soak_deterministic;
          Alcotest.test_case "failure artifact" `Quick test_soak_failure_artifact;
        ] );
    ]
