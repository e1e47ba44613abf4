(* Tests for the experiment harness: table rendering/CSV, Table I data,
   shared runners, and small instances of every figure experiment. *)

let check = Alcotest.check

let cells row = List.map Testutil.cell_text row

(* ------------------------------------------------------------------ *)
(* Report                                                               *)
(* ------------------------------------------------------------------ *)

let sample_table =
  {
    Harness.Report.title = "Sample";
    columns = [ "name"; "value" ];
    rows = [ [ Harness.Report.Str "x"; Harness.Report.Int 42 ]; [ Harness.Report.Str "y"; Harness.Report.Missing ] ];
    notes = [ "a note" ];
  }

let test_cell_to_string () =
  let cases =
    Harness.Report.
      [
        ("str", Str "abc", "abc");
        ("int", Int 7, "7");
        ("flt", Flt 0.12345, "0.1235");
        ("pct", Pct 0.123, "+12.3%");
        ("pct negative", Pct (-0.05), "-5.0%");
        ("missing", Missing, "-");
        ("time us", Time 12e-6, "12.0us");
        ("time ms", Time 3.4e-3, "3.40ms");
        ("time s", Time 2.5, "2.50s");
      ]
  in
  let t = { sample_table with Harness.Report.columns = [ "cell" ]; rows = List.map (fun (_, c, _) -> [ c ]) cases } in
  let rendered = List.tl (Testutil.lines (Testutil.csv_of t)) in
  List.iter2 (fun (name, _, want) got -> check Alcotest.string name want got) cases rendered;
  (* the test-side rendering the other cases compare against agrees *)
  List.iter (fun (name, c, want) -> check Alcotest.string (name ^ " (cells)") want (Testutil.cell_text c)) cases

let test_render () =
  let text = Testutil.capture_stdout (fun () -> Harness.Report.print sample_table) in
  Alcotest.(check bool) "title" true (Testutil.contains text "Sample");
  Alcotest.(check bool) "header" true (Testutil.contains text "name");
  Alcotest.(check bool) "cell" true (Testutil.contains text "42");
  Alcotest.(check bool) "note" true (Testutil.contains text "note: a note")

let test_csv () =
  let csv = Testutil.csv_of sample_table in
  let lines = String.split_on_char '\n' csv |> List.filter (fun l -> l <> "") in
  check Alcotest.int "line count" 3 (List.length lines);
  check Alcotest.string "header" "name,value" (List.nth lines 0);
  check Alcotest.string "row" "x,42" (List.nth lines 1);
  (* escaping *)
  let tricky =
    { sample_table with Harness.Report.rows = [ [ Harness.Report.Str "a,b"; Harness.Report.Str "q\"uote" ] ] }
  in
  let csv = Testutil.csv_of tricky in
  Alcotest.(check bool) "comma quoted" true (Testutil.contains csv "\"a,b\"");
  Alcotest.(check bool) "quote doubled" true (Testutil.contains csv "\"q\"\"uote\"")

let test_save_csv () =
  let dir = Filename.temp_file "dfsssp" "dir" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let path = Harness.Report.save_csv ~dir sample_table in
  Alcotest.(check bool) "file exists" true (Sys.file_exists path);
  Alcotest.(check bool) "slug name" true (Testutil.contains (Filename.basename path) "sample")

(* ------------------------------------------------------------------ *)
(* Table I                                                              *)
(* ------------------------------------------------------------------ *)

let test_tableone_rows () =
  check Alcotest.int "seven rows" 7 (List.length (Harness.Tableone.rows_up_to max_int));
  check Alcotest.int "rows up to 512" 4 (List.length (Harness.Tableone.rows_up_to 512));
  List.iter
    (fun (r : Harness.Tableone.row) ->
      let xg = Harness.Tableone.xgft_graph r in
      check Alcotest.int
        (Printf.sprintf "xgft %d endpoints" r.Harness.Tableone.endpoints)
        r.Harness.Tableone.endpoints (Graph.num_terminals xg);
      let kg = Harness.Tableone.kautz_graph r in
      check Alcotest.int "kautz endpoints" r.Harness.Tableone.endpoints (Graph.num_terminals kg);
      let tg = Harness.Tableone.tree_graph r in
      check Alcotest.int "tree endpoints" r.Harness.Tableone.endpoints (Graph.num_terminals tg))
    (Harness.Tableone.rows_up_to 256)

let test_tableone_table () =
  let t = Harness.Tableone.table () in
  check Alcotest.int "rows" 7 (List.length t.Harness.Report.rows);
  check Alcotest.int "columns" 7 (List.length t.Harness.Report.columns)

(* ------------------------------------------------------------------ *)
(* Runs                                                                 *)
(* ------------------------------------------------------------------ *)

let small = lazy (Topo_tree.make ~k:4 ~n:2 ())

let test_run_named () =
  let g = Lazy.force small in
  Alcotest.(check bool) "dfsssp runs" true (Result.is_ok (Harness.Runs.run_named "dfsssp" g));
  Alcotest.(check bool) "unknown fails" true (Result.is_error (Harness.Runs.run_named "bogus" g));
  Alcotest.(check bool) "dor refuses without coords" true
    (Result.is_error (Harness.Runs.run_named "dor" g))

let test_cells () =
  let g = Lazy.force small in
  (match Harness.Runs.ebb_cell ~patterns:5 ~seed:1 "dfsssp" g with
  | Harness.Report.Flt v -> Alcotest.(check bool) "ebb in (0,1]" true (v > 0.0 && v <= 1.0)
  | _ -> Alcotest.fail "expected Flt");
  (match Harness.Runs.ebb_cell ~patterns:5 ~seed:1 "dor" g with
  | Harness.Report.Missing -> ()
  | _ -> Alcotest.fail "expected Missing for dor");
  (match Harness.Runs.vl_cell "dfsssp" g with
  | Harness.Report.Int 1 -> ()
  | c -> Alcotest.failf "expected 1 layer on a fat tree, got %s" (Testutil.cell_text c));
  match Harness.Runs.runtime_cell "minhop" g with
  | Harness.Report.Time t -> Alcotest.(check bool) "positive time" true (t >= 0.0)
  | _ -> Alcotest.fail "expected Time"

let test_timed () =
  let dt, v = Harness.Runs.timed (fun () -> 41 + 1) in
  check Alcotest.int "value" 42 v;
  Alcotest.(check bool) "non-negative" true (dt >= 0.0)

let test_sample_ranks () =
  let g = Lazy.force small in
  let rng = Rng.create 1 in
  let ranks = Harness.Runs.sample_ranks ~rng ~count:5 g in
  check Alcotest.int "count" 5 (Array.length ranks);
  let distinct = List.sort_uniq compare (Array.to_list ranks) in
  check Alcotest.int "distinct" 5 (List.length distinct);
  let all = Harness.Runs.sample_ranks ~rng ~count:10_000 g in
  check Alcotest.int "capped at fabric size" (Graph.num_terminals g) (Array.length all)

(* ------------------------------------------------------------------ *)
(* Experiments (tiny instances)                                         *)
(* ------------------------------------------------------------------ *)

let algorithms_count = List.length Harness.Runs.paper_algorithms

let well_formed ?(expect_dfsssp = true) (t : Harness.Report.table) min_rows =
  Alcotest.(check bool)
    (t.Harness.Report.title ^ " rows")
    true
    (List.length t.Harness.Report.rows >= min_rows);
  List.iter
    (fun row ->
      check Alcotest.int (t.Harness.Report.title ^ " row width") (List.length t.Harness.Report.columns)
        (List.length row);
      if expect_dfsssp then begin
        (* the dfsssp column must never be missing: it routes everything *)
        match List.rev (cells row) with
        | last :: _ -> Alcotest.(check bool) "dfsssp cell present" true (last <> "-")
        | [] -> ()
      end)
    t.Harness.Report.rows

let test_fig4_small () =
  let t = Harness.Fig_bandwidth.fig4 ~scale:16 ~patterns:4 () in
  check Alcotest.int "six systems" 6 (List.length t.Harness.Report.rows);
  check Alcotest.int "columns" (1 + algorithms_count) (List.length t.Harness.Report.columns);
  well_formed t 6

let test_fig5_small () =
  let t = Harness.Fig_bandwidth.fig5 ~max_endpoints:128 ~patterns:4 () in
  check Alcotest.int "two sizes" 2 (List.length t.Harness.Report.rows);
  well_formed t 2

let test_fig6_small () =
  let t = Harness.Fig_bandwidth.fig6 ~max_endpoints:128 ~patterns:4 () in
  well_formed t 2

let test_fig7_small () =
  let t = Harness.Fig_runtime.fig7 ~max_endpoints:128 () in
  well_formed t 2

let test_fig8_small () =
  let t = Harness.Fig_runtime.fig8 ~scale:16 () in
  well_formed t 6

let test_fig9_small () =
  let t =
    Harness.Fig_vls.fig9 ~switches:8 ~switch_radix:8 ~terminals_per_switch:2 ~links:[ 10; 14 ] ~trials:2
      ()
  in
  check Alcotest.int "two rows" 2 (List.length t.Harness.Report.rows);
  check Alcotest.int "seven columns" 7 (List.length t.Harness.Report.columns);
  (* VL cells are small positive numbers *)
  List.iter
    (fun row ->
      match row with
      | _links :: rest ->
        List.iter
          (fun c ->
            match c with
            | Harness.Report.Int v -> Alcotest.(check bool) "vl range" true (v >= 1 && v <= 16)
            | Harness.Report.Flt v -> Alcotest.(check bool) "avg range" true (v >= 1.0 && v <= 16.0)
            | _ -> Alcotest.fail "unexpected cell")
          rest
      | [] -> Alcotest.fail "empty row")
    t.Harness.Report.rows

let test_fig10_small () =
  let t = Harness.Fig_vls.fig10 ~scale:16 () in
  check Alcotest.int "six systems" 6 (List.length t.Harness.Report.rows)

let test_heuristics_small () =
  let t =
    Harness.Fig_vls.heuristics ~switches:8 ~switch_radix:8 ~terminals_per_switch:2 ~inter_links:12
      ~trials:2 ()
  in
  check Alcotest.int "three heuristics" 3 (List.length t.Harness.Report.rows)

(* Fig. 2 through its entry in the experiment table: SSSP keeps the
   ring's cyclic CDG in one layer and wedges; DFSSSP splits it over two
   and drains. *)
let test_fig2 () =
  let e = List.find (fun (e : Harness.Experiments.t) -> e.Harness.Experiments.id = "fig2") Harness.Experiments.all in
  let t =
    e.Harness.Experiments.run
      { Harness.Experiments.scale = 4; patterns = 1; max_endpoints = 64; trials = 1; domains = None }
  in
  match List.map cells t.Harness.Report.rows with
  | [ [ _; sssp_layers; sssp ]; [ _; dfsssp_layers; dfsssp ] ] ->
    check Alcotest.string "SSSP layers" "1" sssp_layers;
    Alcotest.(check bool) ("SSSP wedges: " ^ sssp) true (Testutil.contains sssp "DEADLOCK");
    check Alcotest.string "DFSSSP layers" "2" dfsssp_layers;
    Alcotest.(check bool) ("DFSSSP drains: " ^ dfsssp) true (Testutil.contains dfsssp "delivered 320 packets")
  | _ -> Alcotest.fail "unexpected shape"

let test_fig12_small () =
  let t = Harness.Fig_deimos.fig12 ~scale:16 ~cores:[ 8; 16 ] ~patterns:4 () in
  check Alcotest.int "two rows" 2 (List.length t.Harness.Report.rows);
  well_formed t 2

let test_fig12_dynamic_small () =
  let t = Harness.Fig_deimos.fig12_dynamic ~scale:16 ~cores:[ 8 ] ~matchings:1 () in
  check Alcotest.int "one row" 1 (List.length t.Harness.Report.rows);
  match t.Harness.Report.rows with
  | [ row ] ->
    List.iteri
      (fun i cell ->
        if i > 0 then
          match cell with
          | Harness.Report.Flt v -> Alcotest.(check bool) "bandwidth positive" true (v > 0.0)
          | _ -> Alcotest.fail "expected bandwidth")
      row
  | _ -> Alcotest.fail "unexpected shape"

let test_fig13_monotone () =
  let t = Harness.Fig_deimos.fig13 ~scale:16 ~cores:8 ~float_counts:[ 4; 64; 1024 ] () in
  check Alcotest.int "three rows" 3 (List.length t.Harness.Report.rows);
  (* completion time grows with message size for every algorithm *)
  let times col =
    List.map
      (fun row ->
        match List.nth row col with
        | Harness.Report.Time v -> v
        | c -> Alcotest.failf "expected Time, got %s" (Testutil.cell_text c))
      t.Harness.Report.rows
  in
  List.iteri
    (fun i _ ->
      if i > 0 then begin
        let series = times i in
        let rec ascending = function
          | a :: b :: rest -> a <= b && ascending (b :: rest)
          | _ -> true
        in
        Alcotest.(check bool) "ascending in size" true (ascending series)
      end)
    t.Harness.Report.columns

let test_nas_figures_small () =
  List.iter
    (fun fig ->
      let t : Harness.Report.table = fig () in
      Alcotest.(check bool) (t.Harness.Report.title ^ " nonempty") true (t.Harness.Report.rows <> []))
    [
      (fun () -> Result.get_ok (Harness.Fig_deimos.nas_figure ~kernel:"BT" ~scale:16 ~cores:[ 16; 32 ] ()));
      (fun () -> Result.get_ok (Harness.Fig_deimos.nas_figure ~kernel:"SP" ~scale:16 ~cores:[ 16; 32 ] ()));
      (fun () -> Result.get_ok (Harness.Fig_deimos.nas_figure ~kernel:"FT" ~scale:16 ~cores:[ 16; 32 ] ()));
    ]

let test_nas_figure_unknown_kernel () =
  match Harness.Fig_deimos.nas_figure ~kernel:"ZZ" () with
  | Error msg -> Alcotest.(check bool) "explains" true (Testutil.contains msg "unknown NAS kernel")
  | Ok _ -> Alcotest.fail "unknown kernel accepted"

let test_table2_small () =
  let t = Harness.Fig_deimos.table2 ~scale:16 ~cores:32 () in
  check Alcotest.int "six kernels" 6 (List.length t.Harness.Report.rows);
  List.iter
    (fun row ->
      match row with
      | [ Harness.Report.Str kernel; _; Harness.Report.Flt base; Harness.Report.Flt ours; Harness.Report.Pct imp ]
        ->
        Alcotest.(check bool) (kernel ^ " base positive") true (base > 0.0);
        Alcotest.(check bool) (kernel ^ " ours positive") true (ours > 0.0);
        check (Alcotest.float 1e-6) (kernel ^ " improvement consistent") ((ours -. base) /. base) imp
      | _ -> Alcotest.fail "unexpected row shape")
    t.Harness.Report.rows

(* ------------------------------------------------------------------ *)
(* Topospec                                                             *)
(* ------------------------------------------------------------------ *)

let spec_ok s =
  match Harness.Topospec.parse s with
  | Ok t -> t
  | Error e -> Alcotest.failf "parse %S: %s" s e

let test_topospec_forms () =
  let cases =
    [
      ("ring:5", 5, 5);
      ("ring:5:2", 5, 10);
      ("torus:3x3", 9, 9);
      ("torus:3x3:0", 9, 0);
      ("mesh:2x2x2:1", 8, 8);
      ("hypercube:3", 8, 8);
      ("tree:4,2", 8, 16);
      ("tree:4,2:10", 8, 10);
      ("kautz:2,2:12", 6, 12);
      ("dragonfly:4,2,2", 36, 72);
      ("hyperx:3x3:2", 9, 18);
      ("random:6,8,12,10:3", 6, 12);
      ("xgft:4,4/2,2:32", 28, 32);
    ]
  in
  List.iter
    (fun (spec, switches, terminals) ->
      let t = spec_ok spec in
      check Alcotest.int (spec ^ " switches") switches (Graph.num_switches t.Harness.Topospec.graph);
      check Alcotest.int (spec ^ " terminals") terminals (Graph.num_terminals t.Harness.Topospec.graph))
    cases

let test_topospec_coords () =
  Alcotest.(check bool) "torus has coords" true ((spec_ok "torus:4x4").Harness.Topospec.coords <> None);
  Alcotest.(check bool) "hypercube has coords" true
    ((spec_ok "hypercube:3").Harness.Topospec.coords <> None);
  Alcotest.(check bool) "ring has none" true ((spec_ok "ring:5").Harness.Topospec.coords = None)

let test_topospec_cluster_and_errors () =
  let t = spec_ok "cluster:odin:4" in
  check Alcotest.int "scaled odin" 32 (Graph.num_terminals t.Harness.Topospec.graph);
  List.iter
    (fun bad ->
      Alcotest.(check bool) (bad ^ " rejected") true (Result.is_error (Harness.Topospec.parse bad)))
    [
      "";
      "nonesuch:3";
      "ring";
      "ring:x";
      "tree:4";
      "xgft:4,4";
      "cluster:unknown";
      "random:1,2,3";
      "dragonfly:4,2";
      "file:/does/not/exist";
      "torus:0x3";
      "cluster:chic:0";
      "cluster:chic:-2";
      "kautz:2,0";
      "kautz:2,-1";
    ];
  (match Harness.Topospec.parse "kautz:2,0" with
  | Error msg -> Alcotest.(check bool) "names n" true (Testutil.contains msg "kautz: n 0")
  | Ok _ -> Alcotest.fail "kautz word length 0 accepted");
  (* sizes that are powers of the spec's parameters are computed without
     overflow and refused over the node bound, which the refusal names *)
  List.iter
    (fun spec ->
      match Harness.Topospec.parse spec with
      | Error msg ->
        Alcotest.(check bool) (spec ^ " names the node bound") true
          (Testutil.contains msg (string_of_int Builder.max_nodes))
      | Ok t -> Alcotest.failf "%s accepted with %d nodes" spec (Graph.num_nodes t.Harness.Topospec.graph))
    [
      "hypercube:63";
      "hypercube:62";
      "tree:2,62";
      "dragonfly:100000,1,1";
      "ring:300000000";
      "random:2000000,4,10,10";
      "jellyfish:2000000,10,5";
      "xpander:3,1000000";
    ];
  match Harness.Topospec.parse "cluster:chic:0" with
  | Error msg -> Alcotest.(check bool) "names the scale token" true (Testutil.contains msg "\"0\"")
  | Ok _ -> Alcotest.fail "zero cluster scale accepted"

let test_topospec_file_roundtrip () =
  let g = Topo_ring.make ~switches:4 ~terminals_per_switch:1 in
  let path = Filename.temp_file "topo" ".txt" in
  Testutil.write_file path (Serial.to_string g);
  let t = spec_ok ("file:" ^ path) in
  check Alcotest.int "nodes" (Graph.num_nodes g) (Graph.num_nodes t.Harness.Topospec.graph);
  Sys.remove path

(* ------------------------------------------------------------------ *)
(* Ablations                                                            *)
(* ------------------------------------------------------------------ *)

let test_ablation_initial_weight () =
  let t = Harness.Ablations.sssp_initial_weight () in
  (* each fabric contributes a paper row and a naive row *)
  check Alcotest.int "rows" 8 (List.length t.Harness.Report.rows);
  (* the paper weight is always minimal; the naive weight is not, on at
     least one fabric *)
  let minimal_of row = List.nth (cells row) 2 in
  let paper_rows, naive_rows =
    List.partition (fun row -> List.nth (cells row) 1 = "|V|^2 (paper)") t.Harness.Report.rows
  in
  List.iter (fun row -> check Alcotest.string "paper minimal" "yes" (minimal_of row)) paper_rows;
  Alcotest.(check bool) "naive detours somewhere" true
    (List.exists (fun row -> minimal_of row = "NO") naive_rows)

let test_ablation_hardened () =
  let t = Harness.Ablations.hardened_routings ~patterns:5 () in
  check Alcotest.int "rows" 6 (List.length t.Harness.Report.rows);
  List.iter
    (fun row ->
      let name = List.nth (cells row) 0 and df = List.nth (cells row) 1 in
      if String.length name > 1 && String.sub name 0 2 = "df" then
        check Alcotest.string (name ^ " hardened") "yes" df)
    t.Harness.Report.rows

let test_ablation_dragonfly () =
  let t = Harness.Ablations.dragonfly ~patterns:5 () in
  check Alcotest.int "all algorithms listed" 7 (List.length t.Harness.Report.rows)

let test_ablation_random_graphs () =
  let t = Harness.Ablations.random_graphs () in
  check Alcotest.int "two jellyfish + two xpander samples" 4 (List.length t.Harness.Report.rows);
  List.iter
    (fun row ->
      let cs = cells row in
      check Alcotest.string (List.nth cs 0 ^ " feasible") "yes" (List.nth cs 3);
      check Alcotest.string (List.nth cs 0 ^ " certified") "certified" (List.nth cs 8);
      (* the lower bound never exceeds what dfsssp actually pays *)
      match (List.nth row 4, List.nth row 7) with
      | Harness.Report.Int lb, Harness.Report.Int vls ->
        Alcotest.(check bool) "lb <= dfsssp VLs" true (lb <= vls)
      | _ -> Alcotest.fail "lower bound or dfsssp VLs missing")
    t.Harness.Report.rows;
  Alcotest.(check bool) "jellyfish sampled" true
    (List.exists (fun row -> Testutil.contains (List.nth (cells row) 0) "jellyfish") t.Harness.Report.rows);
  Alcotest.(check bool) "xpander sampled" true
    (List.exists (fun row -> Testutil.contains (List.nth (cells row) 0) "xpander") t.Harness.Report.rows)

let test_ablation_quality_and_budget () =
  let q = Harness.Ablations.routing_quality ~scale:16 () in
  check Alcotest.int "seven algorithms" 7 (List.length q.Harness.Report.rows);
  let b = Harness.Ablations.vl_budget ~budgets:[ 1; 8 ] () in
  (match b.Harness.Report.rows with
  | [ low; high ] ->
    check Alcotest.string "low budget fails" "failed" (List.nth (cells low) 1);
    check Alcotest.string "high budget ok" "ok" (List.nth (cells high) 1)
  | _ -> Alcotest.fail "unexpected shape");
  let m = Harness.Ablations.multipath ~matchings:2 () in
  check Alcotest.int "three plane counts" 3 (List.length m.Harness.Report.rows)

let test_ablation_complexity () =
  let t = Harness.Ablations.complexity ~max_endpoints:128 () in
  check Alcotest.int "two sizes" 2 (List.length t.Harness.Report.rows);
  (* CDG edge counts and path counts grow with size *)
  let col i row = match List.nth row i with Harness.Report.Int v -> v | _ -> Alcotest.fail "int" in
  (match t.Harness.Report.rows with
  | [ small; big ] ->
    Alcotest.(check bool) "edges grow" true (col 2 big > col 2 small);
    Alcotest.(check bool) "paths grow" true (col 3 big > col 3 small);
    (* a fat tree needs one layer and breaks no cycles *)
    check Alcotest.int "one layer" 1 (col 4 small);
    check Alcotest.int "no cycles" 0 (col 5 small)
  | _ -> Alcotest.fail "unexpected shape")

let test_ablation_balancing () =
  let t = Harness.Ablations.balancing () in
  check Alcotest.int "two rows" 2 (List.length t.Harness.Report.rows);
  match t.Harness.Report.rows with
  | [ plain; balanced ] ->
    let drain row = match List.nth row 2 with Harness.Report.Int v -> v | _ -> Alcotest.fail "drain time" in
    Alcotest.(check bool) "balancing not slower" true (drain balanced <= drain plain)
  | _ -> Alcotest.fail "unexpected shape"

let test_growth_sweep () =
  let t = Harness.Growth.sweep ~patterns:4 () in
  check Alcotest.int "four stages" 4 (List.length t.Harness.Report.rows);
  (match t.Harness.Report.rows with
  | first :: rest ->
    (* clean tree: ftree ok; every later stage: refused *)
    check Alcotest.string "clean tree ftree ok" "ok" (List.nth (cells first) 2);
    List.iter
      (fun row -> check Alcotest.string "grown fabric refused" "refused" (List.nth (cells row) 2))
      rest
  | [] -> Alcotest.fail "no rows");
  (* stages are all valid connected fabrics *)
  List.iter
    (fun (st : Harness.Growth.stage) ->
      Alcotest.(check bool) (st.Harness.Growth.label ^ " valid") true
        (Result.is_ok (Graph.validate st.Harness.Growth.graph) && Graph.connected st.Harness.Growth.graph))
    (Harness.Growth.stages ())

let test_planner () =
  let g = fst (Topo_torus.torus ~dims:[| 3; 3 |] ~terminals_per_switch:2) in
  match Harness.Planner.suggest ~candidates:3 ~patterns:5 ~algorithm:"dfsssp" g with
  | Error e -> Alcotest.fail e
  | Ok suggestions ->
    Alcotest.(check bool) "has suggestions" true (List.length suggestions > 0);
    Alcotest.(check bool) "at most requested" true (List.length suggestions <= 3);
    (* sorted by gain, consistent arithmetic *)
    let rec sorted = function
      | (a : Harness.Planner.suggestion) :: (b :: _ as tl) ->
        a.Harness.Planner.gain >= b.Harness.Planner.gain && sorted tl
      | _ -> true
    in
    Alcotest.(check bool) "sorted by gain" true (sorted suggestions);
    List.iter
      (fun (s : Harness.Planner.suggestion) ->
        Alcotest.(check bool) "gain arithmetic" true
          (Float.abs (s.Harness.Planner.gain -. ((s.Harness.Planner.ebb_after -. s.Harness.Planner.ebb_before) /. s.Harness.Planner.ebb_before)) < 1e-9))
      suggestions

let test_fault_tolerance () =
  List.iter
    (fun fabric ->
      let t = Harness.Fault_tolerance.sweep ~fabric ~removals:[ 0; 2 ] ~patterns:4 () in
      check Alcotest.int "two rows" 2 (List.length t.Harness.Report.rows);
      List.iter
        (fun row ->
          (* the dfsssp eBB column must always be there *)
          match List.nth row 4 with
          | Harness.Report.Flt v -> Alcotest.(check bool) "dfsssp routes" true (v > 0.0)
          | _ -> Alcotest.fail "dfsssp missing")
        t.Harness.Report.rows)
    [ Harness.Fault_tolerance.Torus; Harness.Fault_tolerance.Fat_tree ]

let () =
  Alcotest.run "harness"
    [
      ( "report",
        [
          Alcotest.test_case "cell_to_string" `Quick test_cell_to_string;
          Alcotest.test_case "render" `Quick test_render;
          Alcotest.test_case "csv" `Quick test_csv;
          Alcotest.test_case "save csv" `Quick test_save_csv;
        ] );
      ( "tableone",
        [
          Alcotest.test_case "rows" `Quick test_tableone_rows;
          Alcotest.test_case "table" `Quick test_tableone_table;
        ] );
      ( "runs",
        [
          Alcotest.test_case "run_named" `Quick test_run_named;
          Alcotest.test_case "cells" `Quick test_cells;
          Alcotest.test_case "timed" `Quick test_timed;
          Alcotest.test_case "sample ranks" `Quick test_sample_ranks;
        ] );
      ( "topospec",
        [
          Alcotest.test_case "forms" `Quick test_topospec_forms;
          Alcotest.test_case "coords" `Quick test_topospec_coords;
          Alcotest.test_case "clusters and errors" `Quick test_topospec_cluster_and_errors;
          Alcotest.test_case "file roundtrip" `Quick test_topospec_file_roundtrip;
        ] );
      ( "ablations",
        [
          Alcotest.test_case "initial weight" `Quick test_ablation_initial_weight;
          Alcotest.test_case "hardened routings" `Quick test_ablation_hardened;
          Alcotest.test_case "dragonfly" `Quick test_ablation_dragonfly;
          Alcotest.test_case "random graphs" `Quick test_ablation_random_graphs;
          Alcotest.test_case "balancing" `Quick test_ablation_balancing;
          Alcotest.test_case "quality, budget, multipath" `Slow test_ablation_quality_and_budget;
          Alcotest.test_case "complexity" `Quick test_ablation_complexity;
        ] );
      ( "fault-tolerance",
        [ Alcotest.test_case "sweeps" `Quick test_fault_tolerance ] );
      ( "growth-and-planning",
        [
          Alcotest.test_case "growth sweep" `Slow test_growth_sweep;
          Alcotest.test_case "planner" `Quick test_planner;
        ] );
      ( "experiments",
        [
          Alcotest.test_case "fig2" `Quick test_fig2;
          Alcotest.test_case "fig4" `Slow test_fig4_small;
          Alcotest.test_case "fig5" `Quick test_fig5_small;
          Alcotest.test_case "fig6" `Quick test_fig6_small;
          Alcotest.test_case "fig7" `Quick test_fig7_small;
          Alcotest.test_case "fig8" `Slow test_fig8_small;
          Alcotest.test_case "fig9" `Quick test_fig9_small;
          Alcotest.test_case "fig10" `Slow test_fig10_small;
          Alcotest.test_case "heuristics" `Quick test_heuristics_small;
          Alcotest.test_case "fig12" `Quick test_fig12_small;
          Alcotest.test_case "fig12 dynamic" `Quick test_fig12_dynamic_small;
          Alcotest.test_case "fig13 monotone" `Quick test_fig13_monotone;
          Alcotest.test_case "nas figures" `Quick test_nas_figures_small;
          Alcotest.test_case "nas unknown kernel" `Quick test_nas_figure_unknown_kernel;
          Alcotest.test_case "table2" `Quick test_table2_small;
        ] );
    ]
