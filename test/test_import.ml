(* Tests for the topology importer (DOT subset + edge lists), the
   random-graph generators behind the zoo, and the Topospec wiring:
   round-trip properties, the malformed-input rejection corpus, lenient
   repairs, serialization interop, and unknown-kind suggestions. *)

let check = Alcotest.check

let ok_exn = function
  | Ok v -> v
  | Error msg -> Alcotest.failf "unexpected import error: %s" msg

(* Name-based canonical form: node kinds plus the unordered cable
   multiset. Insensitive to node-id permutations and to the orientation
   in which each cable was declared (Serial.to_string preserves both, so
   it cannot compare graphs across an import round trip). *)
let canonical g =
  let name i = (Graph.node g i).Node.name in
  let lines = ref [] in
  Array.iter
    (fun (n : Node.t) ->
      let tag = if Node.is_switch n then "sw" else "term" in
      lines := Printf.sprintf "%s %s" tag n.Node.name :: !lines)
    (Graph.nodes g);
  Array.iter
    (fun (c : Channel.t) ->
      match Graph.reverse_channel g c.Channel.id with
      | Some r when r < c.Channel.id -> ()
      | _ ->
        let a = name c.Channel.src and b = name c.Channel.dst in
        let a, b = if a <= b then (a, b) else (b, a) in
        lines := Printf.sprintf "cable %s %s" a b :: !lines)
    (Graph.channels g);
  String.concat "\n" (List.sort compare !lines)

let sample_graph seed =
  let rng = Rng.create seed in
  Testutil.random_graph ~switches:(6 + (seed mod 5)) ~inter_links:(12 + (seed mod 6)) rng

(* ------------------------------------------------------------------ *)
(* Round trips                                                          *)
(* ------------------------------------------------------------------ *)

let test_dot_roundtrip_qcheck =
  Testutil.qtest ~count:40 "write_dot/parse_dot round-trips strict" Testutil.seed_gen (fun seed ->
      let g = sample_graph seed in
      let text = Topo_import.write_dot g in
      let imported = ok_exn (Testutil.parse_dot ~mode:Topo_import.Strict text) in
      imported.Topo_import.diags = []
      && canonical imported.Topo_import.graph = canonical g)

let test_edge_list_roundtrip_qcheck =
  Testutil.qtest ~count:40 "write_edge_list/parse_edge_list round-trips the switch level"
    Testutil.seed_gen (fun seed ->
      let g = sample_graph seed in
      let text = Testutil.write_edge_list g in
      let imported =
        ok_exn
          (Testutil.parse_edge_list ~mode:Topo_import.Strict ~terminals_per_switch:0 text)
      in
      Testutil.write_edge_list imported.Topo_import.graph = text)

let test_dot_mult_and_terminals () =
  let text =
    "graph g {\n  h0 [kind=terminal];\n  h1 [kind=terminal];\n  a -- b [mult=2];\n  b -- c;\n  c -- a;\n  h0 -- a;\n  h1 -- c;\n}\n"
  in
  let imported = ok_exn (Testutil.parse_dot ~mode:Topo_import.Strict text) in
  let g = imported.Topo_import.graph in
  check Alcotest.int "switches" 3 (Graph.num_switches g);
  check Alcotest.int "declared terminals kept" 2 (Graph.num_terminals g);
  (* 4 trunk cables (one doubled) + 2 terminal cables = 12 channels *)
  check Alcotest.int "channels" 12 (Graph.num_channels g);
  check Alcotest.(result unit string) "valid" (Ok ()) (Graph.validate g)

let test_digraph_pairing () =
  let text = "digraph g {\n  a -> b; b -> a;\n  b -> c; c -> b;\n  c -> a; a -> c;\n}\n" in
  let imported = ok_exn (Testutil.parse_dot ~mode:Topo_import.Strict text) in
  let g = imported.Topo_import.graph in
  check Alcotest.int "three cables plus terminals" (3 * 2 + 6) (Graph.num_channels g);
  check Alcotest.int "synthetic terminals" 3 (Graph.num_terminals g)

let test_synthetic_terminals_only_when_none_declared () =
  let with_decl = "graph g {\n  t [kind=terminal];\n  a -- b;\n  t -- a;\n}\n" in
  let imported = ok_exn (Testutil.parse_dot with_decl) in
  check Alcotest.int "no synthetic next to declared" 1
    (Graph.num_terminals imported.Topo_import.graph);
  let bare = "graph g { a -- b; }" in
  let imported = ok_exn (Testutil.parse_dot ~terminals_per_switch:2 bare) in
  check Alcotest.int "two synthetic per switch" 4 (Graph.num_terminals imported.Topo_import.graph)

(* ------------------------------------------------------------------ *)
(* Malformed-input rejection corpus                                     *)
(* ------------------------------------------------------------------ *)

let dot_strict text = Testutil.parse_dot ~mode:Topo_import.Strict text

let edge_strict text = Testutil.parse_edge_list ~mode:Topo_import.Strict text

let rejection_corpus =
  [
    ("self loop", dot_strict, "graph g { a -- a; a -- b; }", "self loop on a");
    ("duplicate edge", dot_strict, "graph g { a -- b; a -- b; }", "duplicate edge a -- b (first at line 1)");
    ("disconnected", dot_strict, "graph g { a -- b; c -- d; }", "disconnected: 2 components");
    ("truncated", dot_strict, "graph g { a -- b;", "unexpected end of input (missing '}')");
    ("trailing input", dot_strict, "graph g { a -- b; } x", "trailing input after '}'");
    ("subgraph", dot_strict, "graph g { subgraph s { a -- b; } }", "subgraph is not supported");
    ("stray char", dot_strict, "graph g { a -- b; @ }", "unexpected character '@'");
    ("unterminated string", dot_strict, "graph g { \"a -- b; }", "unterminated string");
    ("unterminated comment", dot_strict, "graph g { /* a -- b; }", "unterminated comment");
    ("op mismatch", dot_strict, "graph g { a -> b; }", "edge operator in a graph (use --)");
    ( "unpaired arc",
      dot_strict,
      "digraph g { a -> b; b -> a; a -> c; c -> b; b -> c; }",
      "unpaired directed edge between a and c (1 forward, 0 reverse)" );
    ("bad mult attr", dot_strict, "graph g { a -- b [mult=zero]; }", "bad mult attribute \"zero\"");
    ("bad multiplicity", edge_strict, "a b\nb c two\n", "line 2: bad multiplicity \"two\"");
    ( "multiplicity over the limit",
      edge_strict,
      "a b\nb c 1000000000\n",
      "line 2: multiplicity 1000000000 exceeds the limit of 255" );
    ( "mult attr over the limit",
      dot_strict,
      "graph g {\n  a -- b;\n  b -- c [mult=256];\n}",
      "line 3: mult attribute 256 exceeds the limit of 255" );
    ("arity", edge_strict, "a b\nlonely\n", "want <a> <b> [mult]");
    ("empty input", edge_strict, "# nothing here\n", "no nodes in input");
  ]

let test_rejections () =
  List.iter
    (fun (name, parse, text, needle) ->
      match parse text with
      | Ok _ -> Alcotest.failf "%s: accepted malformed input" name
      | Error msg ->
        if not (Testutil.contains msg needle) then
          Alcotest.failf "%s: error %S does not mention %S" name msg needle)
    rejection_corpus

let test_lenient_repairs () =
  let text =
    "graph g {\n\
    \  a -- a;\n\
    \  a -- b;\n\
    \  a -- b;\n\
    \  b -- c;\n\
    \  c -- a;\n\
    \  x -- y;\n\
     }\n"
  in
  let imported = ok_exn (Testutil.parse_dot ~mode:Topo_import.Lenient text) in
  check Alcotest.int "three repairs" 3 (List.length imported.Topo_import.diags);
  check Alcotest.int "island dropped" 2 imported.Topo_import.dropped_nodes;
  let g = imported.Topo_import.graph in
  check Alcotest.int "largest component kept" 3 (Graph.num_switches g);
  let messages = List.map (fun (d : Topo_import.diag) -> d.Topo_import.message) imported.Topo_import.diags in
  List.iter
    (fun needle ->
      if not (List.exists (fun m -> Testutil.contains m needle) messages) then
        Alcotest.failf "no repair mentions %S in: %s" needle (String.concat " | " messages))
    [ "self loop"; "duplicate edge"; "largest component" ];
  (* line-anchored repairs carry their source line *)
  List.iter
    (fun (d : Topo_import.diag) ->
      if Testutil.contains d.Topo_import.message "self loop" && d.Topo_import.line <> 2 then
        Alcotest.failf "self loop diag at line %d" d.Topo_import.line)
    imported.Topo_import.diags

let test_sniff () =
  (* [load] picks the format from the extension, else from the first
     word; each file below parses under the format picked and would not
     parse (or would parse differently) under the other *)
  let switches ?suffix text =
    Result.map (fun i -> Graph.num_switches i.Topo_import.graph) (Testutil.import ?suffix text)
  in
  check Alcotest.bool "dot by extension" true (Result.is_error (switches ~suffix:".dot" "a b\n"));
  check Alcotest.(result int string) "edges by extension" (Ok 2) (switches ~suffix:".edges" "graph {}");
  check Alcotest.(result int string) "dot by content" (Ok 2) (switches "// c\ndigraph g { a -> b; b -> a }");
  check Alcotest.(result int string) "edge list by content" (Ok 2) (switches "a b\n")

(* ------------------------------------------------------------------ *)
(* Serial interop (imported graphs survive serialize/deserialize)       *)
(* ------------------------------------------------------------------ *)

let test_serial_interop_qcheck =
  Testutil.qtest ~count:25 "imported graphs survive Serial round-trips with identical CDG builds"
    Testutil.seed_gen (fun seed ->
      let g = sample_graph seed in
      let imported = ok_exn (Testutil.parse_dot (Topo_import.write_dot g)) in
      let g1 = imported.Topo_import.graph in
      let g2 = Result.get_ok (Serial.of_string (Serial.to_string g1)) in
      (* canonical form is stable across the round trip *)
      canonical g1 = canonical g2
      &&
      (* and the serialized twin routes to an identical CSR CDG *)
      let route g =
        match Harness.Runs.run_named "dfsssp" g with
        | Ok ft -> ft
        | Error msg -> Alcotest.failf "dfsssp refused: %s" msg
      in
      let cdg_edges ft =
        let store = Result.get_ok (Routing.Ftable.to_store ft) in
        Deadlock.Cdg.num_edges (Deadlock.Cdg.of_store store)
      in
      let f1 = route g1 and f2 = route g2 in
      Routing.Ftable.num_layers f1 = Routing.Ftable.num_layers f2
      && cdg_edges f1 = cdg_edges f2)

(* ------------------------------------------------------------------ *)
(* Generators                                                           *)
(* ------------------------------------------------------------------ *)

let regular_net_degree g expected =
  Array.for_all
    (fun sw -> Graph.degree g sw >= expected)
    (Graph.switches g)

let test_jellyfish_qcheck =
  Testutil.qtest ~count:25 "jellyfish: connected, valid, deterministic" Testutil.seed_gen
    (fun seed ->
      let make () =
        Topo_jellyfish.make ~switches:(8 + (seed mod 8)) ~ports:6 ~net_ports:3
          ~rng:(Rng.create seed)
      in
      let g = make () in
      Graph.connected g
      && Graph.validate g = Ok ()
      && Graph.num_terminals g = 3 * Graph.num_switches g
      && canonical (make ()) = canonical g)

let test_xpander_qcheck =
  Testutil.qtest ~count:25 "xpander: connected, valid, regular, deterministic" Testutil.seed_gen
    (fun seed ->
      let d = 3 + (seed mod 2) and lift = 3 + (seed mod 3) in
      let make () = Topo_xpander.make ~net_degree:d ~lift ~rng:(Rng.create seed) () in
      let g = make () in
      Graph.connected g
      && Graph.validate g = Ok ()
      && Graph.num_switches g = (d + 1) * lift
      && regular_net_degree g d
      && canonical (make ()) = canonical g)

let test_generator_invalid_args () =
  Alcotest.check_raises "jellyfish net_ports > ports"
    (Invalid_argument "Topo_jellyfish.make: net_ports > ports") (fun () ->
      ignore (Topo_jellyfish.make ~switches:8 ~ports:3 ~net_ports:4 ~rng:(Rng.create 1)));
  Alcotest.check_raises "xpander degree too small"
    (Invalid_argument "Topo_xpander.make: net_degree < 2") (fun () ->
      ignore (Topo_xpander.make ~net_degree:1 ~lift:3 ~rng:(Rng.create 1) ()))

(* ------------------------------------------------------------------ *)
(* Topospec wiring                                                      *)
(* ------------------------------------------------------------------ *)

let spec_error spec =
  match Harness.Topospec.parse spec with
  | Ok _ -> Alcotest.failf "spec %S unexpectedly parsed" spec
  | Error msg -> msg

let test_topospec_suggestions () =
  let msg = spec_error "trous:4x4" in
  check Alcotest.bool "offending token" true (Testutil.contains msg "\"trous\"");
  check Alcotest.bool "suggestion" true (Testutil.contains msg "did you mean \"torus\"?");
  check Alcotest.bool "known kinds listed" true (Testutil.contains msg "jellyfish");
  let msg = spec_error "jellyfih:10,6,3" in
  check Alcotest.bool "jellyfish suggestion" true
    (Testutil.contains msg "did you mean \"jellyfish\"?");
  (* nothing remotely close: no suggestion offered *)
  let msg = spec_error "zzzzzzzzzzzz:1" in
  check Alcotest.bool "no wild guess" false (Testutil.contains msg "did you mean")

let test_topospec_generators () =
  (match Harness.Topospec.parse "jellyfish:10,6,3:3" with
  | Error e -> Alcotest.fail e
  | Ok t ->
    check Alcotest.int "jellyfish switches" 10 (Graph.num_switches t.Harness.Topospec.graph);
    check Alcotest.int "jellyfish terminals" 30 (Graph.num_terminals t.Harness.Topospec.graph));
  match Harness.Topospec.parse "xpander:3,4,2:5" with
  | Error e -> Alcotest.fail e
  | Ok t ->
    check Alcotest.int "xpander switches" 16 (Graph.num_switches t.Harness.Topospec.graph);
    check Alcotest.int "xpander terminals" 32 (Graph.num_terminals t.Harness.Topospec.graph)

let test_topospec_import () =
  let dir = Filename.temp_file "topoimp" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let path = Filename.concat dir "t.dot" in
  let oc = open_out path in
  output_string oc "graph g { a -- b; b -- c; c -- a; a -- a; }\n";
  close_out oc;
  (match Harness.Topospec.parse ("dot:" ^ path) with
  | Error e -> Alcotest.fail e
  | Ok t ->
    check Alcotest.int "imported switches" 3 (Graph.num_switches t.Harness.Topospec.graph);
    check Alcotest.bool "repair counted in description" true
      (Testutil.contains t.Harness.Topospec.description "1 repair"));
  Sys.remove path;
  Unix.rmdir dir

let () =
  Alcotest.run "topo_import"
    [
      ( "roundtrip",
        [
          test_dot_roundtrip_qcheck;
          test_edge_list_roundtrip_qcheck;
          Alcotest.test_case "mult and terminals" `Quick test_dot_mult_and_terminals;
          Alcotest.test_case "digraph pairing" `Quick test_digraph_pairing;
          Alcotest.test_case "synthetic terminals" `Quick test_synthetic_terminals_only_when_none_declared;
        ] );
      ( "rejection",
        [
          Alcotest.test_case "malformed corpus" `Quick test_rejections;
          Alcotest.test_case "lenient repairs" `Quick test_lenient_repairs;
          Alcotest.test_case "sniff" `Quick test_sniff;
        ] );
      ("serial", [ test_serial_interop_qcheck ]);
      ( "generators",
        [
          test_jellyfish_qcheck;
          test_xpander_qcheck;
          Alcotest.test_case "invalid args" `Quick test_generator_invalid_args;
        ] );
      ( "topospec",
        [
          Alcotest.test_case "suggestions" `Quick test_topospec_suggestions;
          Alcotest.test_case "generator specs" `Quick test_topospec_generators;
          Alcotest.test_case "import specs" `Quick test_topospec_import;
        ] );
    ]
