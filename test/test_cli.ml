(* Command-line surface of fabric_tool, driven as a separate process:
   options every subcommand shares are validated the same way
   everywhere, out-of-range counts are refused before any work starts,
   and options and subcommands that were removed stay removed. A usage
   error is cmdliner's exit code 124 with a message naming the option;
   no invocation may end in an uncaught exception (exit 125). *)

let tool = Filename.concat (Filename.concat ".." "bin") "fabric_tool.exe"

(* Runs [fabric_tool args] and returns its exit code, stdout and stderr. *)
let run args =
  let out = Filename.temp_file "fabric_tool" ".out" and err = Filename.temp_file "fabric_tool" ".err" in
  let open_w path = Unix.openfile path [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  let fd_out = open_w out and fd_err = open_w err in
  let null = Unix.openfile Filename.null [ Unix.O_RDONLY ] 0 in
  let pid = Unix.create_process tool (Array.of_list (tool :: args)) null fd_out fd_err in
  List.iter Unix.close [ fd_out; fd_err; null ];
  let _, status = Unix.waitpid [] pid in
  let slurp path =
    let s = In_channel.with_open_text path In_channel.input_all in
    Sys.remove path;
    s
  in
  let stdout = slurp out and stderr = slurp err in
  let what = String.concat " " args in
  match status with
  | Unix.WEXITED 125 -> Alcotest.failf "fabric_tool %s: uncaught exception\n%s" what stderr
  | Unix.WEXITED code -> (code, stdout, stderr)
  | _ -> Alcotest.failf "fabric_tool %s: killed" what

let usage_error args ~naming =
  let code, _, stderr = run args in
  let what = String.concat " " args in
  Alcotest.(check int) (what ^ ": usage error") 124 code;
  Alcotest.(check bool) (what ^ ": names " ^ naming) true (Testutil.contains stderr naming)

(* Runs a command that must succeed and returns its stdout. *)
let succeeds args =
  let code, stdout, stderr = run args in
  Alcotest.(check int) (String.concat " " args ^ ": exit 0\n" ^ stderr) 0 code;
  stdout

let test_max_layers_zero () =
  List.iter
    (fun cmd -> usage_error (cmd @ [ "--max-layers"; "0" ]) ~naming:"--max-layers")
    [
      [ "analyze"; "torus:4x4" ];
      [ "manage"; "torus:3x3" ];
      [ "route"; "torus:3x3" ];
      [ "serve"; "torus:3x3" ];
      [ "soak"; "torus:3x3" ];
    ]

let test_removed_flags () =
  List.iter
    (fun cmd ->
      usage_error [ cmd; "torus:3x3"; "--kernel"; "heap" ] ~naming:"unknown option '--kernel'";
      usage_error [ cmd; "torus:3x3"; "--break-engine"; "dfs" ] ~naming:"unknown option '--break-engine'")
    [ "manage"; "serve" ]

(* Counts outside their range used to crash inside the libraries (or be
   accepted silently); each is now refused by its converter. *)
let test_out_of_range_counts () =
  List.iter
    (fun (args, flag) -> usage_error args ~naming:flag)
    [
      ([ "manage"; "torus:3x3"; "--events=-1" ], "--events");
      ([ "soak"; "torus:3x3"; "--events=-4" ], "--events");
      ([ "manage"; "torus:3x3"; "--switch-removals=-1" ], "--switch-removals");
      ([ "serve"; "torus:3x3"; "--max-frame=-1" ], "--max-frame");
      ([ "serve"; "torus:3x3"; "--max-frame=15" ], "--max-frame");
      ([ "route"; "ring:8"; "--max-layers"; "0" ], "--max-layers");
      (* layer ids are bytes: 300 used to die inside the balancer *)
      ([ "route"; "ring:8"; "--balance"; "--max-layers"; "300" ], "--max-layers");
      ([ "manage"; "torus:3x3"; "--max-layers"; "257" ], "--max-layers");
      ([ "simulate"; "torus:3x3"; "-e"; "event"; "--bytes=-5" ], "--bytes");
      ([ "experiment"; "fig4"; "--scale"; "0" ], "--scale");
      ([ "experiment"; "fig4"; "--patterns"; "0" ], "--patterns");
      ([ "analyze"; "torus:3x3"; "--slack=-1" ], "--slack");
      ([ "degrade"; "torus:3x3"; "--cables=-1" ], "--cables");
      ([ "serve"; "torus:3x3"; "--trace-capacity=-1" ], "--trace-capacity");
    ]

(* The largest layer budget is accepted and balanced over in full. *)
let test_max_layers_256 () =
  let stdout = succeeds [ "route"; "ring:8"; "--balance"; "--max-layers"; "256" ] in
  Alcotest.(check bool) "deadlock-free" true (Testutil.contains stdout "deadlock_free=true")

(* A table artifact naming a switch as a destination is refused as input
   (exit 2, the line named), not an uncaught exception. *)
let test_analyze_bad_table () =
  let path = Filename.temp_file "ftable" ".txt" in
  Out_channel.with_open_text path (fun oc ->
      output_string oc
        "routing x layers 2\nswitch a\nswitch b\nlink a b\nterminal t0 a\nterminal t1 b\nendtopology\nentry a b b 0\n");
  let code, _, stderr = run [ "analyze"; "--table"; path ] in
  Sys.remove path;
  Alcotest.(check int) "input error" 2 code;
  Alcotest.(check bool) "names the line" true (Testutil.contains stderr "line 8")

let test_closed_choices () =
  usage_error [ "info"; "nope:3" ] ~naming:"SPEC";
  usage_error [ "simulate"; "torus:3x3"; "-e"; "warp" ] ~naming:"'-e'";
  usage_error [ "route"; "torus:3x3"; "--algorithm"; "nope" ] ~naming:"--algorithm";
  (* the min-frame bound is the server's own, so the smallest accepted
     value passes the converter *)
  let _, _, stderr = run [ "serve"; "torus:3x3"; "--max-frame=16"; "--socket"; "/nonexistent/dir/s.sock" ] in
  Alcotest.(check bool) "--max-frame 16 accepted" false (Testutil.contains stderr "--max-frame")

let test_route () =
  let stdout = succeeds [ "route"; "torus:4x4:2"; "--ebb"; "5" ] in
  Alcotest.(check bool) "result line" true (Testutil.contains stdout "result: pairs=992");
  Alcotest.(check bool) "deadlock-free" true (Testutil.contains stdout "deadlock_free=true");
  Alcotest.(check bool) "eBB line" true (Testutil.contains stdout "effective bisection bandwidth: n=5")

let test_simulate_deadlock () =
  let stdout = succeeds [ "simulate"; "ring:5"; "-a"; "sssp"; "-p"; "ring-shift"; "-e"; "flit" ] in
  Alcotest.(check bool) "sssp not deadlock-free" true (Testutil.contains stdout "deadlock-free: false");
  Alcotest.(check bool) "packet simulator deadlocks" true (Testutil.contains stdout "DEADLOCK")

let test_experiment () =
  let stdout = succeeds [ "experiment"; "table1" ] in
  Alcotest.(check bool) "Table I printed" true (Testutil.contains stdout "Table I");
  usage_error [ "experiment"; "nope" ] ~naming:"EXPERIMENT";
  let _, _, stderr = run [ "experiment"; "nope" ] in
  List.iter
    (fun (e : Harness.Experiments.t) ->
      let id = e.Harness.Experiments.id in
      Alcotest.(check bool) ("lists " ^ id) true (Testutil.contains stderr ("'" ^ id ^ "'")))
    Harness.Experiments.all

let test_manage_trace () =
  let path = Filename.temp_file "fabric_tool" ".jsonl" in
  let stdout = succeeds [ "manage"; "torus:4x4"; "--events"; "5"; "--seed"; "3"; "--trace"; path ] in
  Alcotest.(check bool) "report on stdout" true (Testutil.contains stdout "converged:");
  let lines = In_channel.with_open_text path In_channel.input_lines in
  Sys.remove path;
  Alcotest.(check bool) "spans written" true (List.length lines > 0);
  List.iter
    (fun line ->
      match Obs.Json.of_string line with
      | Ok _ -> ()
      | Error msg -> Alcotest.failf "span line does not parse (%s): %s" msg line)
    lines;
  Alcotest.(check bool) "initial routing traced" true
    (List.exists (fun l -> Testutil.contains l "\"fabric.full_route\"") lines);
  usage_error [ "trace"; "torus:4x4" ] ~naming:"unknown command 'trace'";
  usage_error [ "route"; "torus:4x4"; "--max-vls"; "4" ] ~naming:"unknown option '--max-vls'"

let () =
  Alcotest.run "cli"
    [
      ( "fabric_tool",
        [
          Alcotest.test_case "--max-layers 0 is a usage error everywhere" `Quick test_max_layers_zero;
          Alcotest.test_case "--kernel and --break-engine are unknown options" `Quick test_removed_flags;
          Alcotest.test_case "out-of-range counts are usage errors" `Quick test_out_of_range_counts;
          Alcotest.test_case "--max-layers 256 balances" `Quick test_max_layers_256;
          Alcotest.test_case "analyze --table refuses a switch destination" `Quick test_analyze_bad_table;
          Alcotest.test_case "closed choices are checked by cmdliner" `Quick test_closed_choices;
          Alcotest.test_case "route prints its result line" `Quick test_route;
          Alcotest.test_case "simulate shows the ring deadlock" `Quick test_simulate_deadlock;
          Alcotest.test_case "experiment runs by id and lists ids on error" `Quick test_experiment;
          Alcotest.test_case "manage --trace writes parseable spans; trace is gone" `Quick test_manage_trace;
        ] );
    ]
