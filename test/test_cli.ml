(* Command-line surface of fabric_tool, driven as a separate process:
   options every subcommand shares are validated the same way
   everywhere, and options that were removed stay removed. A usage error
   is cmdliner's exit code 124 with a message naming the option. *)

let tool = Filename.concat (Filename.concat ".." "bin") "fabric_tool.exe"

(* Runs [fabric_tool args] and returns its exit code and stderr. *)
let run args =
  let err = Filename.temp_file "fabric_tool" ".err" in
  let fd = Unix.openfile err [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  let null = Unix.openfile Filename.null [ Unix.O_RDWR ] 0 in
  let pid = Unix.create_process tool (Array.of_list (tool :: args)) null null fd in
  Unix.close fd;
  Unix.close null;
  let _, status = Unix.waitpid [] pid in
  let stderr = In_channel.with_open_text err In_channel.input_all in
  Sys.remove err;
  match status with
  | Unix.WEXITED code -> (code, stderr)
  | _ -> Alcotest.failf "fabric_tool %s: killed" (String.concat " " args)

let usage_error args ~naming =
  let code, stderr = run args in
  let what = String.concat " " args in
  Alcotest.(check int) (what ^ ": usage error") 124 code;
  Alcotest.(check bool) (what ^ ": names " ^ naming) true (Testutil.contains stderr naming)

let test_max_layers_zero () =
  List.iter
    (fun cmd -> usage_error (cmd @ [ "--max-layers"; "0" ]) ~naming:"--max-layers")
    [
      [ "analyze"; "torus:4x4" ];
      [ "manage"; "torus:3x3" ];
      [ "trace"; "torus:3x3" ];
      [ "serve"; "torus:3x3" ];
      [ "soak"; "torus:3x3" ];
    ]

let test_removed_flags () =
  List.iter
    (fun cmd ->
      usage_error [ cmd; "torus:3x3"; "--kernel"; "heap" ] ~naming:"unknown option '--kernel'";
      usage_error [ cmd; "torus:3x3"; "--break-engine"; "dfs" ] ~naming:"unknown option '--break-engine'")
    [ "manage"; "serve" ]

let () =
  Alcotest.run "cli"
    [
      ( "fabric_tool",
        [
          Alcotest.test_case "--max-layers 0 is a usage error everywhere" `Quick test_max_layers_zero;
          Alcotest.test_case "--kernel and --break-engine are unknown options" `Quick test_removed_flags;
        ] );
    ]
