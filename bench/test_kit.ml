(* The gate rules every bench reports by: a parallel gate below its
   domain count is skipped whatever the measurement says, and only a
   failed gate fails a run. *)

let status = Alcotest.testable (fun ppf s -> Format.pp_print_string ppf (Kit.status_to_string s)) ( = )

let test_parallel_gate () =
  let gate ~available ok = (Kit.parallel_gate "par" ~target:"t" ~available ~min:2 ok).Kit.status in
  Alcotest.check status "1 domain, measured ok: skipped"
    (Kit.Skipped "1 hardware domain available (gate needs >= 2)") (gate ~available:1 true);
  Alcotest.check status "1 domain, measured slower: skipped"
    (Kit.Skipped "1 hardware domain available (gate needs >= 2)") (gate ~available:1 false);
  Alcotest.check status "2 domains, ok: pass" Kit.Pass (gate ~available:2 true);
  Alcotest.check status "2 domains, slower: fail" Kit.Fail (gate ~available:2 false)

let test_exit_rule () =
  let g status = { Kit.name = "g"; target = "t"; status } in
  Alcotest.(check int) "no gates" 0 (Kit.exit_code []);
  Alcotest.(check int) "skipped only" 0 (Kit.exit_code [ g (Kit.Skipped "why") ]);
  Alcotest.(check int) "pass and skipped" 0 (Kit.exit_code [ g Kit.Pass; g (Kit.Skipped "why") ]);
  Alcotest.(check int) "one fail" 1 (Kit.exit_code [ g Kit.Pass; g Kit.Fail; g (Kit.Skipped "why") ])

let test_status_strings () =
  Alcotest.(check (list string))
    "json statuses" [ "pass"; "fail"; "skipped: no baseline" ]
    (List.map Kit.status_to_string [ Kit.Pass; Kit.Fail; Kit.Skipped "no baseline" ])

let () =
  Alcotest.run "kit"
    [
      ( "gates",
        [
          Alcotest.test_case "a parallel gate below its domain count is skipped" `Quick test_parallel_gate;
          Alcotest.test_case "only a failed gate fails a run" `Quick test_exit_rule;
          Alcotest.test_case "status strings" `Quick test_status_strings;
        ] );
    ]
