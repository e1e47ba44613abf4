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

(* A floor race runs until every thunk's own time adds up to the
   floor, and at least [min_rounds] rounds; without a floor it runs
   exactly the rounds asked for. *)
let test_race_floor () =
  let calls = Array.make 2 0 and spent = Array.make 2 0.0 and last = Array.make 2 0.0 in
  let thunk i ms () =
    let t0 = Unix.gettimeofday () in
    Unix.sleepf (ms /. 1000.0);
    calls.(i) <- calls.(i) + 1;
    last.(i) <- 1000.0 *. (Unix.gettimeofday () -. t0);
    spent.(i) <- spent.(i) +. last.(i);
    i
  in
  let best, rounds =
    Kit.time_race_floor ~compact:false ~min_rounds:2 ~floor_ms:20.0 [| thunk 0 1.0; thunk 1 8.0 |]
  in
  Alcotest.(check (array int)) "one call per round each" [| rounds; rounds |] calls;
  Alcotest.(check bool) "quick thunk reached the floor" true (spent.(0) >= 20.0);
  Alcotest.(check bool) "no round after the floor" true (spent.(0) -. last.(0) < 20.0);
  Alcotest.(check (array int)) "each best round's result" [| 0; 1 |] (Array.map snd best);
  let fixed, rounds = Kit.time_race_floor ~compact:false ~min_rounds:3 ~floor_ms:0.0 [| (fun () -> ()) |] in
  Alcotest.(check int) "no floor: min_rounds" 3 rounds;
  Alcotest.(check int) "one result" 1 (Array.length fixed)

let test_scale_rate () =
  Alcotest.(check (float 1e-9)) "same host" 100.0 (Kit.scale_rate 100.0 ~baseline_ref_ms:10.0 ~ref_ms:10.0);
  Alcotest.(check (float 1e-9)) "host twice as slow" 50.0 (Kit.scale_rate 100.0 ~baseline_ref_ms:10.0 ~ref_ms:20.0);
  Alcotest.(check (float 1e-9)) "host twice as fast" 200.0 (Kit.scale_rate 100.0 ~baseline_ref_ms:10.0 ~ref_ms:5.0);
  Alcotest.(check bool) "reference time is positive" true (Kit.host_ref_ms ~samples:3 () > 0.0)

let () =
  Alcotest.run "kit"
    [
      ( "gates",
        [
          Alcotest.test_case "a parallel gate below its domain count is skipped" `Quick test_parallel_gate;
          Alcotest.test_case "only a failed gate fails a run" `Quick test_exit_rule;
          Alcotest.test_case "status strings" `Quick test_status_strings;
        ] );
      ( "timing",
        [
          Alcotest.test_case "a floor race samples every thunk for the floor" `Quick test_race_floor;
          Alcotest.test_case "carried rates scale by host reference time" `Quick test_scale_rate;
        ] );
    ]
