(* Tests for the routing certifier (lib/analysis): certificate
   generation + trusted checking on the paper's topology seeds, injected
   corruption of certificates and tables mapping to stable rule ids, the
   text round trips, and the epoch-swap gate in the fabric manager. *)

let check = Alcotest.check

let qtest ?(count = 40) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* ------------------------------------------------------------------ *)
(* Helpers                                                              *)
(* ------------------------------------------------------------------ *)

let route ?(max_layers = 8) name g =
  match Harness.Runs.run_named ~max_layers name g with
  | Ok ft -> ft
  | Error msg -> Alcotest.failf "%s refused: %s" name msg

let seeds () =
  [
    ("ring8", Topo_ring.make ~switches:8 ~terminals_per_switch:1);
    ("torus4x4", fst (Topo_torus.torus ~dims:[| 4; 4 |] ~terminals_per_switch:1));
    ("xgft", Topo_xgft.make ~ms:[| 2; 4 |] ~ws:[| 1; 2 |] ~endpoints:16);
    ("dragonfly", Topo_dragonfly.make ~a:4 ~p:2 ~h:2 ());
  ]

let chan_between g a b =
  let found = ref (-1) in
  Array.iter
    (fun (c : Channel.t) -> if c.Channel.src = a && c.Channel.dst = b then found := c.Channel.id)
    (Graph.channels g);
  if !found < 0 then Alcotest.failf "no channel %d -> %d" a b;
  !found

(* Rebuild [ft] entry by entry so mutations never touch the original;
   entries in [drop] are left unset. *)
let copy_table ?(drop = []) ft =
  let g = Routing.Ftable.graph ft in
  let copy = Routing.Ftable.create g ~algorithm:(Routing.Ftable.algorithm ft) in
  let terminals = Graph.terminals g in
  Array.iter
    (fun dst ->
      for node = 0 to Graph.num_nodes g - 1 do
        match Routing.Ftable.next ft ~node ~dst with
        | Some channel when not (List.mem (node, dst) drop) ->
          Routing.Ftable.set_next copy ~node ~dst ~channel
        | _ -> ()
      done)
    terminals;
  Array.iter
    (fun src ->
      Array.iter
        (fun dst ->
          if src <> dst then Routing.Ftable.set_layer copy ~src ~dst (Routing.Ftable.layer ft ~src ~dst))
        terminals)
    terminals;
  Routing.Ftable.set_num_layers copy (Routing.Ftable.num_layers ft);
  copy

(* The paper's Fig. 2 deadlock: every route on a ring goes clockwise in a
   single layer, so the layer's CDG contains the full ring cycle. *)
let clockwise_ring ~switches =
  let g = Topo_ring.make ~switches ~terminals_per_switch:1 in
  let ft = Routing.Ftable.create g ~algorithm:"clockwise" in
  let sws = Graph.switches g in
  let n = Array.length sws in
  let switch_of t = (Graph.channel g (Graph.out_channels g t).(0)).Channel.dst in
  let index_of s =
    let idx = ref (-1) in
    Array.iteri (fun i sw -> if sw = s then idx := i) sws;
    !idx
  in
  Array.iter
    (fun dst ->
      let sd = switch_of dst in
      Array.iter
        (fun t -> if t <> dst then Routing.Ftable.set_next ft ~node:t ~dst ~channel:(chan_between g t (switch_of t)))
        (Graph.terminals g);
      Array.iter
        (fun s ->
          let channel =
            if s = sd then chan_between g s dst else chan_between g s sws.((index_of s + 1) mod n)
          in
          Routing.Ftable.set_next ft ~node:s ~dst ~channel)
        sws)
    (Graph.terminals g);
  ft

(* A (src, dst, path) with at least one switch->switch channel. *)
let long_pair ft =
  let g = Routing.Ftable.graph ft in
  let terminals = Graph.terminals g in
  let best = ref None in
  Array.iter
    (fun src ->
      Array.iter
        (fun dst ->
          if src <> dst && !best = None then
            match Routing.Ftable.path ft ~src ~dst with
            | Some p when Array.length p >= 3 -> best := Some (src, dst, p)
            | _ -> ())
        terminals)
    terminals;
  match !best with
  | Some x -> x
  | None -> Alcotest.fail "no pair with a 3+ hop route"

let has_rule = Testutil.has_rule

(* ------------------------------------------------------------------ *)
(* Certificates on the paper's seeds                                    *)
(* ------------------------------------------------------------------ *)

(* A table's per-pair routes and layers: the oracle side the class-keyed
   certifier is compared with. *)
let artifacts ft =
  match Routing.Ftable.to_store ft with
  | Ok store -> (store, Routing.Ftable.pair_layers ft)
  | Error msg -> Alcotest.failf "artifacts: %s" msg

let per_pair_routes ft =
  let store, layer_of_path = artifacts ft in
  Analysis.Cert.Routes.of_store store ~layer_of_path

let cert_of_table ft = Analysis.Cert.of_routes ft (per_pair_routes ft)

let check_table cert ft = Analysis.Cert.check_routes cert (per_pair_routes ft)

let check_store cert store ~layer_of_path =
  Analysis.Cert.check_routes cert (Analysis.Cert.Routes.of_store store ~layer_of_path)

let test_certify_seeds () =
  List.iter
    (fun (name, g) ->
      let ft = route "dfsssp" g in
      match cert_of_table ft with
      | Error e -> Alcotest.failf "%s: generate: %s" name (Analysis.Cert.error_to_string e)
      | Ok cert ->
        check Alcotest.int (name ^ " layer count") (Routing.Ftable.num_layers ft)
          (Analysis.Cert.num_layers cert);
        (match check_table cert ft with
        | Ok () -> ()
        | Error msg -> Alcotest.failf "%s: check: %s" name msg))
    (seeds ())

(* The certifier reads the table's destination trees: its certificate
   checks against the per-pair store under the table's layers, and the
   per-pair certificate checks against the tree dependencies. *)
let test_certify_checks_pairs () =
  List.iter
    (fun (name, g) ->
      let ft = route "dfsssp" g in
      let trees = Result.get_ok (Analysis.Cert.Routes.of_table ft) in
      match (Analysis.Analyzer.certify ft, cert_of_table ft) with
      | Ok cert, Ok pair_cert ->
        check Alcotest.bool (name ^ " certificate checks against the per-pair store") true
          (Result.is_ok (check_table cert ft));
        check Alcotest.bool (name ^ " per-pair certificate checks against the trees") true
          (Result.is_ok (Analysis.Cert.check_routes pair_cert trees));
        check Alcotest.int (name ^ " same layer count") (Analysis.Cert.num_layers pair_cert)
          (Analysis.Cert.num_layers cert)
      | Error msg, _ -> Alcotest.failf "%s: %s" name msg
      | _, Error e -> Alcotest.failf "%s: per-pair: %s" name (Analysis.Cert.error_to_string e))
    (seeds ());
  (* a cyclic layer: the same layer and stuck count as the per-pair form *)
  let bad = clockwise_ring ~switches:8 in
  match (Analysis.Analyzer.certify bad, cert_of_table bad) with
  | Error a, Error e -> check Alcotest.string "per-pair refusal" (Analysis.Cert.error_to_string e) a
  | _ -> Alcotest.fail "clockwise ring must not certify"

(* Refusals of incomplete tables name the first pair, in pair-id order,
   without a loop-free route, in the class walk's words: an unset entry,
   a forwarding loop, and a walk that enters a terminal other than its
   destination. *)
let test_incomplete_refusals () =
  let g = Topo_ring.make ~switches:6 ~terminals_per_switch:2 in
  let ft = route "dfsssp" g in
  let terminals = Graph.terminals g and sws = Graph.switches g in
  let dst = terminals.(3) in
  let sw_of t = (Graph.channel g (Graph.out_channels g t).(0)).Channel.dst in
  let towards s = (Graph.channel g (Option.get (Routing.Ftable.next ft ~node:s ~dst))).Channel.dst in
  (* a switch two hops from [dst]'s switch, and the one between *)
  let far = List.find (fun s -> s <> sw_of dst && towards s <> sw_of dst) (Array.to_list sws) in
  let mid = towards far in
  let refusal what ft =
    let expected =
      match Routing.Ftable.to_classes ft with
      | Error msg -> "nothing to certify: " ^ msg
      | Ok _ -> Alcotest.failf "%s: the class walk accepts the table" what
    in
    (match Analysis.Analyzer.certify ft with
    | Error msg -> check Alcotest.string (what ^ ": certify") expected msg
    | Ok _ -> Alcotest.failf "%s: certified" what);
    (match Dfsssp.Verify.report ft with
    | Error msg -> check Alcotest.string (what ^ ": report") expected ("nothing to certify: " ^ msg)
    | Ok _ -> Alcotest.failf "%s: report accepted" what);
    let r = Analysis.Analyzer.analyze ft in
    match r.Analysis.Analyzer.verdict with
    | Analysis.Analyzer.Rejected msg -> check Alcotest.string (what ^ ": analyze") expected msg
    | Analysis.Analyzer.Certified _ -> Alcotest.failf "%s: analyze certified" what
  in
  refusal "dead entry" (copy_table ~drop:[ (mid, dst) ] ft);
  refusal "dead first hop" (copy_table ~drop:[ (terminals.(0), dst) ] ft);
  let looped = copy_table ft in
  Routing.Ftable.set_next looped ~node:mid ~dst ~channel:(chan_between g mid far);
  refusal "forwarding loop" looped;
  let foreign = copy_table ft in
  let other = List.find (fun t -> t <> dst && sw_of t = mid) (Array.to_list terminals) in
  Routing.Ftable.set_next foreign ~node:mid ~dst ~channel:(chan_between g mid other);
  refusal "foreign terminal" foreign

(* Words allocated by [f ()], from the Gc counters around the call. *)
let allocated_words f =
  let minor0, promoted0, major0 = Gc.counters () in
  let r = f () in
  let minor1, promoted1, major1 = Gc.counters () in
  (r, minor1 -. minor0 +. (major1 -. major0) -. (promoted1 -. promoted0))

(* Certification reads the table's trees, not a class arena: on tree:8,3
   it allocates fewer words than one class walk of the same table, and
   it walks no route classes at all. *)
let test_certify_allocation () =
  let ft = route "dfsssp" (Topo_tree.make ~k:8 ~n:3 ()) in
  let cls, walk_words = allocated_words (fun () -> Routing.Ftable.to_classes ft) in
  check Alcotest.bool "the table walks" true (Result.is_ok cls);
  let cert, certify_words = allocated_words (fun () -> Analysis.Analyzer.certify ft) in
  check Alcotest.bool "certified" true (Result.is_ok cert);
  if certify_words >= walk_words then
    Alcotest.failf "certify allocated %.0f words, one class walk %.0f" certify_words walk_words

let class_walks () =
  match Obs.Registry.find_counter (Obs.Registry.default ()) "routing.class_walks" with
  | Some c -> Obs.Counter.value c
  | None -> Alcotest.fail "routing.class_walks not registered"

let test_certify_walks_no_classes () =
  let ft = route "dfsssp" (fst (Topo_torus.torus ~dims:[| 4; 4 |] ~terminals_per_switch:2)) in
  let terminals = Graph.terminals (Routing.Ftable.graph ft) in
  let incomplete = copy_table ~drop:[ (terminals.(0), terminals.(1)) ] ft in
  let before = class_walks () in
  check Alcotest.bool "certified" true (Result.is_ok (Analysis.Analyzer.certify ft));
  check Alcotest.bool "cyclic refused" true
    (Result.is_error (Analysis.Analyzer.certify (clockwise_ring ~switches:8)));
  check Alcotest.bool "incomplete refused" true (Result.is_error (Analysis.Analyzer.certify incomplete));
  check Alcotest.int "routing.class_walks unchanged" before (class_walks ())

(* The process registry (what the daemon's stats op reports under
   "process") carries analysis.certify as one timer, counting runs. *)
let test_certify_telemetry () =
  let entry () =
    match Obs.Json.member "analysis.certify" (Obs.Registry.to_json (Obs.Registry.default ())) with
    | Some j -> j
    | None -> Alcotest.fail "analysis.certify not in the registry snapshot"
  in
  let count () =
    match Obs.Json.member "count" (entry ()) with
    | Some (Obs.Json.Num n) -> int_of_float n
    | _ -> Alcotest.fail "analysis.certify has no count"
  in
  check Alcotest.bool "a timer" true (Obs.Json.member "kind" (entry ()) = Some (Obs.Json.Str "timer"));
  let ft = route "dfsssp" (fst (Topo_torus.torus ~dims:[| 3; 3 |] ~terminals_per_switch:1)) in
  let before = count () in
  ignore (Analysis.Analyzer.certify ft);
  check Alcotest.int "one more per certify" (before + 1) (count ());
  ignore (Analysis.Analyzer.certify (clockwise_ring ~switches:8));
  check Alcotest.int "refusals count too" (before + 2) (count ())

let test_fresh_tables_clean () =
  let g = fst (Topo_torus.torus ~dims:[| 4; 4 |] ~terminals_per_switch:1) in
  List.iter
    (fun name ->
      let r = Analysis.Analyzer.analyze (route name g) in
      let fs = r.Analysis.Analyzer.findings in
      check Alcotest.int (name ^ " errors") 0 (Analysis.Diag.num_errors fs);
      check Alcotest.int (name ^ " warnings") 0 (Analysis.Diag.num_warnings fs);
      (* the only finding on a clean table is the informational slack *)
      check Alcotest.int (name ^ " findings") 1 (List.length fs);
      check Alcotest.bool (name ^ " slack info") true (has_rule fs "A010-layer-slack");
      check Alcotest.bool (name ^ " lb sound") true
        (r.Analysis.Analyzer.existence.Analysis.Existence.min_layers_lb <= r.Analysis.Analyzer.num_layers);
      check Alcotest.bool (name ^ " ok") true (Analysis.Analyzer.ok r))
    [ "dfsssp"; "lash"; "updown" ]

let test_cert_rejects_corruption () =
  let ft = route "dfsssp" (fst (Topo_torus.torus ~dims:[| 4; 4 |] ~terminals_per_switch:1)) in
  let cert =
    match cert_of_table ft with
    | Ok c -> c
    | Error e -> Alcotest.failf "generate: %s" (Analysis.Cert.error_to_string e)
  in
  (* swapped positions: some dependency stops ascending *)
  let swapped =
    let layers = Array.map Array.copy cert.Analysis.Cert.layers in
    Array.iter
      (fun pos ->
        let tmp = pos.(0) in
        (* reverse the whole numbering: every dependency now descends *)
        ignore tmp;
        let m = Array.length pos in
        Array.iteri (fun c p -> pos.(c) <- m - 1 - p) (Array.copy pos))
      layers;
    { cert with Analysis.Cert.layers }
  in
  check Alcotest.bool "reversed numbering rejected" true
    (Result.is_error (check_table swapped ft));
  (* truncated numbering: wrong shape *)
  let truncated =
    {
      cert with
      Analysis.Cert.layers = Array.map (fun pos -> Array.sub pos 0 (Array.length pos - 1)) cert.Analysis.Cert.layers;
    }
  in
  check Alcotest.bool "truncated numbering rejected" true
    (Result.is_error (check_table truncated ft));
  (* dropped layer: routes reference a layer outside the certificate *)
  let missing_layer = { cert with Analysis.Cert.layers = [| cert.Analysis.Cert.layers.(0) |] } in
  if Array.length cert.Analysis.Cert.layers > 1 then
    check Alcotest.bool "missing layer rejected" true
      (Result.is_error (check_table missing_layer ft));
  (* duplicate position: not a permutation, some dependency ties *)
  let duplicated =
    let layers = Array.map Array.copy cert.Analysis.Cert.layers in
    Array.iter (fun pos -> if Array.length pos > 1 then pos.(1) <- pos.(0)) layers;
    { cert with Analysis.Cert.layers }
  in
  check Alcotest.bool "duplicated position rejected" true
    (Result.is_error (check_table duplicated ft))

let test_cyclic_layer_refused () =
  let ft = clockwise_ring ~switches:8 in
  (match cert_of_table ft with
  | Error (Analysis.Cert.Cycle _) -> ()
  | Error e -> Alcotest.failf "expected Cycle, got %s" (Analysis.Cert.error_to_string e)
  | Ok _ -> Alcotest.fail "clockwise ring must not certify");
  let r = Analysis.Analyzer.analyze ft in
  check Alcotest.bool "rejected" false (Analysis.Analyzer.ok r);
  check Alcotest.bool "A007" true (has_rule r.Analysis.Analyzer.findings "A007-cdg-cycle")

let test_merged_layers_refused () =
  (* DFSSSP needs 2 layers on the 8-ring; forcing everything onto layer 0
     reintroduces the ring cycle. *)
  let ft = route "dfsssp" (Topo_ring.make ~switches:8 ~terminals_per_switch:1) in
  check Alcotest.bool "needs 2+ layers" true (Routing.Ftable.num_layers ft >= 2);
  let merged = copy_table ft in
  let terminals = Graph.terminals (Routing.Ftable.graph ft) in
  Array.iter
    (fun src -> Array.iter (fun dst -> if src <> dst then Routing.Ftable.set_layer merged ~src ~dst 0) terminals)
    terminals;
  Routing.Ftable.set_num_layers merged 1;
  let r = Analysis.Analyzer.analyze merged in
  check Alcotest.bool "rejected" false (Analysis.Analyzer.ok r);
  check Alcotest.bool "A007" true (has_rule r.Analysis.Analyzer.findings "A007-cdg-cycle")

let test_cert_text_roundtrip () =
  let ft = route "dfsssp" (fst (Topo_torus.torus ~dims:[| 4; 4 |] ~terminals_per_switch:1)) in
  let cert =
    match cert_of_table ft with
    | Ok c -> c
    | Error e -> Alcotest.failf "generate: %s" (Analysis.Cert.error_to_string e)
  in
  match Testutil.cert_of_string (Analysis.Cert.to_string cert) with
  | Error msg -> Alcotest.failf "parse: %s" msg
  | Ok cert' ->
    check Alcotest.bool "identical" true (cert = cert');
    (match check_table cert' ft with
    | Ok () -> ()
    | Error msg -> Alcotest.failf "parsed cert fails check: %s" msg)

(* ------------------------------------------------------------------ *)
(* Linter: one deterministic corruption per rule id                     *)
(* ------------------------------------------------------------------ *)

let torus_table () = route "dfsssp" (fst (Topo_torus.torus ~dims:[| 4; 4 |] ~terminals_per_switch:1))

(* Cert.check_routes scans the route arena directly; this reference walks the
   same store pair by pair through Testutil.iter_deps and reports the
   first violation in the same words. *)
let reference_check (cert : Analysis.Cert.t) store ~layer_of_path =
  let k = Array.length cert.Analysis.Cert.layers in
  let first = ref None in
  Deadlock.Route_store.iter_pairs store (fun pair ->
      if !first = None then begin
        let l = layer_of_path.(pair) in
        if l < 0 || l >= k then
          first := Some (Printf.sprintf "pair %d rides layer %d outside the certificate's %d" pair l k)
        else
          let pos = cert.Analysis.Cert.layers.(l) in
          Testutil.iter_deps store ~pair (fun c1 c2 ->
              if !first = None && pos.(c1) >= pos.(c2) then
                first :=
                  Some
                    (Printf.sprintf "layer %d: dependency %d -> %d not ascending (%d >= %d)" l c1 c2 pos.(c1)
                       pos.(c2)))
      end);
  match !first with None -> Ok () | Some msg -> Error msg

let test_cert_check_matches_reference () =
  let ft = torus_table () in
  let store, layer_of_path = artifacts ft in
  let cert =
    match Analysis.Cert.of_routes ft (Analysis.Cert.Routes.of_store store ~layer_of_path) with
    | Ok c -> c
    | Error e -> Alcotest.failf "generate: %s" (Analysis.Cert.error_to_string e)
  in
  let swapped l a b =
    let layers = Array.map Array.copy cert.Analysis.Cert.layers in
    let pos = layers.(l) in
    let tmp = pos.(a) in
    pos.(a) <- pos.(b);
    pos.(b) <- tmp;
    { cert with Analysis.Cert.layers }
  in
  let agree label corrupt =
    check
      Alcotest.(result unit string)
      label
      (reference_check corrupt store ~layer_of_path)
      (check_store corrupt store ~layer_of_path)
  in
  (* swapping the two ends of a dependency always breaks it: one such swap
     on the first, a middle and the last pair's route *)
  let present = List.filter (fun pair -> Deadlock.Route_store.mem store ~pair) (List.init (Deadlock.Route_store.capacity store) Fun.id) in
  List.iter
    (fun pair ->
      let path = Deadlock.Route_store.to_path store ~pair in
      let corrupt = swapped layer_of_path.(pair) path.(0) path.(1) in
      check Alcotest.bool "dependency swap rejected" true (Result.is_error (check_store corrupt store ~layer_of_path));
      agree "dependency swap" corrupt)
    [ List.hd present; List.nth present (List.length present / 2); List.nth present (List.length present - 1) ];
  (* arbitrary swaps, violating or not *)
  let rng = Rng.create 5 in
  let m = cert.Analysis.Cert.num_channels in
  for _ = 1 to 40 do
    agree "random swap" (swapped (Rng.int rng (Analysis.Cert.num_layers cert)) (Rng.int rng m) (Rng.int rng m))
  done

let test_set_pair_layers () =
  let ft = torus_table () in
  let layer_of_path = Routing.Ftable.pair_layers ft in
  let copy = copy_table ft in
  let shifted = Array.map (fun l -> if l < 0 then l else (l + 1) mod 3) layer_of_path in
  Routing.Ftable.set_pair_layers copy shifted;
  check Alcotest.(array int) "set then read is the identity" shifted (Routing.Ftable.pair_layers copy);
  Routing.Ftable.set_pair_layers copy layer_of_path;
  check Alcotest.(array int) "restored" layer_of_path (Routing.Ftable.pair_layers copy);
  let terms = Graph.terminals (Routing.Ftable.graph ft) in
  let pair = Routing.Ftable.pair_id ft ~src:terms.(1) ~dst:terms.(0) in
  let too_high = Array.copy layer_of_path in
  too_high.(pair) <- 256;
  Alcotest.check_raises "layer above 255" (Invalid_argument "Ftable.set_pair_layers: layer out of range")
    (fun () -> Routing.Ftable.set_pair_layers copy too_high)

let test_a001_dropped_entry () =
  let ft = torus_table () in
  let _, dst, p = long_pair ft in
  let g = Routing.Ftable.graph ft in
  let hole = (Graph.channel g p.(1)).Channel.src in
  let bad = copy_table ~drop:[ (hole, dst) ] ft in
  let findings = Analysis.Lint.table bad in
  check Alcotest.bool "A001" true (has_rule findings "A001-unreachable-dest");
  check Alcotest.bool "only A001" true
    (List.for_all (fun f -> f.Analysis.Diag.rule.Analysis.Diag.id = "A001-unreachable-dest") findings)

let test_a002_two_cycle () =
  let ft = torus_table () in
  let _, dst, p = long_pair ft in
  let g = Routing.Ftable.graph ft in
  let c = p.(1) in
  let s2 = (Graph.channel g c).Channel.dst in
  let back =
    match Graph.reverse_channel g c with
    | Some r -> r
    | None -> Alcotest.fail "no reverse channel"
  in
  let bad = copy_table ft in
  Routing.Ftable.set_next bad ~node:s2 ~dst ~channel:back;
  let findings = Analysis.Lint.table bad in
  check Alcotest.bool "A002" true (has_rule findings "A002-forwarding-loop")

(* Two switches with a terminal each; [cables] lists the switch cables in
   construction order ([true]: laid s0 -> s1, [false]: s1 -> s0), so the
   same node ids carry differently numbered channels. *)
let two_switches cables =
  let b = Builder.create () in
  let s0 = Builder.add_switch b ~name:"s0" and s1 = Builder.add_switch b ~name:"s1" in
  let t0 = Builder.add_terminal b ~name:"t0" ~switch:s0 and t1 = Builder.add_terminal b ~name:"t1" ~switch:s1 in
  List.iter (fun fwd -> ignore (if fwd then Builder.add_link b s0 s1 else Builder.add_link b s1 s0)) cables;
  (Builder.build b, (s0, s1, t0, t1))

let test_a003_port_range () =
  (* Ftable's own setters refuse such entries; they arise when a table is
     linted against a fabric whose channel ids were re-assigned. The
     table routes s0 -> s1 over the second of two parallel cables. *)
  let g, (s0, s1, t0, t1) = two_switches [ true; true ] in
  let ft = Routing.Ftable.create g ~algorithm:"manual" in
  let via src dst =
    List.find (fun c -> (Graph.channel g c).Channel.dst = dst) (List.rev (Array.to_list (Graph.out_channels g src)))
  in
  List.iter
    (fun (node, dst, next) -> Routing.Ftable.set_next ft ~node ~dst ~channel:(via node next))
    [ (t0, t1, s0); (s0, t1, s1); (s1, t1, t1); (t1, t0, s1); (s1, t0, s0); (s0, t0, t0) ];
  check Alcotest.bool "own fabric clean" false (has_rule (Analysis.Lint.table ft) "A003-port-range");
  (* one cable fewer: the second cable's channel ids are out of range *)
  let fewer, _ = two_switches [ true ] in
  check Alcotest.bool "A003 (out of range)" true
    (has_rule (Analysis.Lint.table ~graph:fewer ft) "A003-port-range");
  (* cables laid the other way: the same ids leave the other switch *)
  let flipped, _ = two_switches [ false; false ] in
  check Alcotest.bool "A003 (foreign channel)" true
    (has_rule (Analysis.Lint.table ~graph:flipped ft) "A003-port-range")

let test_a004_layer_overflow () =
  let ft = torus_table () in
  let terminals = Graph.terminals (Routing.Ftable.graph ft) in
  let bad = copy_table ft in
  Routing.Ftable.set_layer bad ~src:terminals.(0) ~dst:terminals.(1) (Routing.Ftable.num_layers bad);
  let findings = Analysis.Lint.table bad in
  check Alcotest.bool "A004" true (has_rule findings "A004-layer-transition")

let test_a005_dead_entry () =
  let ft = torus_table () in
  let g = Routing.Ftable.graph ft in
  let _, _, p = long_pair ft in
  let enabled = Array.make (Graph.num_channels g) true in
  enabled.(p.(1)) <- false;
  let g' = Graph.with_enabled g ~enabled in
  let findings = Analysis.Lint.table ~graph:g' ft in
  check Alcotest.bool "A005" true (has_rule findings "A005-dead-entry");
  check Alcotest.bool "no loop blamed" false (has_rule findings "A002-forwarding-loop")

let test_a006_hop_budget () =
  let ft = clockwise_ring ~switches:8 in
  let findings = Analysis.Lint.table ~hop_budget:`Minimal ft in
  check Alcotest.bool "A006 under `Minimal" true (has_rule findings "A006-nonminimal-hop-budget");
  (* the long way round is 7 hops vs 1 minimal: slack 2 still flags it,
     slack 6 forgives everything on an 8-ring *)
  check Alcotest.bool "A006 under `Slack 2" true
    (has_rule (Analysis.Lint.table ~hop_budget:(`Slack 2) ft) "A006-nonminimal-hop-budget");
  check Alcotest.bool "clean under `Slack 6" false
    (has_rule (Analysis.Lint.table ~hop_budget:(`Slack 6) ft) "A006-nonminimal-hop-budget");
  (* off by default: detours alone never fail the default lint *)
  check Alcotest.bool "A006 off by default" false
    (has_rule (Analysis.Lint.table ft) "A006-nonminimal-hop-budget")

let mutation_property =
  qtest ~count:25 "random mutation maps to its rule id"
    QCheck2.Gen.(pair (int_range 0 2) (int_range 0 10_000))
    (fun (kind, salt) ->
      let ft = route "dfsssp" (Topo_ring.make ~switches:6 ~terminals_per_switch:1) in
      let g = Routing.Ftable.graph ft in
      let terminals = Graph.terminals g in
      let n = Array.length terminals in
      let pick arr = arr.(salt mod Array.length arr) in
      match kind with
      | 0 ->
        (* drop a mid-route entry *)
        let src = pick terminals in
        let dst = terminals.((salt + 1 + (salt mod (n - 1))) mod n) in
        if src = dst then true
        else (
          match Routing.Ftable.path ft ~src ~dst with
          | None | Some [||] -> true
          | Some p ->
            let hole = (Graph.channel g p.(Array.length p - 1)).Channel.src in
            let bad = copy_table ~drop:[ (hole, dst) ] ft in
            has_rule (Analysis.Lint.table bad) "A001-unreachable-dest")
      | 1 ->
        (* push one route's layer past the declared count *)
        let src = pick terminals in
        let dst = terminals.((salt + 1) mod n) in
        if src = dst then true
        else begin
          let bad = copy_table ft in
          Routing.Ftable.set_layer bad ~src ~dst (Routing.Ftable.num_layers bad + (salt mod 3));
          has_rule (Analysis.Lint.table bad) "A004-layer-transition"
        end
      | _ ->
        (* no mutation: fresh tables stay clean and certified (the
           informational A010 slack finding is always present) *)
        let r = Analysis.Analyzer.analyze ft in
        Analysis.Analyzer.ok r
        && Analysis.Diag.num_errors r.Analysis.Analyzer.findings = 0
        && Analysis.Diag.num_warnings r.Analysis.Analyzer.findings = 0
        && has_rule r.Analysis.Analyzer.findings "A010-layer-slack")

(* ------------------------------------------------------------------ *)
(* Ftable_io round trip                                                 *)
(* ------------------------------------------------------------------ *)

let test_ftable_io_roundtrip_analyze () =
  let ft = torus_table () in
  let path = Filename.temp_file "cert_roundtrip" ".ftbl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Testutil.write_file path (Routing.Ftable_io.to_string ft);
      match Routing.Ftable_io.load path with
      | Error msg -> Alcotest.failf "load: %s" msg
      | Ok ft' ->
        (* channel ids are not stable across the Serial round trip (link
           order is canonicalized), so the reloaded table earns its own
           certificate rather than reusing the original's *)
        let r = Analysis.Analyzer.analyze ft' in
        check Alcotest.int "errors" 0 (Analysis.Diag.num_errors r.Analysis.Analyzer.findings);
        check Alcotest.int "warnings" 0 (Analysis.Diag.num_warnings r.Analysis.Analyzer.findings);
        check Alcotest.bool "certified" true (Analysis.Analyzer.ok r);
        check Alcotest.int "layer count preserved" (Routing.Ftable.num_layers ft)
          (Routing.Ftable.num_layers ft'))

(* ------------------------------------------------------------------ *)
(* The epoch-swap gate                                                  *)
(* ------------------------------------------------------------------ *)

let test_epoch_gate_refuses_uncertified () =
  let epochs = Fabric.Epoch.create () in
  let bad = clockwise_ring ~switches:8 in
  (match Fabric.Epoch.try_swap epochs ~label:"bad" bad with
  | Ok _, _ -> Alcotest.fail "cyclic table must not swap in"
  | Error msg, _ ->
    check Alcotest.bool (Printf.sprintf "refusal names the certificate: %S" msg) true
      (String.length msg >= 11 && String.sub msg 0 11 = "certificate"));
  check Alcotest.int "epoch unchanged" 0 (Fabric.Epoch.epoch epochs);
  check Alcotest.bool "no active tables" true (Fabric.Epoch.active epochs = None);
  let good = route "dfsssp" (Topo_ring.make ~switches:8 ~terminals_per_switch:1) in
  (match Fabric.Epoch.try_swap epochs ~label:"good" good with
  | Ok _, _ -> ()
  | Error msg, _ -> Alcotest.failf "certified table refused: %s" msg);
  check Alcotest.int "epoch advanced" 1 (Fabric.Epoch.epoch epochs)

(* ------------------------------------------------------------------ *)
(* Existence analysis and layer lower bounds                            *)
(* ------------------------------------------------------------------ *)

(* A unidirectional ring: ring:n with only the clockwise switch->switch
   channels enabled (terminal channels stay bidirectional). The textbook
   infeasible-budget fabric: every switch-to-switch route is forced the
   same way round, so any deadlock-free routing needs ceil(n/2) layers. *)
let one_way_ring ~switches =
  let g = Topo_ring.make ~switches ~terminals_per_switch:1 in
  let sws = Graph.switches g in
  let n = Array.length sws in
  let next = Hashtbl.create n in
  Array.iteri (fun i s -> Hashtbl.replace next s sws.((i + 1) mod n)) sws;
  let enabled =
    Array.map
      (fun (c : Channel.t) ->
        if Graph.is_switch g c.Channel.src && Graph.is_switch g c.Channel.dst then
          Hashtbl.find next c.Channel.src = c.Channel.dst
        else true)
      (Graph.channels g)
  in
  Graph.with_enabled g ~enabled

let test_existence_one_way_ring () =
  let g = one_way_ring ~switches:8 in
  let ex = Analysis.Existence.analyze g in
  check Alcotest.bool "all demands routable" true (ex.Analysis.Existence.unreachable = None);
  check Alcotest.int "lb = ceil 8/2" 4 ex.Analysis.Existence.min_layers_lb;
  (match ex.Analysis.Existence.cores with
  | [ core ] ->
    check Alcotest.int "core cycle length" 8 (Array.length core.Analysis.Existence.cycle);
    check Alcotest.int "every position hosted" 8 (Array.length core.Analysis.Existence.hosts);
    check Alcotest.int "core bound" 4 core.Analysis.Existence.bound
  | cores -> Alcotest.failf "expected one clean core, got %d" (List.length cores));
  check Alcotest.bool "budget 3 infeasible" false (Analysis.Existence.feasible ex ~budget:3);
  check Alcotest.bool "budget 4 feasible" true (Analysis.Existence.feasible ex ~budget:4);
  (* odd ring: ceil 7/2 = 4 *)
  check Alcotest.int "7-ring lb" 4 (Analysis.Existence.min_layers_lb (one_way_ring ~switches:7))

let test_existence_seeds_feasible () =
  List.iter
    (fun (name, g) ->
      let ex = Analysis.Existence.analyze g in
      check Alcotest.bool (name ^ " routable") true (ex.Analysis.Existence.unreachable = None);
      (* bidirected seeds have no clean unidirectional core *)
      check Alcotest.int (name ^ " lb") 1 ex.Analysis.Existence.min_layers_lb;
      let ft = route "dfsssp" g in
      check Alcotest.bool (name ^ " lb <= achieved") true
        (ex.Analysis.Existence.min_layers_lb <= Routing.Ftable.num_layers ft))
    (seeds ())

let test_existence_unreachable () =
  (* break the one-way ring: disabling one clockwise arc leaves some
     ordered pair with no path at all — rule A008 territory *)
  let g = one_way_ring ~switches:8 in
  let sws = Graph.switches g in
  let enabled = Array.init (Graph.num_channels g) (Graph.channel_enabled g) in
  enabled.(chan_between g sws.(0) sws.(1)) <- false;
  let broken = Graph.with_enabled g ~enabled in
  let ex = Analysis.Existence.analyze broken in
  (match ex.Analysis.Existence.unreachable with
  | None -> Alcotest.fail "expected an unroutable demand"
  | Some (s, d) ->
    let dist = Graph.bfs_dist broken s in
    check Alcotest.bool "reported pair really is unroutable" true (dist.(d) = max_int));
  check Alcotest.bool "no budget helps" false (Analysis.Existence.feasible ex ~budget:64);
  (* and the analyzer surfaces it as A008 via the graph override *)
  let ft = route "dfsssp" (Topo_ring.make ~switches:8 ~terminals_per_switch:1) in
  let r = Analysis.Analyzer.analyze ~graph:broken ft in
  check Alcotest.bool "A008" true (has_rule r.Analysis.Analyzer.findings "A008-no-deadlock-free-routing");
  check Alcotest.bool "not ok" false (Analysis.Analyzer.ok r)

let test_one_way_ring_routed_above_lb () =
  (* ground truth: dfsssp really does route the one-way 8-ring, and it
     cannot beat the provable minimum of 4 layers *)
  let g = one_way_ring ~switches:8 in
  let ft = route ~max_layers:8 "dfsssp" g in
  check Alcotest.bool "uses >= 4 layers" true (Routing.Ftable.num_layers ft >= 4);
  let r = Analysis.Analyzer.analyze ft in
  check Alcotest.bool "certified" true (Analysis.Analyzer.ok r);
  check Alcotest.int "lb in report" 4 r.Analysis.Analyzer.existence.Analysis.Existence.min_layers_lb;
  check Alcotest.bool "A010 slack info" true (has_rule r.Analysis.Analyzer.findings "A010-layer-slack")

let test_a009_budget_infeasible () =
  let g = one_way_ring ~switches:8 in
  let ft = route ~max_layers:8 "dfsssp" g in
  let merged = copy_table ft in
  let terminals = Graph.terminals g in
  Array.iter
    (fun src ->
      Array.iter (fun dst -> if src <> dst then Routing.Ftable.set_layer merged ~src ~dst 0) terminals)
    terminals;
  Routing.Ftable.set_num_layers merged 1;
  let r = Analysis.Analyzer.analyze merged in
  check Alcotest.bool "A009" true (has_rule r.Analysis.Analyzer.findings "A009-layer-budget-infeasible");
  check Alcotest.bool "not ok" false (Analysis.Analyzer.ok r)

let test_epoch_gate_existence () =
  let epochs = Fabric.Epoch.create () in
  let g = one_way_ring ~switches:8 in
  let ft = route ~max_layers:8 "dfsssp" g in
  let undersized = copy_table ft in
  Routing.Ftable.set_num_layers undersized 3;
  (match Fabric.Epoch.try_swap epochs ~label:"undersized" undersized with
  | Ok _, _ -> Alcotest.fail "budget below the provable minimum must not swap in"
  | Error msg, _ ->
    check Alcotest.bool (Printf.sprintf "refusal names existence: %S" msg) true
      (String.length msg >= 9 && String.sub msg 0 9 = "existence"));
  check Alcotest.int "epoch unchanged" 0 (Fabric.Epoch.epoch epochs);
  (* the honestly-layered table passes the same gate *)
  (match Fabric.Epoch.try_swap epochs ~label:"good" ft with
  | Ok _, _ -> ()
  | Error msg, _ -> Alcotest.failf "feasible table refused: %s" msg);
  check Alcotest.int "epoch advanced" 1 (Fabric.Epoch.epoch epochs)

(* ------------------------------------------------------------------ *)
(* Counterexample witnesses                                             *)
(* ------------------------------------------------------------------ *)

let test_core_witness () =
  let g = one_way_ring ~switches:8 in
  let ex = Analysis.Existence.analyze g in
  let core = List.hd ex.Analysis.Existence.cores in
  let w =
    match Analysis.Witness.of_core g core with
    | Ok w -> w
    | Error msg -> Alcotest.failf "of_core: %s" msg
  in
  (match w.Analysis.Witness.kind with
  | Analysis.Witness.Topology_core { min_layers } -> check Alcotest.int "claimed minimum" 4 min_layers
  | Analysis.Witness.Layer_cycle _ -> Alcotest.fail "expected a core witness");
  (match Analysis.Witness.check_graph w g with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "trusted re-check: %s" msg);
  (* text round trip survives the trusted re-check too *)
  (match Testutil.witness_of_string (Analysis.Witness.to_string w) with
  | Error msg -> Alcotest.failf "parse: %s" msg
  | Ok w' ->
    check Alcotest.bool "identical" true (w = w');
    (match Analysis.Witness.check_graph w' g with
    | Ok () -> ()
    | Error msg -> Alcotest.failf "parsed witness fails re-check: %s" msg));
  let json = Obs.Json.to_string (Testutil.witness_to_json w) in
  check Alcotest.bool "json names the kind" true (Testutil.contains json "core")

let test_core_witness_rejects_corruption () =
  let g = one_way_ring ~switches:8 in
  let ex = Analysis.Existence.analyze g in
  let w =
    match Analysis.Witness.of_core g (List.hd ex.Analysis.Existence.cores) with
    | Ok w -> w
    | Error msg -> Alcotest.failf "of_core: %s" msg
  in
  let rejected name w' =
    check Alcotest.bool name true (Result.is_error (Analysis.Witness.check_graph w' g))
  in
  (* a claim above the recomputed piercing bound *)
  rejected "inflated claim rejected"
    { w with Analysis.Witness.kind = Analysis.Witness.Topology_core { min_layers = 5 } };
  (* a claim that is not even a budget violation *)
  rejected "trivial claim rejected"
    { w with Analysis.Witness.kind = Analysis.Witness.Topology_core { min_layers = 1 } };
  (* cycle order broken: head/tail no longer chain *)
  let swapped = Array.copy w.Analysis.Witness.cycle in
  let tmp = swapped.(0) in
  swapped.(0) <- swapped.(1);
  swapped.(1) <- tmp;
  rejected "swapped cycle rejected" { w with Analysis.Witness.cycle = swapped };
  (* duplicate channel: not a simple cycle *)
  let dup = Array.copy w.Analysis.Witness.cycle in
  dup.(1) <- dup.(0);
  rejected "duplicate channel rejected" { w with Analysis.Witness.cycle = dup };
  (* a demand source that is not a terminal *)
  let bad_srcs = Array.copy w.Analysis.Witness.srcs in
  bad_srcs.(0) <- (Graph.switches g).(0);
  rejected "non-terminal demand rejected" { w with Analysis.Witness.srcs = bad_srcs };
  (* wrong graph shape *)
  rejected "channel-space mismatch rejected" { w with Analysis.Witness.num_channels = 3 };
  (* layer witnesses are not acceptable here *)
  rejected "kind mismatch rejected"
    { w with Analysis.Witness.kind = Analysis.Witness.Layer_cycle { layer = 0 } };
  (* truncated text fails to parse at all *)
  let text = Analysis.Witness.to_string w in
  let truncated = String.sub text 0 (String.rindex text 'e') in
  check Alcotest.bool "truncated text rejected" true
    (Result.is_error (Testutil.witness_of_string truncated))

let test_layer_witness () =
  let ft = clockwise_ring ~switches:8 in
  let w =
    match Analysis.Witness.of_table ft with
    | Ok (Some w) -> w
    | Ok None -> Alcotest.fail "clockwise ring must yield a cycle witness"
    | Error msg -> Alcotest.failf "of_table: %s" msg
  in
  (match w.Analysis.Witness.kind with
  | Analysis.Witness.Layer_cycle { layer } -> check Alcotest.int "layer" 0 layer
  | Analysis.Witness.Topology_core _ -> Alcotest.fail "expected a layer witness");
  (* minimization: the 8-ring's chordless CDG cycle has all 8 arcs *)
  check Alcotest.int "minimal cycle length" 8 (Array.length w.Analysis.Witness.cycle);
  (match Analysis.Witness.check_table w ft with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "trusted re-check: %s" msg);
  (match Testutil.witness_of_string (Analysis.Witness.to_string w) with
  | Error msg -> Alcotest.failf "parse: %s" msg
  | Ok w' ->
    check Alcotest.bool "round trip identical" true (w = w'));
  let rejected name w' =
    check Alcotest.bool name true (Result.is_error (Analysis.Witness.check_table w' ft))
  in
  rejected "wrong layer rejected"
    { w with Analysis.Witness.kind = Analysis.Witness.Layer_cycle { layer = 1 } };
  let bad_dsts = Array.copy w.Analysis.Witness.dsts in
  bad_dsts.(0) <- w.Analysis.Witness.srcs.(0);
  rejected "degenerate demand rejected" { w with Analysis.Witness.dsts = bad_dsts };
  rejected "kind mismatch rejected"
    { w with Analysis.Witness.kind = Analysis.Witness.Topology_core { min_layers = 2 } };
  (* a clean table has nothing to witness *)
  match Analysis.Witness.of_table (torus_table ()) with
  | Ok None -> ()
  | Ok (Some _) -> Alcotest.fail "certified table must not yield a witness"
  | Error msg -> Alcotest.failf "of_table on clean table: %s" msg

(* The checker walks only the routes a witness names: turning another
   route into a forwarding loop leaves the witness valid. On ring:8 the
   witness names every destination, so the loop goes between two
   switches that no named route toward that destination crosses. *)
let test_layer_witness_ignores_other_routes () =
  let g = Topo_ring.make ~switches:8 ~terminals_per_switch:1 in
  let ft = route "sssp" g in
  let w =
    match Analysis.Witness.of_table ft with
    | Ok (Some w) -> w
    | Ok None -> Alcotest.fail "sssp on ring:8 must yield a cycle witness"
    | Error msg -> Alcotest.failf "of_table: %s" msg
  in
  let terminals = Array.to_list (Graph.terminals g) in
  let path src dst =
    match Routing.Ftable.path ft ~src ~dst with
    | Some p -> p
    | None -> Alcotest.failf "no route %d -> %d" src dst
  in
  let tail c = (Graph.channel g c).Channel.src and head c = (Graph.channel g c).Channel.dst in
  (* nodes the named routes toward [dst] leave from *)
  let named_nodes dst =
    List.concat
      (List.init (Array.length w.Analysis.Witness.dsts) (fun p ->
           if w.Analysis.Witness.dsts.(p) <> dst then []
           else List.map tail (Array.to_list (path w.Analysis.Witness.srcs.(p) dst))))
  in
  (* a route toward [dst] whose first switch hop s1 -> s2 avoids them *)
  let pick =
    List.find_map
      (fun dst ->
        let named = named_nodes dst in
        List.find_map
          (fun src ->
            if src = dst then None
            else
              let p = path src dst in
              if
                Array.length p >= 3
                && (not (List.mem (tail p.(1)) named))
                && not (List.mem (head p.(1)) named)
              then Some (dst, p.(1))
              else None)
          terminals)
      terminals
  in
  let dst, c1 = match pick with Some x -> x | None -> Alcotest.fail "no route to break" in
  (match Graph.reverse_channel g c1 with
  | Some back -> Routing.Ftable.set_next ft ~node:(head c1) ~dst ~channel:back
  | None -> Alcotest.fail "ring cable without a reverse channel");
  check Alcotest.bool "the table no longer materializes" true
    (Result.is_error (Routing.Ftable.to_store ft));
  match Analysis.Witness.check_table w ft with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "witness refused: %s" msg

(* Satellite: the provable lower bound never exceeds what any registry
   engine actually achieves — on random fabrics, the jittered seed mix,
   and unidirectional rings where the bound is tight. *)
let lb_never_exceeds_achieved =
  qtest ~count:10 "existence: lower bound <= layers achieved by every engine"
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      let rng = Rng.create seed in
      let g =
        match seed mod 3 with
        | 0 -> Testutil.random_graph ~terminals:10 rng
        | 1 -> snd (Testutil.fabric seed)
        | _ -> one_way_ring ~switches:(5 + (seed mod 5))
      in
      let lb = Analysis.Existence.min_layers_lb g in
      lb >= 1
      && List.for_all
           (fun (a : Dfsssp.Registry.algorithm) ->
             match a.Dfsssp.Registry.run g with
             | Error _ -> true (* a refusal is not an achieved layer count *)
             | Ok ft -> (
               (* the bound constrains deadlock-free routings only, so a
                  baseline table the certifier rejects owes it nothing *)
               match Analysis.Analyzer.certify ft with
               | Error _ -> true
               | Ok _ -> lb <= Routing.Ftable.num_layers ft))
           (Dfsssp.Registry.all ~max_layers:16 ()))

(* ------------------------------------------------------------------ *)
(* Rule catalog: explanations and ASCII hygiene                         *)
(* ------------------------------------------------------------------ *)

let test_explain_catalog () =
  check Alcotest.int "catalog size" 10 (List.length Analysis.Diag.catalog);
  let ascii s = String.for_all (fun c -> Char.code c < 128) s in
  List.iter
    (fun (r : Analysis.Diag.rule) ->
      let e = Analysis.Diag.explain r in
      check Alcotest.bool (r.Analysis.Diag.id ^ " has remediation") true
        (String.length e > 0 && e <> "No remediation recorded for this rule.");
      check Alcotest.bool (r.Analysis.Diag.id ^ " title is ASCII") true (ascii r.Analysis.Diag.title);
      check Alcotest.bool (r.Analysis.Diag.id ^ " remediation is ASCII") true (ascii e);
      match Analysis.Diag.find_rule r.Analysis.Diag.id with
      | Some r' -> check Alcotest.bool (r.Analysis.Diag.id ^ " findable") true (r' == r)
      | None -> Alcotest.failf "%s missing from find_rule" r.Analysis.Diag.id)
    Analysis.Diag.catalog;
  check Alcotest.bool "unknown id misses" true (Analysis.Diag.find_rule "A999-bogus" = None)

let () =
  Alcotest.run "analysis"
    [
      ( "cert",
        [
          Alcotest.test_case "certifies dfsssp on the paper seeds" `Quick test_certify_seeds;
          Alcotest.test_case "certify checks the per-pair routes" `Quick test_certify_checks_pairs;
          Alcotest.test_case "incomplete tables: refusal names the pair" `Quick test_incomplete_refusals;
          Alcotest.test_case "certify allocates less than a class walk" `Quick test_certify_allocation;
          Alcotest.test_case "certify walks no route classes" `Quick test_certify_walks_no_classes;
          Alcotest.test_case "certify telemetry is one timer" `Quick test_certify_telemetry;
          Alcotest.test_case "fresh dfsssp/lash/updown tables are clean" `Quick test_fresh_tables_clean;
          Alcotest.test_case "checker rejects corrupted certificates" `Quick test_cert_rejects_corruption;
          Alcotest.test_case "cyclic layer refused (clockwise ring)" `Quick test_cyclic_layer_refused;
          Alcotest.test_case "merged layers refused" `Quick test_merged_layers_refused;
          Alcotest.test_case "certificate text round trip" `Quick test_cert_text_roundtrip;
          Alcotest.test_case "check names the reference scan's first violation" `Quick
            test_cert_check_matches_reference;
          Alcotest.test_case "set_pair_layers inverts pair_layers" `Quick test_set_pair_layers;
        ] );
      ( "lint",
        [
          Alcotest.test_case "A001 dropped entry" `Quick test_a001_dropped_entry;
          Alcotest.test_case "A002 two-cycle" `Quick test_a002_two_cycle;
          Alcotest.test_case "A003 port range (via view)" `Quick test_a003_port_range;
          Alcotest.test_case "A004 layer overflow" `Quick test_a004_layer_overflow;
          Alcotest.test_case "A005 dead entry (degraded fabric)" `Quick test_a005_dead_entry;
          Alcotest.test_case "A006 hop budget" `Quick test_a006_hop_budget;
          mutation_property;
        ] );
      ( "existence",
        [
          Alcotest.test_case "one-way ring forces ceil n/2 layers" `Quick test_existence_one_way_ring;
          Alcotest.test_case "paper seeds are feasible at lb 1" `Quick test_existence_seeds_feasible;
          Alcotest.test_case "A008 unroutable demand" `Quick test_existence_unreachable;
          Alcotest.test_case "dfsssp meets the one-way-ring bound" `Quick test_one_way_ring_routed_above_lb;
          Alcotest.test_case "A009 infeasible layer budget" `Quick test_a009_budget_infeasible;
          Alcotest.test_case "epoch gate refuses infeasible budgets" `Quick test_epoch_gate_existence;
          lb_never_exceeds_achieved;
        ] );
      ( "witness",
        [
          Alcotest.test_case "core witness generates, checks, round trips" `Quick test_core_witness;
          Alcotest.test_case "checker rejects corrupted core witnesses" `Quick
            test_core_witness_rejects_corruption;
          Alcotest.test_case "layer witness generates, checks, round trips" `Quick test_layer_witness;
          Alcotest.test_case "layer witness ignores unnamed broken routes" `Quick
            test_layer_witness_ignores_other_routes;
        ] );
      ( "catalog",
        [
          Alcotest.test_case "every rule has an ASCII explanation" `Quick test_explain_catalog;
        ] );
      ( "integration",
        [
          Alcotest.test_case "Ftable_io save/load/analyze" `Quick test_ftable_io_roundtrip_analyze;
          Alcotest.test_case "epoch gate refuses uncertified tables" `Quick test_epoch_gate_refuses_uncertified;
        ] );
    ]
