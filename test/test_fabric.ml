(* Tests for the live fabric manager subsystem: id-stable fault
   injection, forwarding-table diffing, verified epoch swaps, the full
   recompute with its online fallback, and the end-to-end acceptance run
   on a 4x4x4 torus under a mixed fault schedule. *)

let check = Alcotest.check

(* ------------------------------------------------------------------ *)
(* Helpers                                                              *)
(* ------------------------------------------------------------------ *)

let torus dims = fst (Topo_torus.torus ~dims ~terminals_per_switch:1)

let chan_between g a b =
  let found = ref (-1) in
  Array.iter
    (fun (c : Channel.t) -> if c.Channel.src = a && c.Channel.dst = b then found := c.Channel.id)
    (Graph.channels g);
  if !found < 0 then Alcotest.failf "no channel %d -> %d" a b;
  !found

let first_switch_cable g = (Degrade.switch_cables g).(0)

let route_dfsssp ?(max_layers = 8) g =
  let weights = Routing.Sssp.initial_weights g in
  match Routing.Sssp.route_plane g ~weights with
  | Error msg -> Alcotest.failf "route_plane: %s" msg
  | Ok ft -> (
    match Dfsssp.assign_layers ~max_layers ft with
    | Ok ft -> ft
    | Error e -> Alcotest.failf "assign_layers: %s" (Dfsssp.error_to_string e))

(* The terminals whose forwarding tree in [ft] uses any channel in
   [channels]. *)
let affected_destinations ft ~channels =
  let g = Routing.Ftable.graph ft in
  List.filter
    (fun dst ->
      List.exists
        (fun u ->
          match Routing.Ftable.next ft ~node:u ~dst with
          | Some c -> List.mem c channels
          | None -> false)
        (List.init (Graph.num_nodes g) Fun.id))
    (Array.to_list (Graph.terminals g))

(* ------------------------------------------------------------------ *)
(* Events                                                               *)
(* ------------------------------------------------------------------ *)

let test_event_roundtrip () =
  List.iter
    (fun ev ->
      match Fabric.Event.of_string (Fabric.Event.to_string ev) with
      | Ok ev' -> check Alcotest.bool (Fabric.Event.to_string ev) true (ev = ev')
      | Error msg -> Alcotest.failf "roundtrip %s: %s" (Fabric.Event.to_string ev) msg)
    [ Fabric.Event.Link_down 3; Fabric.Event.Link_up 0; Fabric.Event.Switch_drain 7; Fabric.Event.Switch_remove 12 ]

let test_event_parse_rejects_garbage () =
  List.iter
    (fun s -> check Alcotest.bool s true (Result.is_error (Fabric.Event.of_string s)))
    [ "explode 3"; "down"; "down x"; ""; "up 1 2" ]

(* ------------------------------------------------------------------ *)
(* Id-stable degrade: disable / restore / drain                         *)
(* ------------------------------------------------------------------ *)

let test_disable_restore_id_stable () =
  let g = torus [| 3; 3 |] in
  let nc = Graph.num_channels g in
  let cable = first_switch_cable g in
  match Degrade.disable_cable g ~cable with
  | Error msg -> Alcotest.failf "disable: %s" msg
  | Ok (g', chans) ->
    check Alcotest.int "channel ids preserved" nc (Graph.num_channels g');
    check Alcotest.int "two directed channels down" (nc - 2) (Testutil.num_enabled_channels g');
    List.iter (fun c -> check Alcotest.bool "disabled" false (Graph.channel_enabled g' c)) chans;
    check Alcotest.(list int) "disabled_cables lists the pair" [ List.hd chans ] (Degrade.disabled_cables g');
    check Alcotest.bool "still connected" true (Graph.connected g');
    check Alcotest.bool "still valid" true (Result.is_ok (Graph.validate g'));
    (* the channel record itself is untouched: same endpoints, same id *)
    let c = Graph.channel g cable and c' = Graph.channel g' cable in
    check Alcotest.int "src stable" c.Channel.src c'.Channel.src;
    check Alcotest.int "dst stable" c.Channel.dst c'.Channel.dst;
    (match Degrade.restore_cable g' ~cable with
    | Error msg -> Alcotest.failf "restore: %s" msg
    | Ok (g'', chans') ->
      check Alcotest.(list int) "same pair restored" chans chans';
      check Alcotest.int "all channels back" nc (Testutil.num_enabled_channels g'');
      check Alcotest.(list int) "nothing left disabled" [] (Degrade.disabled_cables g''))

let test_disable_rejections () =
  let g = torus [| 3; 3 |] in
  let t = (Graph.terminals g).(0) in
  let attach = (Graph.out_channels g t).(0) in
  check Alcotest.bool "terminal cable rejected" true (Result.is_error (Degrade.disable_cable g ~cable:attach));
  check Alcotest.bool "unknown cable rejected" true (Result.is_error (Degrade.disable_cable g ~cable:(-1)));
  let cable = first_switch_cable g in
  let g', _ = Result.get_ok (Degrade.disable_cable g ~cable) in
  check Alcotest.bool "double disable rejected" true (Result.is_error (Degrade.disable_cable g' ~cable));
  check Alcotest.bool "restore of an enabled cable rejected" true
    (Result.is_error (Degrade.restore_cable g ~cable))

let test_disable_cut_edge_rejected () =
  (* a line s0 - s1 - s2: both inter-switch cables are cut edges *)
  let b = Builder.create () in
  let s0 = Builder.add_switch b ~name:"s0" in
  let s1 = Builder.add_switch b ~name:"s1" in
  let s2 = Builder.add_switch b ~name:"s2" in
  let _ = Builder.add_terminal b ~name:"t0" ~switch:s0 in
  let _ = Builder.add_terminal b ~name:"t2" ~switch:s2 in
  let c01, _ = Builder.add_link b s0 s1 in
  let c12, _ = Builder.add_link b s1 s2 in
  let g = Builder.build b in
  List.iter
    (fun cable ->
      match Degrade.disable_cable g ~cable with
      | Ok _ -> Alcotest.failf "disabling cut cable %d should be rejected" cable
      | Error _ -> ())
    [ c01; c12 ]

let test_drain_switch () =
  let g = torus [| 3; 3 |] in
  let sw = (Graph.switches g).(0) in
  match Degrade.drain_switch g ~switch:sw with
  | Error msg -> Alcotest.failf "drain: %s" msg
  | Ok (g', chans) ->
    check Alcotest.bool "some cables drained" true (List.length chans >= 2);
    check Alcotest.int "whole pairs only" 0 (List.length chans mod 2);
    check Alcotest.bool "still connected" true (Graph.connected g')

let test_remove_switch_drops_disabled () =
  let g = torus [| 3; 3 |] in
  let victim = (Graph.switches g).(0) in
  let cable =
    Array.to_list (Degrade.switch_cables g)
    |> List.find (fun c ->
           let ch = Graph.channel g c in
           ch.Channel.src <> victim && ch.Channel.dst <> victim)
  in
  let a = (Graph.channel g cable).Channel.src and b = (Graph.channel g cable).Channel.dst in
  let name n = (Graph.node g n).Node.name in
  let g', _ = Result.get_ok (Degrade.disable_cable g ~cable) in
  match Degrade.remove_switch g' ~switch:victim with
  | Error msg -> Alcotest.failf "remove_switch: %s" msg
  | Ok g2 ->
    check Alcotest.int "rebuilt fabric has no disabled channels" (Graph.num_channels g2)
      (Testutil.num_enabled_channels g2);
    let survived =
      Array.exists
        (fun (c : Channel.t) ->
          let ns = (Graph.node g2 c.Channel.src).Node.name
          and nd = (Graph.node g2 c.Channel.dst).Node.name in
          (ns = name a && nd = name b) || (ns = name b && nd = name a))
        (Graph.channels g2)
    in
    check Alcotest.bool "disabled cable dropped by the rebuild" false survived

(* ------------------------------------------------------------------ *)
(* Ftable.diff                                                          *)
(* ------------------------------------------------------------------ *)

(* Hand-built fixture: two switches with one terminal each, one cable. *)
let diff_fixture () =
  let b = Builder.create () in
  let s0 = Builder.add_switch b ~name:"s0" in
  let s1 = Builder.add_switch b ~name:"s1" in
  let t0 = Builder.add_terminal b ~name:"t0" ~switch:s0 in
  let t1 = Builder.add_terminal b ~name:"t1" ~switch:s1 in
  let _ = Builder.add_link b s0 s1 in
  let g = Builder.build b in
  let route () =
    let ft = Routing.Ftable.create g ~algorithm:"hand" in
    List.iter
      (fun (node, dst, nxt) -> Routing.Ftable.set_next ft ~node ~dst ~channel:(chan_between g node nxt))
      [ (s0, t1, s1); (s1, t1, t1); (t0, t1, s0); (s1, t0, s0); (s0, t0, t0); (t1, t0, s1) ];
    ft
  in
  (g, s0, t0, t1, route)

let test_diff_identical () =
  let _, _, _, _, route = diff_fixture () in
  let d = Routing.Ftable.diff (route ()) (route ()) in
  check Alcotest.int "no dsts changed" 0 d.Routing.Ftable.dsts_changed;
  check Alcotest.int "no entries changed" 0 d.Routing.Ftable.entries_changed;
  check Alcotest.int "empty per_dst" 0 (Array.length d.Routing.Ftable.per_dst)

let test_diff_counts_changed_entries () =
  let g, s0, t0, t1, route = diff_fixture () in
  let a = route () and b = route () in
  (* point s0's entry for t1 at its terminal port instead — nonsense as a
     route, but a legal entry, and diff only counts disagreements *)
  Routing.Ftable.set_next b ~node:s0 ~dst:t1 ~channel:(chan_between g s0 t0);
  let d = Routing.Ftable.diff a b in
  check Alcotest.int "one dst changed" 1 d.Routing.Ftable.dsts_changed;
  check Alcotest.int "one entry changed" 1 d.Routing.Ftable.entries_changed;
  check Alcotest.(array (pair int int)) "per_dst pins the destination" [| (t1, 1) |] d.Routing.Ftable.per_dst

let test_diff_mismatch_rejected () =
  let _, _, _, _, route = diff_fixture () in
  let other = route_dfsssp (torus [| 3; 3 |]) in
  check Alcotest.bool "different fabrics rejected" true
    (match Routing.Ftable.diff (route ()) other with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* ------------------------------------------------------------------ *)
(* Affected destinations                                                *)
(* ------------------------------------------------------------------ *)

(* A single switch cable carries the trees of some destinations but never
   of all of them: the helper behind [used_cable] and the "no route uses
   the failed cable" checks picks out a strict, non-empty subset. *)
let test_affected_strictly_fewer_than_full () =
  let g = torus [| 4; 4 |] in
  let ft = route_dfsssp g in
  let total = Graph.num_terminals g in
  let some_cable_in_use = ref false in
  Array.iter
    (fun cable ->
      let pair = Option.get (Graph.reverse_channel g cable) in
      let affected = affected_destinations ft ~channels:[ cable; pair ] in
      if affected <> [] then some_cable_in_use := true;
      check Alcotest.bool "strictly fewer destinations than a full recompute" true
        (List.length affected < total))
    (Degrade.switch_cables g);
  check Alcotest.bool "routing does use the switch cables" true !some_cable_in_use

(* ------------------------------------------------------------------ *)
(* Manager                                                              *)
(* ------------------------------------------------------------------ *)

let counter name =
  match Obs.Registry.find_counter (Obs.Registry.default ()) name with
  | Some c -> Obs.Counter.value c
  | None -> Alcotest.failf "%s counter not registered" name

let timer_count name =
  match Obs.Registry.find_timer (Obs.Registry.default ()) name with
  | Some t -> Obs.Timer.count t
  | None -> Alcotest.failf "%s timer not registered" name

let spec_graph spec =
  match Harness.Topospec.parse spec with
  | Ok t -> t.Harness.Topospec.graph
  | Error msg -> Alcotest.failf "%s: %s" spec msg

(* A switch cable some of the manager's active routes use. *)
let used_cable mgr g =
  Array.to_list (Degrade.switch_cables g)
  |> List.find (fun c ->
         let pair = Option.get (Graph.reverse_channel g c) in
         affected_destinations (Fabric.Manager.tables mgr) ~channels:[ c; pair ] <> [])

let check_verified what (o : Fabric.Manager.outcome) =
  match o.Fabric.Manager.verify with
  | Some r -> check Alcotest.bool (what ^ " verified deadlock-free") true r.Dfsssp.Verify.deadlock_free
  | None -> Alcotest.failf "%s: no verified swap (%s)" what o.Fabric.Manager.note

let test_manager_single_link_full () =
  let g = torus [| 4; 4 |] in
  let mgr = Result.get_ok (Fabric.Manager.create g) in
  let cable = used_cable mgr g in
  let full_swap what (o : Fabric.Manager.outcome) =
    check Alcotest.bool (what ^ " applied") true o.Fabric.Manager.applied;
    (match o.Fabric.Manager.action with
    | Fabric.Manager.Full _ -> ()
    | _ -> Alcotest.failf "%s: expected a full recompute" what);
    check Alcotest.bool (what ^ ": placed offline") false o.Fabric.Manager.fallback;
    check_verified what o;
    match o.Fabric.Manager.table_diff with
    | Some d -> check Alcotest.bool (what ^ ": routes moved") true (d.Routing.Ftable.entries_changed > 0)
    | None -> Alcotest.failf "%s: full swap on the same fabric without a table diff" what
  in
  let o = Fabric.Manager.apply mgr (Fabric.Event.Link_down cable) in
  full_swap "down" o;
  check Alcotest.int "epoch advanced" 2 o.Fabric.Manager.epoch;
  check Alcotest.bool "no route uses the failed cable" true
    (affected_destinations (Fabric.Manager.tables mgr)
       ~channels:[ cable; Option.get (Graph.reverse_channel g cable) ]
    = []);
  full_swap "up" (Fabric.Manager.apply mgr (Fabric.Event.Link_up cable));
  let m = Fabric.Manager.metrics mgr in
  check Alcotest.int "two full recomputes" 2 (Fabric.Metrics.full_recomputes m);
  check Alcotest.int "no online fallback" 0 (Fabric.Metrics.fallbacks m);
  check Alcotest.bool "converged" true (Fabric.Manager.converged mgr)

let test_manager_rejects_bad_event () =
  let g = torus [| 3; 3 |] in
  let mgr = Result.get_ok (Fabric.Manager.create g) in
  let t = (Graph.terminals g).(0) in
  let attach = (Graph.out_channels g t).(0) in
  let o = Fabric.Manager.apply mgr (Fabric.Event.Link_down attach) in
  check Alcotest.bool "not applied" false o.Fabric.Manager.applied;
  check Alcotest.int "epoch unchanged" 1 o.Fabric.Manager.epoch;
  check Alcotest.int "counted as rejected" 1 (Fabric.Metrics.events_rejected (Fabric.Manager.metrics mgr));
  check Alcotest.bool "rejection does not break convergence" true (Fabric.Manager.converged mgr)

(* torus:5x5 with three layers: after "down 2" Algorithm 2 runs out of
   layers, and the online placement of the same SSSP routes fits. Only
   the fallback runs the online placement, under its own stage timer. *)
let test_manager_online_fallback_on_layer_budget () =
  let g = spec_graph "torus:5x5" in
  let config = { Fabric.Manager.default_config with max_layers = 3 } in
  let online () = (timer_count "online.assign", counter "online.cycle_checks") in
  let before_create = online () in
  let mgr = Result.get_ok (Fabric.Manager.create ~config g) in
  let samples, checks = online () in
  check Alcotest.(pair int int) "bring-up places offline only" before_create (samples, checks);
  let o = Fabric.Manager.apply mgr (Fabric.Event.Link_down 2) in
  check Alcotest.int "one online.assign sample" (samples + 1) (timer_count "online.assign");
  check Alcotest.bool "online.cycle_checks counted" true (counter "online.cycle_checks" > checks);
  check Alcotest.bool "applied" true o.Fabric.Manager.applied;
  (match o.Fabric.Manager.action with
  | Fabric.Manager.Full _ -> ()
  | _ -> Alcotest.fail "expected a full recompute");
  check Alcotest.bool "placed online" true o.Fabric.Manager.fallback;
  check Alcotest.bool "note names the offline exhaustion" true
    (Testutil.contains o.Fabric.Manager.note "offline layer assignment failed: cycle remains");
  check_verified "fallback" o;
  check Alcotest.bool "within max_layers" true
    (Routing.Ftable.num_layers (Fabric.Manager.tables mgr) <= 3);
  let m = Fabric.Manager.metrics mgr in
  check Alcotest.int "one online fallback" 1 (Fabric.Metrics.fallbacks m);
  check Alcotest.int "one full recompute swapped" 1 (Fabric.Metrics.full_recomputes m);
  check Alcotest.bool "converged" true (Fabric.Manager.converged mgr)

(* torus:5x5 with two layers: neither placement fits, and the refusal
   names both failures. *)
let test_manager_create_names_both_failures () =
  let config = { Fabric.Manager.default_config with max_layers = 2 } in
  match Fabric.Manager.create ~config (spec_graph "torus:5x5") with
  | Ok _ -> Alcotest.fail "torus:5x5 fits two layers"
  | Error msg ->
    check Alcotest.bool "names the offline failure" true (Testutil.contains msg "cycle remains");
    check Alcotest.bool "names the online failure" true (Testutil.contains msg "fits no layer")

(* torus:7x7 with four layers: Algorithm 2 runs out at bring-up, so the
   initial tables are the online placement of the same SSSP routes —
   the table [route --online] prints — and the fallback is counted. *)
let test_manager_bringup_fallback_counted () =
  let g = spec_graph "torus:7x7" in
  let config = { Fabric.Manager.default_config with max_layers = 4 } in
  let mgr = Result.get_ok (Fabric.Manager.create ~config g) in
  check Alcotest.int "one online fallback" 1 (Fabric.Metrics.fallbacks (Fabric.Manager.metrics mgr));
  (match Fabric.Manager.initial_fallback mgr with
  | Some note ->
    check Alcotest.bool "names the offline exhaustion" true
      (Testutil.contains note "offline layer assignment failed: cycle remains")
  | None -> Alcotest.fail "bring-up reports no fallback");
  match Dfsssp.route ~variant:Dfsssp.Online ~max_layers:4 g with
  | Error e -> Alcotest.failf "online route: %s" (Dfsssp.error_to_string e)
  | Ok online ->
    check Alcotest.string "the online table" (Routing.Ftable_io.to_string online)
      (Routing.Ftable_io.to_string (Fabric.Manager.tables mgr))

(* Forwarding entries of [ft] over a channel its fabric has disabled. *)
let dead_entries ft =
  let fabric = Routing.Ftable.graph ft in
  let n = ref 0 in
  Array.iter
    (fun dst ->
      for u = 0 to Graph.num_nodes fabric - 1 do
        match Routing.Ftable.next ft ~node:u ~dst with
        | Some c when not (Graph.channel_enabled fabric c) -> incr n
        | _ -> ()
      done)
    (Graph.terminals fabric);
  !n

(* torus:4x4 with two layers under a mixed schedule (drains and switch
   removals included): at "down 74" both Algorithm 2 and the online
   placement run out of layers, so the stale tables stay active. Every
   later swap is a full recompute of the fabric as it stands, so no swapped
   table keeps an entry over a cable an earlier event took down. The
   schedule is [fabric_tool manage torus:4x4 --max-layers 2 --events 40
   --seed 2 --switch-removals 2 --drains 2 --print-schedule]. *)
let test_manager_stale_when_both_fail () =
  let g = spec_graph "torus:4x4" in
  let config = { Fabric.Manager.default_config with max_layers = 2 } in
  let mgr = Result.get_ok (Fabric.Manager.create ~config g) in
  let schedule =
    Result.get_ok
      (Fabric.Schedule.of_string
         "down 78\ndown 66\ndrain 4\ndown 62\nup 62\nup 26\ndown 12\ndown 38\ndown 74\nup 66\n\
          up 74\nup 24\ndown 48\ndown 24\ndown 66\ndown 32\ndown 72\nup 48\nup 0\ndown 60\n\
          up 24\nup 72\ndown 14\nremove 0\ndown 52\nup 52\ndown 44\nremove 14\ndown 54\nup 54\n\
          down 60\nup 60\ndown 56\ndown 28\nup 56\ndown 46\ndown 56\ndown 52\nup 46\ndrain 0\n")
  in
  let stale_at = 8 in
  List.iteri
    (fun i event ->
      let before = Fabric.Manager.epoch mgr in
      let o = Fabric.Manager.apply mgr event in
      let what = Fabric.Event.to_string event in
      check Alcotest.bool (what ^ " applied") true o.Fabric.Manager.applied;
      if i = stale_at then begin
        check Alcotest.string "the stale event" "down 74" what;
        check Alcotest.bool "no swap" true (o.Fabric.Manager.verify = None);
        check Alcotest.int "epoch unchanged" before o.Fabric.Manager.epoch;
        check Alcotest.bool "note names the offline failure" true
          (Testutil.contains o.Fabric.Manager.note "offline layer assignment failed: cycle remains");
        check Alcotest.bool "note names the online failure" true
          (Testutil.contains o.Fabric.Manager.note "online placement failed: route")
      end
      else if i > stale_at && o.Fabric.Manager.verify <> None then
        check Alcotest.int (what ^ ": no entry over a down channel") 0
          (dead_entries (Fabric.Manager.tables mgr)))
    schedule;
  check Alcotest.bool "not converged" false (Fabric.Manager.converged mgr)

(* The acceptance run: 4x4x4 torus, 10-event mixed schedule (link downs, a
   link up, one switch removal). With layers to spare every applied event
   ends in a verified full swap that Algorithm 2 placed. *)
let test_manager_acceptance_4x4x4 () =
  let g = torus [| 4; 4; 4 |] in
  let rng = Rng.create 3 in
  let schedule = Fabric.Schedule.generate g ~rng ~events:10 ~switch_removals:1 () in
  check Alcotest.int "full-length schedule" 10 (List.length schedule);
  check Alcotest.bool "schedule restores a link" true
    (List.exists (function Fabric.Event.Link_up _ -> true | _ -> false) schedule);
  check Alcotest.bool "schedule removes a switch" true
    (List.exists (function Fabric.Event.Switch_remove _ -> true | _ -> false) schedule);
  let mgr = Result.get_ok (Fabric.Manager.create g) in
  let outcomes = List.map (Fabric.Manager.apply mgr) schedule in
  let full = ref 0 in
  List.iter
    (fun (o : Fabric.Manager.outcome) ->
      check Alcotest.bool "event applied" true o.Fabric.Manager.applied;
      check Alcotest.bool "placed offline" false o.Fabric.Manager.fallback;
      match o.Fabric.Manager.action with
      | Fabric.Manager.Noop -> ()
      | Fabric.Manager.Full _ | Fabric.Manager.Incremental _ ->
        incr full;
        check_verified "full swap" o)
    outcomes;
  let m = Fabric.Manager.metrics mgr in
  check Alcotest.int "every table-changing event a full swap" !full (Fabric.Metrics.full_recomputes m);
  check Alcotest.int "zero online fallbacks" 0 (Fabric.Metrics.fallbacks m);
  check Alcotest.bool "converged" true (Fabric.Manager.converged mgr);
  check Alcotest.bool "oracle: final tables deadlock-free" true
    (Oracles.Acyclic_ref.deadlock_free (Fabric.Manager.tables mgr))

(* ------------------------------------------------------------------ *)
(* Epoch snapshots and shutdown (the controller daemon's serving path)   *)
(* ------------------------------------------------------------------ *)

let test_snapshot_cached_per_epoch () =
  let g = torus [| 3; 3 |] in
  let mgr = Result.get_ok (Fabric.Manager.create g) in
  let snap1 =
    match Fabric.Manager.snapshot mgr with
    | Ok s -> s
    | Error msg -> Alcotest.failf "snapshot: %s" msg
  in
  check Alcotest.int "snapshot epoch" (Fabric.Manager.epoch mgr) snap1.Fabric.Epoch.snap_epoch;
  (* Same epoch, same export: the arena walk is paid once. *)
  let snap1' = Result.get_ok (Fabric.Manager.snapshot mgr) in
  check Alcotest.bool "cached store" true (snap1.Fabric.Epoch.store == snap1'.Fabric.Epoch.store);
  (* A swap installs a new snapshot; the old one is untouched (graceful
     drain for readers holding it). *)
  let paths_before = Deadlock.Route_store.num_paths snap1.Fabric.Epoch.store in
  check Alcotest.bool "snapshot populated" true (paths_before > 0);
  let cable = first_switch_cable g in
  let o = Fabric.Manager.apply mgr (Fabric.Event.Link_down cable) in
  check Alcotest.bool "event applied" true o.Fabric.Manager.applied;
  let snap2 = Result.get_ok (Fabric.Manager.snapshot mgr) in
  check Alcotest.bool "new epoch exported" true
    (snap2.Fabric.Epoch.snap_epoch > snap1.Fabric.Epoch.snap_epoch);
  (* the swap installed a new export; the old one was not mutated *)
  check Alcotest.int "old snapshot still serves every pair" paths_before
    (Deadlock.Route_store.num_paths snap1.Fabric.Epoch.store);
  check Alcotest.bool "stores distinct" true
    (not (snap1.Fabric.Epoch.store == snap2.Fabric.Epoch.store))

let test_shutdown_idempotent_and_usable () =
  let g = torus [| 4; 4 |] in
  let config = { Fabric.Manager.default_config with domains = 2 } in
  let mgr = Result.get_ok (Fabric.Manager.create ~config g) in
  let cable = first_switch_cable g in
  let o = Fabric.Manager.apply mgr (Fabric.Event.Link_down cable) in
  check Alcotest.bool "applied with pool" true o.Fabric.Manager.applied;
  Fabric.Manager.shutdown mgr;
  Fabric.Manager.shutdown mgr;
  (* Shutdown releases the domain pool and flushes sinks but the manager
     stays usable: later recomputes just run without a persistent pool. *)
  let o2 = Fabric.Manager.apply mgr (Fabric.Event.Link_up cable) in
  check Alcotest.bool "applied after shutdown" true o2.Fabric.Manager.applied;
  Fabric.Manager.shutdown mgr

(* ------------------------------------------------------------------ *)
(* One materialisation and one proof per swap                           *)
(* ------------------------------------------------------------------ *)

(* Table walks: per-pair ones into a route store and route-class ones. *)
let walk_count () = counter "routing.to_store" + counter "routing.class_walks"

(* [materialisations f] is [f ()] and the number of table walks it cost. *)
let materialisations f =
  let before = walk_count () in
  let r = f () in
  (r, walk_count () - before)

let ok_snapshot mgr =
  match Fabric.Manager.snapshot mgr with
  | Ok s -> s
  | Error msg -> Alcotest.failf "snapshot: %s" msg

let test_materialisations_per_swap () =
  let g = torus [| 4; 4 |] in
  (* bring-up: one walk, for layer assignment; the trusted checker reads
     the table's trees, the statistics and the snapshot read the placed
     classes, and the first snapshot is free *)
  let (mgr, snap1), n =
    materialisations (fun () ->
        let mgr = Result.get_ok (Fabric.Manager.create g) in
        (mgr, ok_snapshot mgr))
  in
  check Alcotest.int "create + first snapshot" 1 n;
  (* a full event costs the same one walk *)
  let (o, snap2), n =
    materialisations (fun () ->
        let o = Fabric.Manager.apply mgr (Fabric.Event.Link_down (used_cable mgr g)) in
        (o, ok_snapshot mgr))
  in
  (match o.Fabric.Manager.action with
  | Fabric.Manager.Full _ -> ()
  | _ -> Alcotest.fail "expected a full recompute");
  check Alcotest.int "full down + snapshot" 1 n;
  check Alcotest.bool "new epoch, new store" false (snap1.Fabric.Epoch.store == snap2.Fabric.Epoch.store);
  check Alcotest.bool "snapshot serves the swapped tables" true
    (snap2.Fabric.Epoch.tables == Fabric.Manager.tables mgr);
  (* an online fallback places the failed offline pass's classes, so it
     costs the same one walk *)
  let config = { Fabric.Manager.default_config with max_layers = 3 } in
  let mgr = Result.get_ok (Fabric.Manager.create ~config (spec_graph "torus:5x5")) in
  let (o, _), n =
    materialisations (fun () ->
        let o = Fabric.Manager.apply mgr (Fabric.Event.Link_down 2) in
        (o, ok_snapshot mgr))
  in
  check Alcotest.bool "placed online" true o.Fabric.Manager.fallback;
  check Alcotest.int "fallback down + snapshot" 1 n

(* Epoch-level view of the same contract: handed the classes the build
   placed, the swap walks nothing (the certifier reads the table's
   trees), and neither do snapshots; the store it serves holds every
   pair's walk of the certified table. *)
let test_snapshot_is_certified_store () =
  let g = torus [| 4; 4 |] in
  let built =
    match Dfsssp.build g with
    | Ok b -> b
    | Error e -> Alcotest.failf "build: %s" (Dfsssp.error_to_string e)
  in
  let ft = built.Dfsssp.table in
  let epochs = Fabric.Epoch.create () in
  let swapped, n =
    materialisations (fun () -> Fabric.Epoch.try_swap ~classes:built.Dfsssp.classes epochs ~label:"first" ft)
  in
  let gate_report =
    match swapped with
    | Ok r -> r
    | Error msg -> Alcotest.failf "try_swap: %s" msg
  in
  check Alcotest.int "the swap walks nothing" 0 n;
  let (snap, again), n =
    materialisations (fun () ->
        (Result.get_ok (Fabric.Epoch.snapshot epochs), Result.get_ok (Fabric.Epoch.snapshot epochs)))
  in
  check Alcotest.int "snapshots walk nothing" 0 n;
  check Alcotest.bool "one store per epoch" true (snap.Fabric.Epoch.store == again.Fabric.Epoch.store);
  check Alcotest.bool "snapshot carries the gate's report" true (snap.Fabric.Epoch.report == gate_report);
  check Alcotest.int "epoch 1" 1 snap.Fabric.Epoch.snap_epoch;
  (* the snapshot serves the certified table: every pair's slice is its
     table walk *)
  let store = snap.Fabric.Epoch.store and nt = Graph.num_terminals g in
  check Alcotest.int "every pair stored" (nt * (nt - 1)) (Deadlock.Route_store.num_paths store);
  Deadlock.Route_store.iter_pairs store (fun pair ->
      let src, dst = Routing.Ftable.pair_of_id ft pair in
      if Some (Deadlock.Route_store.to_path store ~pair) <> Routing.Ftable.path ft ~src ~dst then
        Alcotest.failf "pair %d is not the table's route" pair);
  (* the store-based report agrees with the full verifier *)
  match Dfsssp.Verify.report ft with
  | Error msg -> Alcotest.failf "verify: %s" msg
  | Ok r ->
    let s = snap.Fabric.Epoch.report in
    check Alcotest.bool "same statistics" true (s.Dfsssp.Verify.stats = r.Dfsssp.Verify.stats);
    check Alcotest.int "same max layer" r.Dfsssp.Verify.max_layer_seen s.Dfsssp.Verify.max_layer_seen;
    check Alcotest.bool "verdict: deadlock-free" true r.Dfsssp.Verify.deadlock_free;
    check Alcotest.bool "oracle agrees: deadlock-free" true (Oracles.Acyclic_ref.deadlock_free ft)

(* The runtime stage split: every stage of a bring-up fires exactly one
   sample of its own registry timer, so the stages a bench reports are
   the ones a running manager exports. *)
let stage_timers =
  [
    "sssp.route_destinations";
    "dfsssp.class_walk";
    "layers.assign";
    "analysis.existence";
    "analysis.certify";
    "epoch.swap_stats";
    "epoch.snapshot_expand";
  ]

let test_stage_timers_per_create () =
  let g = torus [| 3; 3 |] in
  Obs.Control.with_enabled true (fun () ->
      for _ = 1 to 2 do
        let before = List.map timer_count stage_timers in
        let mgr = Result.get_ok (Fabric.Manager.create g) in
        ignore (ok_snapshot mgr);
        Fabric.Manager.shutdown mgr;
        List.iter2
          (fun name b -> check Alcotest.int (name ^ ": one sample per create") (b + 1) (timer_count name))
          stage_timers before;
        (* the bring-up's route stage is timed like its verify stage *)
        let m = Fabric.Manager.metrics mgr in
        check Alcotest.int "fabric.repair: one sample per create" 1 (Obs.Timer.count m.Fabric.Metrics.repair);
        check Alcotest.int "fabric.verify: one sample per create" 1 (Obs.Timer.count m.Fabric.Metrics.verify);
        Alcotest.(check bool) "bring-up route time > 0" true (Obs.Timer.sum_s m.Fabric.Metrics.repair > 0.0)
      done)

(* A timed stage is a pause point: one [Manager.apply] on a live
   manager, under a stage hook that notes which timers ended since the
   hook last ran, and the epoch the manager reads. The timers are
   [stage_timers], the stages inside Algorithm 2 and the certifier's
   sub-stages. A 4x4 torus needs two layers, so Algorithm 2 evicts (a
   3x3 torus routes in one and never does). *)
let pause_timers =
  stage_timers
  @ [
      "layers.rebuild";
      "layers.condense";
      "layers.evict";
      "analysis.certify_walk";
      "analysis.certify_generate";
      "analysis.certify_check";
    ]

let timer_sum name =
  match Obs.Registry.find_timer (Obs.Registry.default ()) name with
  | Some t -> Obs.Timer.sum_s t
  | None -> Alcotest.failf "%s timer not registered" name

(* One pause: the timers that ended before it (one entry per sample), and
   whether one of them may have started after the previous pause (or
   the apply's start). A stage that started then and ended by this pause
   lasted at most the gap between the two, so some timer's new samples
   average at most the gap; a stage that was already running at the
   previous pause lasted longer than the hook did. The 1 ns slack
   absorbs the rounding of the summed durations. *)
type pause = {
  ended : string list;
  started : bool;
}

type paused_apply = {
  outcome : Fabric.Manager.outcome;
  epoch_before : int;
  ended : int list; (* per timer: samples the apply recorded *)
  trailing : int list; (* per timer: samples after the last pause *)
  pauses : pause list;
  hook_epochs : int list;
}

let paused_apply () =
  let g = torus [| 4; 4 |] in
  let mgr = Result.get_ok (Fabric.Manager.create g) in
  let epoch_before = Fabric.Manager.epoch mgr in
  let counts () = List.map (fun name -> (timer_count name, timer_sum name)) pause_timers in
  let start = counts () in
  let last = ref start and pauses = ref [] and hook_epochs = ref [] in
  let resumed = ref 0.0 in
  let hook () =
    let gap = Unix.gettimeofday () -. !resumed in
    let now = counts () in
    let deltas =
      List.map2 (fun (b, sb) (a, sa) -> (a - b, sa -. sb)) !last now
    in
    pauses :=
      {
        ended =
          List.concat
            (List.map2 (fun name (n, _) -> List.init n (fun _ -> name)) pause_timers deltas);
        started =
          List.exists (fun (n, sum) -> n > 0 && sum <= (float_of_int n *. gap) +. 1e-9) deltas;
      }
      :: !pauses;
    last := now;
    hook_epochs := Fabric.Manager.epoch mgr :: !hook_epochs;
    resumed := Unix.gettimeofday ()
  in
  let outcome =
    Obs.Timer.with_stage_hook (Some hook) (fun () ->
        resumed := Unix.gettimeofday ();
        Fabric.Manager.apply mgr (Fabric.Event.Link_down (first_switch_cable g)))
  in
  let stop = counts () in
  Fabric.Manager.shutdown mgr;
  {
    outcome;
    epoch_before;
    ended = List.map2 (fun (a, _) (b, _) -> a - b) stop start;
    trailing = List.map2 (fun (a, _) (b, _) -> a - b) stop !last;
    pauses = List.rev !pauses;
    hook_epochs = List.rev !hook_epochs;
  }

let test_apply_pauses_at_stage_ends () =
  let r = paused_apply () in
  check Alcotest.bool "the event swapped in verified tables" true (r.outcome.Fabric.Manager.verify <> None);
  (* fabric.apply, fabric.repair and fabric.verify wrap the stages
     below and end right after them, so they add no pause *)
  check Alcotest.int "pauses per apply" 13 (List.length r.pauses);
  List.iter2
    (fun name n -> check Alcotest.bool (name ^ " ended during the apply") true (n > 0))
    pause_timers r.ended;
  (* no two pauses without a stage started between them: nested stages
     that end together pause once *)
  List.iter
    (fun (p : pause) ->
      check Alcotest.bool
        ("a stage started between two pauses: " ^ String.concat ", " p.ended)
        true p.started)
    r.pauses;
  List.iter2
    (fun name n -> check Alcotest.int (name ^ ": no stage end after the last pause") 0 n)
    pause_timers r.trailing

let test_hook_reads_pre_swap_epoch () =
  let r = paused_apply () in
  check Alcotest.bool "the hook ran" true (r.hook_epochs <> []);
  List.iter (fun e -> check Alcotest.int "epoch read inside the hook" r.epoch_before e) r.hook_epochs;
  check Alcotest.int "the apply published the next epoch" (r.epoch_before + 1) r.outcome.Fabric.Manager.epoch

(* Every pair's snapshot slice is the table walk. *)
let check_snapshot_parity name g =
  let mgr = Result.get_ok (Fabric.Manager.create g) in
  let snap = ok_snapshot mgr in
  let ft = snap.Fabric.Epoch.tables in
  let terms = Graph.terminals g in
  check Alcotest.int (name ^ ": every pair stored")
    (Array.length terms * (Array.length terms - 1))
    (Deadlock.Route_store.num_paths snap.Fabric.Epoch.store);
  Array.iter
    (fun src ->
      Array.iter
        (fun dst ->
          if src <> dst then
            let pair = Routing.Ftable.pair_id ft ~src ~dst in
            check
              Alcotest.(option (array int))
              (Printf.sprintf "%s: %d -> %d" name src dst)
              (Routing.Ftable.path ft ~src ~dst)
              (Some (Deadlock.Route_store.to_path snap.Fabric.Epoch.store ~pair)))
        terms)
    terms;
  Fabric.Manager.shutdown mgr

let test_snapshot_parity () =
  check_snapshot_parity "torus 4x4" (torus [| 4; 4 |]);
  match Harness.Topospec.parse "jellyfish:10,6,3:3" with
  | Ok t -> check_snapshot_parity "jellyfish" t.Harness.Topospec.graph
  | Error msg -> Alcotest.failf "jellyfish spec: %s" msg

(* A candidate the certificate refuses changes nothing that is served. *)
let test_refused_candidate_keeps_snapshot () =
  let g = Topo_ring.make ~switches:5 ~terminals_per_switch:1 in
  let epochs = Fabric.Epoch.create () in
  (match Fabric.Epoch.try_swap epochs ~label:"good" (route_dfsssp g) with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "dfsssp refused: %s" msg);
  let before = Result.get_ok (Fabric.Epoch.snapshot epochs) in
  (* plain SSSP in one layer: cyclic on the ring, so no certificate *)
  let bad = Result.get_ok (Routing.Sssp.route g) in
  check Alcotest.bool "oracle: candidate is cyclic" false (Oracles.Acyclic_ref.deadlock_free bad);
  let result, n = materialisations (fun () -> Fabric.Epoch.try_swap epochs ~label:"bad" bad) in
  (match result with
  | Ok _ -> Alcotest.fail "cyclic candidate installed"
  | Error msg ->
    check Alcotest.bool "refused by the certificate" true (Testutil.contains msg "certificate:"));
  check Alcotest.int "refusal walks nothing" 0 n;
  let after = Result.get_ok (Fabric.Epoch.snapshot epochs) in
  check Alcotest.bool "snapshot unchanged" true (after == before);
  check Alcotest.int "epoch unchanged" 1 (Fabric.Epoch.epoch epochs);
  check Alcotest.bool "refused tables not active" true
    (match Fabric.Epoch.active epochs with Some ft -> ft == before.Fabric.Epoch.tables | None -> false);
  check Alcotest.int "no history entry" 1 (List.length (Fabric.Epoch.history epochs))

(* ------------------------------------------------------------------ *)
(* Schedules                                                            *)
(* ------------------------------------------------------------------ *)

let test_schedule_deterministic_roundtrip () =
  let g = torus [| 4; 4 |] in
  let gen seed =
    Fabric.Schedule.generate g ~rng:(Rng.create seed) ~events:8 ~switch_removals:1 ~drains:1 ()
  in
  check Alcotest.bool "deterministic in the seed" true (gen 7 = gen 7);
  let s = gen 7 in
  check Alcotest.bool "non-trivial schedule" true (List.length s > 0);
  match Fabric.Schedule.of_string (Fabric.Schedule.to_string s) with
  | Ok s' -> check Alcotest.bool "text roundtrip" true (s = s')
  | Error msg -> Alcotest.failf "roundtrip: %s" msg

let test_schedule_parse () =
  match Fabric.Schedule.of_string "# maintenance window\ndown 3\n\nup 3\nremove 1\n" with
  | Ok [ Fabric.Event.Link_down 3; Fabric.Event.Link_up 3; Fabric.Event.Switch_remove 1 ] -> ()
  | Ok s -> Alcotest.failf "unexpected parse: %s" (Fabric.Schedule.to_string s)
  | Error msg -> Alcotest.failf "parse: %s" msg

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "fabric"
    [
      ( "event",
        [
          Alcotest.test_case "text roundtrip" `Quick test_event_roundtrip;
          Alcotest.test_case "garbage rejected" `Quick test_event_parse_rejects_garbage;
        ] );
      ( "degrade",
        [
          Alcotest.test_case "disable/restore keeps ids" `Quick test_disable_restore_id_stable;
          Alcotest.test_case "rejections" `Quick test_disable_rejections;
          Alcotest.test_case "cut edges survive" `Quick test_disable_cut_edge_rejected;
          Alcotest.test_case "drain keeps connectivity" `Quick test_drain_switch;
          Alcotest.test_case "rebuild drops disabled cables" `Quick test_remove_switch_drops_disabled;
        ] );
      ( "ftable-diff",
        [
          Alcotest.test_case "identical tables" `Quick test_diff_identical;
          Alcotest.test_case "counts changed entries" `Quick test_diff_counts_changed_entries;
          Alcotest.test_case "mismatched fabrics rejected" `Quick test_diff_mismatch_rejected;
        ] );
      ( "repair",
        [
          Alcotest.test_case "affected < full recompute" `Quick test_affected_strictly_fewer_than_full;
        ] );
      ( "manager",
        [
          Alcotest.test_case "single link down/up full swap" `Quick test_manager_single_link_full;
          Alcotest.test_case "bad events rejected" `Quick test_manager_rejects_bad_event;
          Alcotest.test_case "layer budget fallback" `Quick test_manager_online_fallback_on_layer_budget;
          Alcotest.test_case "create names both failed placements" `Quick
            test_manager_create_names_both_failures;
          Alcotest.test_case "stale when both placements fail" `Quick test_manager_stale_when_both_fail;
          Alcotest.test_case "acceptance: 4x4x4 torus, mixed schedule" `Quick test_manager_acceptance_4x4x4;
          Alcotest.test_case "bring-up fallback counted" `Quick test_manager_bringup_fallback_counted;
        ] );
      ( "epoch-snapshot",
        [
          Alcotest.test_case "cached per epoch, immutable" `Quick test_snapshot_cached_per_epoch;
          Alcotest.test_case "shutdown idempotent, manager usable" `Quick test_shutdown_idempotent_and_usable;
        ] );
      ( "swap-cost",
        [
          Alcotest.test_case "walks per bring-up, swap, fallback" `Quick test_materialisations_per_swap;
          Alcotest.test_case "snapshot is the certified store" `Quick test_snapshot_is_certified_store;
          Alcotest.test_case "snapshot slices equal table walks" `Quick test_snapshot_parity;
          Alcotest.test_case "one stage-timer sample per create" `Quick test_stage_timers_per_create;
          Alcotest.test_case "an apply pauses at every stage end" `Quick test_apply_pauses_at_stage_ends;
          Alcotest.test_case "the stage hook reads the pre-swap epoch" `Quick test_hook_reads_pre_swap_epoch;
          Alcotest.test_case "refused candidate keeps the snapshot" `Quick
            test_refused_candidate_keeps_snapshot;
        ] );
      ( "schedule",
        [
          Alcotest.test_case "deterministic + roundtrip" `Quick test_schedule_deterministic_roundtrip;
          Alcotest.test_case "parser" `Quick test_schedule_parse;
        ] );
    ]
