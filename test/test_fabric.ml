(* Tests for the live fabric manager subsystem: id-stable fault
   injection, forwarding-table diffing, verified epoch swaps, the
   full-recompute-then-rescue policy, and the end-to-end acceptance run
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
    check Alcotest.int "two directed channels down" (nc - 2) (Graph.num_enabled_channels g');
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
      check Alcotest.int "all channels back" nc (Graph.num_enabled_channels g'');
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
      (Graph.num_enabled_channels g2);
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
(* Rescue                                                               *)
(* ------------------------------------------------------------------ *)

(* What makes the rescue cheaper than a full recompute: on a single-link
   failure it re-routes strictly fewer destinations than the full
   recompute would (which touches all of them). *)
let test_affected_strictly_fewer_than_full () =
  let g = torus [| 4; 4 |] in
  let ft = route_dfsssp g in
  let total = Graph.num_terminals g in
  let some_cable_in_use = ref false in
  Array.iter
    (fun cable ->
      let pair = Option.get (Graph.reverse_channel g cable) in
      let affected = Fabric.Repair.affected_destinations ft ~channels:[ cable; pair ] in
      if affected <> [] then some_cable_in_use := true;
      check Alcotest.bool "strictly fewer destinations than a full recompute" true
        (List.length affected < total))
    (Degrade.switch_cables g);
  check Alcotest.bool "routing does use the switch cables" true !some_cable_in_use

(* ------------------------------------------------------------------ *)
(* Manager                                                              *)
(* ------------------------------------------------------------------ *)

let spec_graph spec =
  match Harness.Topospec.parse spec with
  | Ok t -> t.Harness.Topospec.graph
  | Error msg -> Alcotest.failf "%s: %s" spec msg

(* A switch cable some of the manager's active routes use. *)
let used_cable mgr g =
  Array.to_list (Degrade.switch_cables g)
  |> List.find (fun c ->
         let pair = Option.get (Graph.reverse_channel g c) in
         Fabric.Repair.affected_destinations (Fabric.Manager.tables mgr) ~channels:[ c; pair ] <> [])

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
    check Alcotest.bool (what ^ ": no rescue") false o.Fabric.Manager.fallback;
    check_verified what o;
    match o.Fabric.Manager.table_diff with
    | Some d -> check Alcotest.bool (what ^ ": routes moved") true (d.Routing.Ftable.entries_changed > 0)
    | None -> Alcotest.failf "%s: full swap on the same fabric without a table diff" what
  in
  let o = Fabric.Manager.apply mgr (Fabric.Event.Link_down cable) in
  full_swap "down" o;
  check Alcotest.int "epoch advanced" 2 o.Fabric.Manager.epoch;
  check Alcotest.bool "no route uses the failed cable" true
    (Fabric.Repair.affected_destinations (Fabric.Manager.tables mgr)
       ~channels:[ cable; Option.get (Graph.reverse_channel g cable) ]
    = []);
  full_swap "up" (Fabric.Manager.apply mgr (Fabric.Event.Link_up cable));
  let m = Fabric.Manager.metrics mgr in
  check Alcotest.int "two full recomputes" 2 (Fabric.Metrics.full_recomputes m);
  check Alcotest.int "no rescue" 0 (Fabric.Metrics.fallbacks m);
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

(* torus:5x5 with three layers: after "down 2" the offline pass runs out
   of layers, and the rescue fits by keeping every untouched route and its
   layer and placing only the re-routed pairs. *)
let test_manager_rescue_on_layer_budget () =
  let g = spec_graph "torus:5x5" in
  let config = { Fabric.Manager.default_config with max_layers = 3 } in
  let mgr = Result.get_ok (Fabric.Manager.create ~config g) in
  let old = Fabric.Manager.tables mgr in
  let affected =
    Fabric.Repair.affected_destinations old ~channels:[ 2; Option.get (Graph.reverse_channel g 2) ]
  in
  let o = Fabric.Manager.apply mgr (Fabric.Event.Link_down 2) in
  check Alcotest.bool "applied" true o.Fabric.Manager.applied;
  check Alcotest.bool "went to the rescue" true o.Fabric.Manager.fallback;
  (match o.Fabric.Manager.action with
  | Fabric.Manager.Incremental { repaired; total } ->
    check Alcotest.int "re-routed the affected destinations" (List.length affected) repaired;
    check Alcotest.bool "a strict subset" true (repaired > 0 && repaired < total)
  | _ -> Alcotest.fail "expected the rescue");
  check Alcotest.bool "note names the failed full recompute" true
    (Testutil.contains o.Fabric.Manager.note "full recompute failed");
  check_verified "rescue" o;
  let ft = Fabric.Manager.tables mgr in
  check Alcotest.bool "within max_layers" true (Routing.Ftable.num_layers ft <= 3);
  Array.iter
    (fun src ->
      Array.iter
        (fun dst ->
          if src <> dst && not (List.mem dst affected) then begin
            check Alcotest.(option (array int)) "kept route" (Routing.Ftable.path old ~src ~dst)
              (Routing.Ftable.path ft ~src ~dst);
            check Alcotest.int "kept layer" (Routing.Ftable.layer old ~src ~dst)
              (Routing.Ftable.layer ft ~src ~dst)
          end)
        (Graph.terminals g))
    (Graph.terminals g);
  let m = Fabric.Manager.metrics mgr in
  check Alcotest.int "one rescue attempted" 1 (Fabric.Metrics.fallbacks m);
  check Alcotest.int "one rescue swapped" 1 (Fabric.Metrics.incremental_repairs m);
  check Alcotest.int "no full recompute swapped" 0 (Fabric.Metrics.full_recomputes m);
  check Alcotest.bool "converged" true (Fabric.Manager.converged mgr)

(* After a structural rebuild whose recompute fails, the active tables
   index the pre-rebuild fabric: they can neither seed a rescue nor be
   diffed, so the next failed recompute must come back stale, naming why. *)
let test_manager_stale_after_failed_rebuild () =
  let g = spec_graph "torus:4x4" in
  let config = { Fabric.Manager.default_config with max_layers = 2 } in
  let mgr = Result.get_ok (Fabric.Manager.create ~config g) in
  let schedule =
    Result.get_ok
      (Fabric.Schedule.of_string
         "down 92\ndown 26\nup 26\ndown 80\ndrain 12\nup 92\nup 72\nup 48\nup 80\ndown 66\ndown 54\n\
          remove 12\ndown 56\n")
  in
  let outcomes = Array.of_list (Fabric.Manager.run mgr schedule) in
  let rebuild = outcomes.(11) and next = outcomes.(12) in
  check Alcotest.bool "the rebuild's recompute failed" true (rebuild.Fabric.Manager.verify = None);
  check Alcotest.bool "next event applied" true next.Fabric.Manager.applied;
  check Alcotest.bool "no swap" true (next.Fabric.Manager.verify = None);
  check Alcotest.bool "no rescue" false next.Fabric.Manager.fallback;
  check Alcotest.bool "note names the reason" true
    (Testutil.contains next.Fabric.Manager.note "predate a structural rebuild");
  check Alcotest.bool "not converged" false (Fabric.Manager.converged mgr)

(* A failed event leaves stale tables that still route over the cable it
   took down; the next event's rescue must re-route those trees too, not
   only the ones over its own cable, or it swaps in a certified table
   with forwarding entries over a dead link. torus:4x4 with two layers:
   "down 78" fails outright, "down 8" and "down 32" are rescued. *)
let test_rescue_after_stale_event () =
  let g = spec_graph "torus:4x4" in
  let config = { Fabric.Manager.default_config with max_layers = 2 } in
  let mgr = Result.get_ok (Fabric.Manager.create ~config g) in
  let schedule = Result.get_ok (Fabric.Schedule.of_string "down 78\ndown 8\ndown 32\n") in
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
  in
  List.iteri
    (fun i event ->
      let o = Fabric.Manager.apply mgr event in
      let what = Fabric.Event.to_string event in
      if i = 0 then check Alcotest.bool (what ^ " left stale") true (o.Fabric.Manager.verify = None)
      else begin
        check Alcotest.bool (what ^ " rescued") true o.Fabric.Manager.fallback;
        check_verified what o;
        check Alcotest.int (what ^ ": no entry over a down cable") 0 (dead_entries (Fabric.Manager.tables mgr))
      end)
    schedule

(* The acceptance run: 4x4x4 torus, 10-event mixed schedule (link downs, a
   link up, one switch removal). With layers to spare every applied event
   ends in a verified full swap and the rescue never runs. *)
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
  let outcomes = Fabric.Manager.run mgr schedule in
  let full = ref 0 in
  List.iter
    (fun (o : Fabric.Manager.outcome) ->
      check Alcotest.bool "event applied" true o.Fabric.Manager.applied;
      match o.Fabric.Manager.action with
      | Fabric.Manager.Noop -> ()
      | Fabric.Manager.Incremental _ -> Alcotest.fail "rescue on a fabric with layers to spare"
      | Fabric.Manager.Full _ ->
        incr full;
        check_verified "full swap" o)
    outcomes;
  let m = Fabric.Manager.metrics mgr in
  check Alcotest.int "every table-changing event a full swap" !full (Fabric.Metrics.full_recomputes m);
  check Alcotest.int "zero rescues" 0 (Fabric.Metrics.fallbacks m);
  check Alcotest.int "zero rescued swaps" 0 (Fabric.Metrics.incremental_repairs m);
  check Alcotest.bool "converged" true (Fabric.Manager.converged mgr);
  match Dfsssp.Verify.report (Fabric.Manager.tables mgr) with
  | Ok r -> check Alcotest.bool "final tables deadlock-free" true r.Dfsssp.Verify.deadlock_free
  | Error msg -> Alcotest.failf "final tables invalid: %s" msg

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

let counter name =
  match Obs.Registry.find_counter (Obs.Registry.default ()) name with
  | Some c -> Obs.Counter.value c
  | None -> Alcotest.failf "%s counter not registered" name

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
  (* bring-up: one walk for layer assignment, one in the trusted checker;
     the first snapshot is free *)
  let (mgr, snap1), n =
    materialisations (fun () ->
        let mgr = Result.get_ok (Fabric.Manager.create g) in
        (mgr, ok_snapshot mgr))
  in
  check Alcotest.int "create + first snapshot" 2 n;
  (* a full event costs the same two walks *)
  let (o, snap2), n =
    materialisations (fun () ->
        let o = Fabric.Manager.apply mgr (Fabric.Event.Link_down (used_cable mgr g)) in
        (o, ok_snapshot mgr))
  in
  (match o.Fabric.Manager.action with
  | Fabric.Manager.Full _ -> ()
  | _ -> Alcotest.fail "expected a full recompute");
  check Alcotest.int "full down + snapshot" 2 n;
  check Alcotest.bool "new epoch, new store" false (snap1.Fabric.Epoch.store == snap2.Fabric.Epoch.store);
  check Alcotest.bool "snapshot serves the swapped tables" true
    (snap2.Fabric.Epoch.tables == Fabric.Manager.tables mgr);
  (* a rescue: the failed layer assignment's walk, the rescue's own walk
     for the online placement, and the checker's *)
  let config = { Fabric.Manager.default_config with max_layers = 3 } in
  let mgr = Result.get_ok (Fabric.Manager.create ~config (spec_graph "torus:5x5")) in
  let (o, _), n =
    materialisations (fun () ->
        let o = Fabric.Manager.apply mgr (Fabric.Event.Link_down 2) in
        (o, ok_snapshot mgr))
  in
  (match o.Fabric.Manager.action with
  | Fabric.Manager.Incremental _ -> ()
  | _ -> Alcotest.fail "expected the rescue");
  check Alcotest.int "rescued down + snapshot" 3 n

(* Epoch-level view of the same contract: the swap walks the tables once,
   inside the certifier, and the snapshot walks nothing — so the store it
   serves can only be the one the certificate was checked against. *)
let test_snapshot_is_certified_store () =
  let g = torus [| 4; 4 |] in
  let ft = route_dfsssp g in
  let epochs = Fabric.Epoch.create () in
  let (swapped, _), n = materialisations (fun () -> Fabric.Epoch.try_swap epochs ~label:"first" ft) in
  let gate_report =
    match swapped with
    | Ok r -> r
    | Error msg -> Alcotest.failf "try_swap: %s" msg
  in
  check Alcotest.int "the swap walks the tables once" 1 n;
  let (snap, again), n =
    materialisations (fun () ->
        (Result.get_ok (Fabric.Epoch.snapshot epochs), Result.get_ok (Fabric.Epoch.snapshot epochs)))
  in
  check Alcotest.int "snapshots walk nothing" 0 n;
  check Alcotest.bool "one store per epoch" true (snap.Fabric.Epoch.store == again.Fabric.Epoch.store);
  check Alcotest.bool "snapshot carries the gate's report" true (snap.Fabric.Epoch.report == gate_report);
  check Alcotest.int "epoch 1" 1 snap.Fabric.Epoch.snap_epoch;
  (* the store-based report agrees with the full verifier *)
  match Dfsssp.Verify.report ft with
  | Error msg -> Alcotest.failf "verify: %s" msg
  | Ok r ->
    let s = snap.Fabric.Epoch.report in
    check Alcotest.bool "same statistics" true (s.Dfsssp.Verify.stats = r.Dfsssp.Verify.stats);
    check Alcotest.int "same max layer" r.Dfsssp.Verify.max_layer_seen s.Dfsssp.Verify.max_layer_seen;
    check Alcotest.bool "oracle agrees: deadlock-free" true r.Dfsssp.Verify.deadlock_free

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

let timer_count name =
  match Obs.Registry.find_timer (Obs.Registry.default ()) name with
  | Some t -> Obs.Timer.count t
  | None -> Alcotest.failf "%s timer not registered" name

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
          stage_timers before
      done)

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
  | Ok _, _ -> ()
  | Error msg, _ -> Alcotest.failf "dfsssp refused: %s" msg);
  let before = Result.get_ok (Fabric.Epoch.snapshot epochs) in
  (* plain SSSP in one layer: cyclic on the ring, so no certificate *)
  let bad = Result.get_ok (Routing.Sssp.route g) in
  check Alcotest.bool "oracle: candidate is cyclic" false (Dfsssp.Verify.deadlock_free bad);
  let (result, _), n = materialisations (fun () -> Fabric.Epoch.try_swap epochs ~label:"bad" bad) in
  (match result with
  | Ok _ -> Alcotest.fail "cyclic candidate installed"
  | Error msg ->
    check Alcotest.bool "refused by the certificate" true (Testutil.contains msg "certificate:"));
  check Alcotest.int "refusal walks the tables once" 1 n;
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
          Alcotest.test_case "layer budget fallback" `Quick test_manager_rescue_on_layer_budget;
          Alcotest.test_case "stale after a failed rebuild" `Quick test_manager_stale_after_failed_rebuild;
          Alcotest.test_case "rescue after a stale event" `Quick test_rescue_after_stale_event;
          Alcotest.test_case "acceptance: 4x4x4 torus, mixed schedule" `Quick test_manager_acceptance_4x4x4;
        ] );
      ( "epoch-snapshot",
        [
          Alcotest.test_case "cached per epoch, immutable" `Quick test_snapshot_cached_per_epoch;
          Alcotest.test_case "shutdown idempotent, manager usable" `Quick test_shutdown_idempotent_and_usable;
        ] );
      ( "swap-cost",
        [
          Alcotest.test_case "walks per bring-up, swap, rescue" `Quick test_materialisations_per_swap;
          Alcotest.test_case "snapshot is the certified store" `Quick test_snapshot_is_certified_store;
          Alcotest.test_case "snapshot slices equal table walks" `Quick test_snapshot_parity;
          Alcotest.test_case "one stage-timer sample per create" `Quick test_stage_timers_per_create;
          Alcotest.test_case "refused candidate keeps the snapshot" `Quick
            test_refused_candidate_keeps_snapshot;
        ] );
      ( "schedule",
        [
          Alcotest.test_case "deterministic + roundtrip" `Quick test_schedule_deterministic_roundtrip;
          Alcotest.test_case "parser" `Quick test_schedule_parse;
        ] );
    ]
