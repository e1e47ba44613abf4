(* The pluggable SSSP kernel contract (DESIGN.md §15), as executable
   properties. The kernel selector promises that kernel choice NEVER
   changes any observable result — trees, tables, final weights, error
   strings, deadlock certificates — only wall-clock. Every test here
   compares a kernel against the binary-heap oracle bit-for-bit:

   - per-destination trees (dist, via, settle count) agree on healthy
     and degraded fabrics, for unit and heavily skewed weights;
   - full SSSP planes agree in tables AND final channel weights;
   - [batch:1] with any kernel reproduces the sequential recurrence
     bit-for-bit, pooled or not;
   - weights outside the bucket window fall back to the heap oracle
     silently (the [spf.fallbacks] counter records it) with identical
     results;
   - DFSSSP's deadlock certificate holds under every kernel, including
     after fault injection. *)

let qtest ?(count = 16) name gen prop = Testutil.qtest ~count name gen prop

let seed_gen = Testutil.seed_gen

let fabric = Testutil.fabric

let same_tables = Testutil.same_tables

module Spf = Routing.Spf

(* Every selectable kernel; Auto resolves to one of the others but is
   exercised in its own right so the default path stays covered. *)
let kernels = Spf.all_kinds

let kernel_name k = Spf.kind_to_string k

(* Deterministic per-seed weight array: mixed magnitudes so bucket
   windows are non-trivial but in-bounds. *)
let random_weights ?(spread = 37) seed g =
  let rng = Rng.create (seed * 7919) in
  Array.init (Graph.num_channels g) (fun _ -> 1 + Rng.int rng spread)

let copy_tree (t : Spf.tree) =
  (Array.copy t.Spf.dist, Array.copy t.Spf.via, t.Spf.reached)

(* Compare a kernel's tree against the oracle's for every destination in
   [dsts] (default: every node of [g]), computed by [tree] — a weighted
   {!Spf.compute} or {!Spf.compute_hops}. One stamp per kernel: weights
   are frozen here, so the incremental kernel is allowed (and expected)
   to reuse switch trees across consecutive same-switch terminals. *)
let check_trees_against_oracle ?dsts name g ~tree =
  let oracle = Spf.workspace ~kernel:Spf.Heap g in
  let ostamp = Spf.fresh_stamp () in
  let dsts = Option.value dsts ~default:(Array.init (Graph.num_nodes g) Fun.id) in
  List.iter
    (fun kernel ->
      if kernel <> Spf.Heap then begin
        let ws = Spf.workspace ~kernel g in
        let stamp = Spf.fresh_stamp () in
        Array.iter
          (fun dst ->
            let odist, ovia, oreached = copy_tree (tree oracle ~stamp:ostamp ~dst) in
            let t = tree ws ~stamp ~dst in
            if t.Spf.reached <> oreached then
              Alcotest.failf "%s/%s dst %d: reached %d, oracle %d" name (kernel_name kernel) dst
                t.Spf.reached oreached;
            if t.Spf.dist <> odist then
              Alcotest.failf "%s/%s dst %d: dist differs from oracle" name (kernel_name kernel) dst;
            if t.Spf.via <> ovia then
              Alcotest.failf "%s/%s dst %d: via differs from oracle" name (kernel_name kernel) dst)
          dsts
      end)
    kernels;
  true

let weighted weights g ws ~stamp ~dst = Spf.compute ws g ~weights ~stamp ~dst

let tree_equivalence =
  qtest "spf: every kernel matches the heap oracle tree-for-tree" seed_gen (fun seed ->
      let name, g = fabric seed in
      check_trees_against_oracle name g ~tree:(weighted (random_weights seed g) g))

let degraded_tree_equivalence =
  qtest "spf: kernel equivalence survives cable faults" seed_gen (fun seed ->
      let name, g = fabric seed in
      let cables = Degrade.switch_cables g in
      let g =
        if Array.length cables = 0 then g
        else
          match Degrade.disable_cable g ~cable:cables.(seed mod Array.length cables) with
          | Ok (g', _) -> g'
          | Error _ -> g
      in
      check_trees_against_oracle name g ~tree:(weighted (random_weights seed g) g))

let plane_equivalence =
  qtest "sssp: kernel choice never changes tables or final weights" seed_gen (fun seed ->
      let _, g = fabric seed in
      let batch = 1 + (seed mod 16) in
      let run kernel =
        let weights = Routing.Sssp.initial_weights g in
        match Routing.Sssp.route_plane ~batch ~kernel g ~weights with
        | Ok ft -> (ft, weights)
        | Error msg -> Alcotest.failf "route_plane (%s) failed: %s" (kernel_name kernel) msg
      in
      let oft, ow = run Spf.Heap in
      List.for_all
        (fun kernel ->
          let ft, w = run kernel in
          same_tables oft ft && w = ow)
        kernels)

(* batch:1 must reproduce the sequential recurrence of the test oracle
   bit-for-bit under every kernel, with or without a persistent pool —
   and forcing the true fan-out path (auto sizing off, as this binary
   does at startup) must not change that. *)
let batch1_determinism =
  qtest "sssp: batch 1 + any kernel = sequential, bit-for-bit" seed_gen (fun seed ->
      let _, g = fabric seed in
      let seq_w = Routing.Sssp.initial_weights g in
      let seq_ft =
        match Oracles.Sequential_ref.sssp_plane g ~weights:seq_w with
        | Ok ft -> ft
        | Error msg -> Alcotest.failf "sequential route_plane failed: %s" msg
      in
      List.for_all
        (fun kernel ->
          let check ?domains ?pool () =
            let w = Routing.Sssp.initial_weights g in
            match Routing.Sssp.route_plane ~batch:1 ?domains ?pool ~kernel g ~weights:w with
            | Ok ft -> same_tables seq_ft ft && w = seq_w
            | Error msg -> Alcotest.failf "batch:1 (%s) failed: %s" (kernel_name kernel) msg
          in
          let pooled =
            let pool = Routing.Sssp.create_pool ~domains:2 () in
            Fun.protect
              ~finally:(fun () -> Routing.Sssp.destroy_pool pool)
              (fun () -> check ~pool ())
          in
          check () && check ~domains:2 () && pooled)
        kernels)

let fallback_counter () =
  match Obs.Registry.find_counter (Obs.Registry.default ()) "spf.fallbacks" with
  | Some c -> Obs.Counter.value c
  | None -> Alcotest.fail "spf.fallbacks counter not registered"

(* Weight spreads beyond the bucket window (> 1024 buckets) must divert
   the bucket kernel to the heap oracle — observably (the fallback
   counter moves) and harmlessly (identical trees). *)
let bucket_fallback_extreme_weights () =
  let g = fst (Topo_torus.torus ~dims:[| 4; 4 |] ~terminals_per_switch:2) in
  let weights =
    Array.init (Graph.num_channels g) (fun c -> if c mod 7 = 0 then 1_000_000 else 1)
  in
  let before = fallback_counter () in
  Alcotest.(check bool)
    "extreme-spread trees equal oracle" true
    (check_trees_against_oracle "torus-4x4" g ~tree:(weighted weights g));
  Alcotest.(check bool) "fallback recorded" true (fallback_counter () > before);
  (* In-window spreads must NOT fall back. *)
  let tame = Array.make (Graph.num_channels g) 3 in
  let mid = fallback_counter () in
  let ws = Spf.workspace ~kernel:Spf.Bucket g in
  let stamp = Spf.fresh_stamp () in
  let t = Spf.compute ws g ~weights:tame ~stamp ~dst:(Graph.terminals g).(0) in
  Alcotest.(check int) "tame spread reaches all" (Graph.num_nodes g) t.Spf.reached;
  Alcotest.(check int) "no fallback in-window" mid (fallback_counter ())

(* Error parity: a fabric cut so routing must fail reports the same
   error string under every kernel, in the sequential oracle and in the
   driver at batch 1 and batched. *)
let kernel_error_parity () =
  let g = Topo_ring.make ~switches:6 ~terminals_per_switch:2 in
  let sw = (Graph.switches g).(0) in
  let enabled =
    Array.map (fun (c : Channel.t) -> c.src <> sw && c.dst <> sw) (Graph.channels g)
  in
  let cut = Graph.with_enabled g ~enabled in
  let attempt ?batch kernel =
    match
      Routing.Sssp.route_plane ?batch ~kernel cut ~weights:(Routing.Sssp.initial_weights cut)
    with
    | Ok _ -> Alcotest.fail "routing a cut fabric succeeded"
    | Error msg -> msg
  in
  let sequential kernel =
    match
      Oracles.Sequential_ref.sssp_plane ~kernel cut ~weights:(Routing.Sssp.initial_weights cut)
    with
    | Ok _ -> Alcotest.fail "routing a cut fabric succeeded"
    | Error msg -> msg
  in
  let reference = sequential Spf.Heap in
  List.iter
    (fun kernel ->
      Alcotest.(check string)
        (Printf.sprintf "sequential error (%s)" (kernel_name kernel))
        reference (sequential kernel);
      Alcotest.(check string)
        (Printf.sprintf "batch 1 error (%s)" (kernel_name kernel))
        reference (attempt kernel);
      Alcotest.(check string)
        (Printf.sprintf "batched error (%s)" (kernel_name kernel))
        reference
        (attempt ~batch:4 kernel))
    kernels

(* The paper's headline property, per kernel: DFSSSP tables are
   deadlock-free, and kernel choice does not move a single entry —
   healthy or degraded. *)
let dfsssp_certifiable =
  qtest ~count:10 "dfsssp: certifiably deadlock-free under every kernel" seed_gen (fun seed ->
      let _, g = fabric seed in
      let g =
        let cables = Degrade.switch_cables g in
        if seed mod 2 = 0 || Array.length cables = 0 then g
        else
          match Degrade.disable_cable g ~cable:cables.(seed mod Array.length cables) with
          | Ok (g', _) -> g'
          | Error _ -> g
      in
      let run kernel =
        match Testutil.dfsssp ~kernel g with
        | Ok ft -> ft
        | Error msg -> Alcotest.failf "dfsssp (%s) failed: %s" (kernel_name kernel) msg
      in
      let oracle = run Spf.Heap in
      Oracles.Acyclic_ref.deadlock_free oracle
      && List.for_all
           (fun kernel ->
             let ft = run kernel in
             same_tables oracle ft && Oracles.Acyclic_ref.deadlock_free ft)
           kernels)

(* MinHop and LASH route over hop counts: one shared stamp per run, so
   the incremental kernel reuses switch trees aggressively. Their
   unit-weight trees, walked in their terminal order, must still match
   the oracle's exactly. *)
let hop_engines_kernel_invariant =
  qtest ~count:10 "minhop/lash: hop trees identical under every kernel" seed_gen (fun seed ->
      let name, g = fabric seed in
      check_trees_against_oracle ~dsts:(Graph.terminals g) name g ~tree:(fun ws ~stamp ~dst ->
          Spf.compute_hops ws g ~stamp ~dst))

let () =
  Alcotest.run "spf kernels"
    [
      ( "equivalence",
        [
          tree_equivalence;
          degraded_tree_equivalence;
          plane_equivalence;
          hop_engines_kernel_invariant;
        ] );
      ( "determinism",
        [
          batch1_determinism;
          Alcotest.test_case "error parity" `Quick kernel_error_parity;
        ] );
      ( "robustness",
        [
          Alcotest.test_case "bucket fallback" `Quick bucket_fallback_extreme_weights;
          dfsssp_certifiable;
        ] );
    ]
