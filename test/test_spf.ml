(* The SSSP kernel contract (DESIGN.md §15), as executable properties.
   The kernel selector promises that kernel choice NEVER changes any
   observable result — trees, tables, final weights, error strings,
   deadlock certificates — only wall-clock. Every test here compares
   the bucket kernel against the binary-heap oracle bit-for-bit:

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

(* Every selectable kernel: the heap oracle and the bucket core. *)
let kernels = [ Spf.Heap; Spf.Bucket ]

let kernel_name k = Spf.kind_to_string k

(* Deterministic per-seed weight array: mixed magnitudes so bucket
   windows are non-trivial but in-bounds. *)
let random_weights ?(spread = 37) seed g =
  let rng = Rng.create (seed * 7919) in
  Array.init (Graph.num_channels g) (fun _ -> 1 + Rng.int rng spread)

let copy_tree (t : Spf.tree) =
  (Array.copy t.Spf.dist, Array.copy t.Spf.via, t.Spf.reached)

(* [order]'s contract (Spf.tree): its first [reached] entries are the
   reached nodes, each once, [dst] first, and every node after its
   via-parent. *)
let check_order name g ~dst (t : Spf.tree) =
  let heads = Graph.heads g in
  let pos = Array.make (Graph.num_nodes g) (-1) in
  for i = 0 to t.Spf.reached - 1 do
    let u = t.Spf.order.(i) in
    if pos.(u) >= 0 then Alcotest.failf "%s dst %d: node %d settled twice" name dst u;
    pos.(u) <- i
  done;
  if t.Spf.reached > 0 && t.Spf.order.(0) <> dst then
    Alcotest.failf "%s dst %d: order starts at %d" name dst t.Spf.order.(0);
  Array.iteri
    (fun u i ->
      if i > 0 && pos.(heads.(t.Spf.via.(u))) >= i then
        Alcotest.failf "%s dst %d: node %d settled before its via-parent" name dst u)
    pos

(* Compare a kernel's tree against the oracle's for every destination in
   [dsts] (default: every node of [g]), computed by [tree] — a weighted
   {!Spf.compute} or {!Spf.compute_hops}. *)
let check_trees_against_oracle ?dsts name g ~tree =
  let oracle = Spf.workspace ~kernel:Spf.Heap g in
  let dsts = Option.value dsts ~default:(Array.init (Graph.num_nodes g) Fun.id) in
  List.iter
    (fun kernel ->
      if kernel <> Spf.Heap then begin
        let ws = Spf.workspace ~kernel g in
        Array.iter
          (fun dst ->
            let odist, ovia, oreached = copy_tree (tree oracle ~dst) in
            let t = tree ws ~dst in
            check_order (name ^ "/" ^ kernel_name kernel) g ~dst t;
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

let weighted weights g ws ~dst = Spf.compute ws g ~weights ~dst

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

(* A fabric for the edges of the bucket core's leaf rule
   (Graph.attached): a switch ring with a chord and a parallel switch
   cable, and terminals that are single-homed over one cable,
   single-homed over two or three parallel cables (equal weights then
   tie, broken on channel id), dual-homed on two switches (not leaves),
   or cabled to another terminal only (a leaf whose parent is a
   terminal that now relays). Returns the fabric and each dual-homed
   terminal with the two channels of its second cable. *)
let leaf_fabric seed =
  let rng = Rng.create (seed + 17) in
  let b = Builder.create () in
  let ns = 3 + Rng.int rng 4 in
  let sw = Array.init ns (fun i -> Builder.add_switch b ~name:(Printf.sprintf "s%d" i)) in
  for i = 0 to ns - 1 do
    ignore (Builder.add_link b sw.(i) sw.((i + 1) mod ns))
  done;
  if ns > 3 then ignore (Builder.add_link b sw.(0) sw.(ns / 2));
  ignore (Builder.add_link b sw.(0) sw.(1));
  let dual = ref [] and last = ref (-1) in
  for i = 0 to 5 + Rng.int rng 8 do
    let si = Rng.int rng ns in
    let name = Printf.sprintf "t%d" i in
    (* [last]: the terminal a later one may be cabled to, or -1 *)
    last :=
      match Rng.int rng 4 with
      | 0 -> Builder.add_terminal b ~name ~switch:sw.(si)
      | 1 ->
        let t = Builder.add_terminal b ~name ~switch:sw.(si) in
        for _ = 1 to 1 + Rng.int rng 2 do
          ignore (Builder.add_link b t sw.(si))
        done;
        t
      | 2 ->
        let t = Builder.add_terminal b ~name ~switch:sw.(si) in
        let c, c' = Builder.add_link b t sw.((si + 1 + Rng.int rng (ns - 1)) mod ns) in
        dual := (t, c, c') :: !dual;
        -1 (* none hangs off a dual-homed one *)
      | _ -> Builder.add_terminal b ~name ~switch:(if !last >= 0 then !last else sw.(si))
  done;
  (Builder.build b, !dual)

(* Weights from a narrow range, so equal-cost paths (and parallel-cable
   ties) are common. *)
let leaf_rule_edges =
  qtest ~count:40 "spf: leaf-rule edge fabrics match the heap oracle" seed_gen (fun seed ->
      let g, dual = leaf_fabric seed in
      let attached = Graph.attached g in
      List.iter
        (fun (t, _, _) ->
          if attached.(t) >= 0 then Alcotest.failf "dual-homed terminal %d is attached" t)
        dual;
      let weights = random_weights ~spread:3 seed g in
      let hops ws ~dst = Spf.compute_hops ws g ~dst in
      let healthy =
        check_trees_against_oracle "leaf" g ~tree:(weighted weights g)
        && check_trees_against_oracle "leaf/hops" g ~tree:hops
      in
      (* Disabling a dual-homed terminal's second cable makes it
         single-homed on its first switch, so a leaf. *)
      match dual with
      | [] -> healthy
      | (t, c, c') :: _ ->
        let enabled = Array.make (Graph.num_channels g) true in
        enabled.(c) <- false;
        enabled.(c') <- false;
        let g' = Graph.with_enabled g ~enabled in
        let first = (Graph.heads g').((Graph.out_channels g' t).(0)) in
        if (Graph.attached g').(t) <> first then
          Alcotest.failf "terminal %d not attached to %d after with_enabled" t first;
        healthy && check_trees_against_oracle "leaf/degraded" g' ~tree:(weighted weights g'))

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
        match Oracles.Sequential_ref.sssp_plane ~kernel:Spf.Heap g ~weights:seq_w with
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
  let t = Spf.compute ws g ~weights:tame ~dst:(Graph.terminals g).(0) in
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

(* MinHop and LASH route over hop counts. Their unit-weight trees,
   walked in their terminal order, must match the oracle's exactly. *)
let hop_engines_kernel_invariant =
  qtest ~count:10 "minhop/lash: hop trees identical under every kernel" seed_gen (fun seed ->
      let name, g = fabric seed in
      check_trees_against_oracle ~dsts:(Graph.terminals g) name g ~tree:(fun ws ~dst ->
          Spf.compute_hops ws g ~dst))

let () =
  Alcotest.run "spf kernels"
    [
      ( "equivalence",
        [
          tree_equivalence;
          degraded_tree_equivalence;
          leaf_rule_edges;
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
