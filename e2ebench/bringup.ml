(* Fabric bring-up: Fabric.Manager.create plus the first snapshot, the
   time from a fabric description to the first epoch that can serve a
   route query. The untraced loop times whole bring-ups; the traced pass
   makes the same public calls one layer at a time. *)

open Kit

let config = Fabric.Manager.default_config

let generate spec =
  match Harness.Topospec.parse spec with
  | Ok t -> t.Harness.Topospec.graph
  | Error msg -> failwith (Printf.sprintf "%s: %s" spec msg)

let build g =
  match Fabric.Manager.create ~config g with
  | Error msg -> Error msg
  | Ok m -> (
    match Fabric.Manager.snapshot m with
    | Ok snap -> Ok (m, snap)
    | Error msg ->
      Fabric.Manager.shutdown m;
      Error msg)

(* [walk_ok g ~src ~dst path] holds iff [path] is a contiguous channel
   walk from terminal [src] to terminal [dst]. *)
let walk_ok g ~src ~dst path =
  let n = Array.length path in
  let ch i = Graph.channel g path.(i) in
  let valid c = c >= 0 && c < Graph.num_channels g in
  n > 0
  && Array.for_all valid path
  && (ch 0).Channel.src = src
  && (ch (n - 1)).Channel.dst = dst
  &&
  let ok = ref true in
  for i = 1 to n - 1 do
    if (ch (i - 1)).Channel.dst <> (ch i).Channel.src then ok := false
  done;
  !ok

(* Distinct-terminal query pairs drawn from [seed]. *)
let pairs g ~seed ~n =
  let terms = Graph.terminals g in
  let nt = Array.length terms in
  let rng = Rng.create seed in
  Array.init n (fun _ ->
      let src = terms.(Rng.int rng nt) in
      let rec pick () =
        let dst = terms.(Rng.int rng nt) in
        if dst = src then pick () else dst
      in
      (src, pick ()))

(* The daemon's read path without the socket: the epoch snapshot, the
   pair's slice of the route arena, the layer. Returns a checksum, or -1
   when the pair has no route. *)
let lookup m ~src ~dst =
  match Fabric.Manager.snapshot m with
  | Error _ -> -1
  | Ok snap ->
    let ft = snap.Fabric.Epoch.tables and store = snap.Fabric.Epoch.store in
    let pair = Ftable.pair_id ft ~src ~dst in
    if not (Route_store.mem store ~pair) then -1
    else begin
      let off = Route_store.offset store ~pair and len = Route_store.length store ~pair in
      let buf = Route_store.buffer store in
      let acc = ref (Ftable.layer ft ~src ~dst) in
      for i = off to off + len - 1 do
        acc := !acc + buf.(i)
      done;
      !acc
    end

let path_of (snap : Fabric.Epoch.snapshot) ~src ~dst =
  let ft = snap.Fabric.Epoch.tables and store = snap.Fabric.Epoch.store in
  let pair = Ftable.pair_id ft ~src ~dst in
  if Route_store.mem store ~pair then
    Array.init (Route_store.length store ~pair) (Route_store.get store ~pair)
  else [||]

(* ------------------------------------------------------------------ *)
(* Traced pass: the public calls Manager.create + snapshot make, once  *)
(* each, with a span around each call into a layer                     *)
(* ------------------------------------------------------------------ *)

let stage_names =
  [
    "routing.sssp";
    "dfsssp.assign_layers";
    "analysis.existence";
    "analysis.certify";
    "dfsssp.verify";
    "fabric.snapshot";
  ]

let ok_or_fail what = function
  | Ok x -> x
  | Error msg -> failwith (what ^ ": " ^ msg)

let traced_pass spans ops spec =
  let g = Spans.record spans "netgraph.generate" (fun () -> generate spec) in
  let ft =
    Spans.record spans "routing.sssp" (fun () ->
        let weights = Sssp.initial_weights g in
        Sssp.route_plane ~batch:config.batch ~domains:config.domains ~kernel:config.kernel g
          ~weights)
    |> ok_or_fail "route_plane"
  in
  let ft =
    Spans.record spans "dfsssp.assign_layers" (fun () ->
        Dfsssp.assign_layers ~engine:config.engine ~domains:config.domains
          ~max_layers:config.max_layers ft)
    |> Result.map_error Dfsssp.error_to_string
    |> ok_or_fail "assign_layers"
  in
  let ex = Spans.record spans "analysis.existence" (fun () -> Analysis.Existence.analyze g) in
  check ops (ex.Analysis.Existence.min_layers_lb <= Ftable.num_layers ft) "traced: existence bound";
  let cert = Spans.record spans "analysis.certify" (fun () -> Analysis.Analyzer.certify ft) in
  check ops (Result.is_ok cert) "traced: certify";
  let verdict = Spans.record spans "dfsssp.verify" (fun () -> Dfsssp.Verify.report ft) in
  check ops
    (match verdict with Ok r -> r.Dfsssp.Verify.deadlock_free | Error _ -> false)
    "traced: verify";
  let store = Spans.record spans "fabric.snapshot" (fun () -> Ftable.to_store ft) in
  check ops (Result.is_ok store) "traced: snapshot store";
  (* Side pass, outside the stage sum: one more materialisation, and
     Algorithm 2 alone on the plane's store. *)
  let store =
    Spans.record spans "routing.to_store" (fun () -> Ftable.to_store ft) |> ok_or_fail "to_store"
  in
  let outcome =
    Spans.record spans "deadlock.assign_store" (fun () ->
        Layers.assign_store ~engine:config.engine ~domains:config.domains store
          ~max_layers:config.max_layers ~heuristic:Heuristic.Weakest)
    |> ok_or_fail "assign_store"
  in
  Spans.add spans "deadlock.cycles_broken" (float_of_int outcome.Layers.cycles_broken);
  Spans.add spans "routing.pairs" (float_of_int (Route_store.num_paths store))

(* ------------------------------------------------------------------ *)
(* The build loop                                                      *)
(* ------------------------------------------------------------------ *)

type loop = {
  builds_ms : float array;
  ref_ms : float array; (* host-speed reference, sampled before each build *)
  stalls_ms : float array; (* build + the first lookup it serves *)
  layers : int;
  gc_minor : float array;
  gc_major : float array;
  gc_alloc_mb : float array;
  spans : Spans.t;
}

(* Repeated warm bring-ups of [g] until [until], each followed by one
   timed lookup of a seeded pair (the first query the new epoch serves)
   and, with [trace], by a traced pass over [spec]. The first build's
   tables are re-certified by the trusted checker and every later build
   must match it. *)
let loop ops ~spec ~g ~seed ~until ~trace =
  let builds = Samples.create () and stalls = Samples.create () and refs = Samples.create () in
  let minor = Samples.create () and major = Samples.create () and alloc = Samples.create () in
  let spans = Spans.create () in
  let qpairs = pairs g ~seed ~n:4096 in
  let fingerprint = ref None in
  (* Build 0 warms the process up and is checked but not timed. *)
  let i = ref 0 in
  while !i < 2 || now () < until do
    let warmup = !i = 0 in
    incr i;
    (* Each build starts from a collected heap, not from the garbage of
       the previous one. *)
    Gc.full_major ();
    let rf = Host.sample () in
    let g0 = Gc.quick_stat () in
    let r, ms = timed (fun () -> build g) in
    let g1 = Gc.quick_stat () in
    attempt ops;
    match r with
    | Error msg -> fail ops ("build: " ^ msg)
    | Ok (m, snap) ->
      if not warmup then begin
        Samples.add builds ms;
        Samples.add refs rf;
        Samples.add minor (float_of_int (g1.Gc.minor_collections - g0.Gc.minor_collections));
        Samples.add major (float_of_int (g1.Gc.major_collections - g0.Gc.major_collections));
        Samples.add alloc
          ((g1.Gc.minor_words +. g1.Gc.major_words -. g1.Gc.promoted_words
           -. (g0.Gc.minor_words +. g0.Gc.major_words -. g0.Gc.promoted_words))
          *. float_of_int (Sys.word_size / 8)
          /. 1048576.0)
      end;
      let fp = (snap.Fabric.Epoch.num_layers, Route_store.total_channels snap.Fabric.Epoch.store) in
      (match !fingerprint with
      | None ->
        fingerprint := Some fp;
        check ops (Result.is_ok (Analysis.Analyzer.certify snap.Fabric.Epoch.tables))
          "first build's tables fail re-certification";
        Array.iter
          (fun (src, dst) ->
            check ops (walk_ok g ~src ~dst (path_of snap ~src ~dst)) "bad route walk")
          (Array.sub qpairs 0 64)
      | Some fp0 -> check ops (fp = fp0) "build differs from the first build");
      let src, dst = qpairs.(!i mod Array.length qpairs) in
      let found, lookup_ms = timed (fun () -> lookup m ~src ~dst) in
      check ops (found >= 0) (Printf.sprintf "lookup %d->%d found no route" src dst);
      if not warmup then Samples.add stalls (ms +. lookup_ms);
      Fabric.Manager.shutdown m;
      if trace && not warmup then begin
        (* the same collected heap the timed build started from *)
        Gc.full_major ();
        traced_pass spans ops spec
      end
  done;
  {
    builds_ms = Samples.to_array builds;
    ref_ms = Samples.to_array refs;
    stalls_ms = Samples.to_array stalls;
    layers = (match !fingerprint with Some (l, _) -> l | None -> 0);
    gc_minor = Samples.to_array minor;
    gc_major = Samples.to_array major;
    gc_alloc_mb = Samples.to_array alloc;
    spans;
  }

(* Host-speed factor of a loop as a whole (Kit.Host). *)
let factor l =
  let f = Host.factor l.ref_ms in
  Printf.printf "host: reference median %.3f ms over %d samples between builds, scale %.4f\n"
    (median l.ref_ms) (Array.length l.ref_ms) f;
  f

(* Per-build samples scaled one by one, each by the factor of the
   reference samples of the five builds around it, so a slow phase that
   starts or ends inside the run is followed. *)
let scaled l samples =
  let n = Array.length l.ref_ms in
  Array.mapi
    (fun i ms ->
      let lo = max 0 (i - 2) and hi = min (n - 1) (i + 2) in
      ms *. Host.factor (Array.sub l.ref_ms lo (hi - lo + 1)))
    samples

(* build_ms and build_floor_ms of a loop. *)
let build_metrics l =
  let builds = scaled l l.builds_ms in
  [
    scaled_metric "build_ms" "ms" median ~raw:l.builds_ms ~scaled:builds;
    scaled_metric "build_floor_ms" "ms" (percentile 0.1) ~raw:l.builds_ms ~scaled:builds;
  ]

(* Per-layer metrics of a traced loop. *)
let traced_metrics ~scale l =
  let med name = Spans.median l.spans name in
  let stages = List.map (fun s -> (s, med s)) stage_names in
  let covered = List.fold_left (fun acc (_, v) -> acc +. v) 0.0 stages in
  let build = median l.builds_ms in
  let coverage = if build > 0.0 then covered /. build else 0.0 in
  Printf.printf "stage split (medians over %d traced passes):\n"
    (Array.length (Spans.samples l.spans "routing.sssp"));
  List.iter (fun (s, v) -> Printf.printf "  %-24s %9.2f ms\n" s v) stages;
  Printf.printf "  %-24s %9.2f ms (build_ms %.2f, coverage %.3f)\n" "uncovered" (build -. covered)
    build coverage;
  List.map (fun (s, v) -> metric ~scale (s ^ "_ms") "ms" v)
    (("netgraph.generate", med "netgraph.generate") :: stages)
  @ [
      metric ~scale "routing.to_store_ms" "ms" (med "routing.to_store");
      metric ~scale "deadlock.assign_store_ms" "ms" (med "deadlock.assign_store");
      metric "deadlock.cycles_broken" "count" (med "deadlock.cycles_broken");
      metric "routing.pairs" "count" (med "routing.pairs");
      metric "gc.minor_collections" "count" (median l.gc_minor);
      metric "gc.major_collections" "count" (median l.gc_major);
      metric "gc.allocated_mb" "MB" (median l.gc_alloc_mb);
      metric "stage_coverage" "ratio" coverage;
    ]

(* ------------------------------------------------------------------ *)
(* Set-up: what a one-shot CLI call pays                               *)
(* ------------------------------------------------------------------ *)

(* The child side: generate the fabric and bring it up once. *)
let probe spec =
  match build (generate spec) with
  | Ok (m, _) ->
    Fabric.Manager.shutdown m;
    0
  | Error msg ->
    prerr_endline ("setup probe: " ^ msg);
    1

let setup_reps = 5

(* Wall time of fresh processes that each generate the fabric and make
   one cold bring-up; the median of [setup_reps]. *)
let setup_s ops ~self spec =
  let times =
    Array.init setup_reps (fun _ ->
        let t0 = now () in
        let pid =
          Unix.create_process self [| self; "--setup-probe"; spec |] Unix.stdin Unix.stderr
            Unix.stderr
        in
        let _, status = Unix.waitpid [] pid in
        check ops (status = Unix.WEXITED 0) "setup probe failed";
        now () -. t0)
  in
  median times

(* ------------------------------------------------------------------ *)
(* The workload                                                        *)
(* ------------------------------------------------------------------ *)

let run ~self ~spec ~seed ~seconds ~trace =
  let ops = ops () in
  let setup = setup_s ops ~self spec in
  let g = generate spec in
  Printf.printf "fabric %s: %d switches, %d terminals, %d channels\n" spec (Graph.num_switches g)
    (Graph.num_terminals g) (Graph.num_channels g);
  let l = loop ops ~spec ~g ~seed ~until:(now () +. seconds) ~trace in
  Printf.printf "seed=%d build samples=%d\n" seed (Array.length l.builds_ms);
  let scale = factor l in
  let builds = scaled l l.builds_ms in
  let e2e =
    (metric ~scale "setup_s" "s" setup :: build_metrics l)
    @ [
      scaled_metric "epoch_p50_ms" "ms" median ~raw:l.builds_ms ~scaled:builds;
      scaled_metric "epoch_p90_ms" "ms" (percentile 0.9) ~raw:l.builds_ms ~scaled:builds;
      scaled_metric "query_stall_ms" "ms" median ~raw:l.stalls_ms ~scaled:(scaled l l.stalls_ms);
      metric "peak_rss_mb" "MB" (peak_rss_mb ());
      metric "layers" "count" (float_of_int l.layers);
    ]
  in
  (ops, e2e, if trace then traced_metrics ~scale l else [])
