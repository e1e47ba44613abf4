(* Microbenchmark for the route-store / CSR CDG refactor: CDG build,
   weakest-edge scanning, offline cycle-breaking (Algorithm 2) and
   per-layer verification, measured against the pre-refactor Hashtbl
   representation ({!Oracles.Cdg_ref}) on a 4096-endpoint XGFT and a
   16x16 torus. Also verifies that the simulator hot-loop path lookup
   allocates nothing per hop. Results land in
   bench_results/route_store.json; the [speedup] gate fails below 2x on
   torus-64x64 build+break, the [alloc] gate at 1 byte or more allocated
   per hop. *)

(* ------------------------------------------------------------------ *)
(* Resumable cycle search over the Hashtbl reference — a faithful port
   of the DFS oracle's search (Oracles.Dfs_ref.Search).                 *)
(* ------------------------------------------------------------------ *)

module Ref_cycle = struct
  type color =
    | White
    | Gray
    | Black

  type frame = {
    node : int;
    succs : int array;
    mutable cursor : int;
  }

  type t = {
    cdg : Cdg_ref.t;
    color : color array;
    mutable stack : frame list;
    stack_pos : int array;
    mutable depth : int;
    mutable next_root : int;
  }

  let create cdg =
    let m = Graph.num_channels (Cdg_ref.graph cdg) in
    { cdg; color = Array.make m White; stack = []; stack_pos = Array.make m (-1); depth = 0; next_root = 0 }

  let push t node =
    t.color.(node) <- Gray;
    t.stack_pos.(node) <- t.depth;
    t.depth <- t.depth + 1;
    t.stack <- { node; succs = Cdg_ref.successors t.cdg node; cursor = 0 } :: t.stack

  let pop t =
    match t.stack with
    | [] -> assert false
    | f :: rest ->
      t.color.(f.node) <- Black;
      t.stack_pos.(f.node) <- -1;
      t.depth <- t.depth - 1;
      t.stack <- rest

  let extract_cycle t target =
    let top_depth = t.depth - 1 in
    let start_depth = t.stack_pos.(target) in
    let len = top_depth - start_depth + 1 in
    let nodes = Array.make len 0 in
    List.iteri (fun i f -> if i < len then nodes.(len - 1 - i) <- f.node) t.stack;
    Array.init len (fun i -> if i = len - 1 then (nodes.(i), target) else (nodes.(i), nodes.(i + 1)))

  let find_cycle t =
    let m = Array.length t.color in
    let result = ref None in
    let running = ref true in
    while !running do
      match t.stack with
      | [] ->
        if t.next_root >= m then running := false
        else if t.color.(t.next_root) = White then push t t.next_root
        else t.next_root <- t.next_root + 1
      | f :: _ ->
        if f.cursor >= Array.length f.succs then pop t
        else begin
          let s = f.succs.(f.cursor) in
          if not (Cdg_ref.live t.cdg ~c1:f.node ~c2:s) then f.cursor <- f.cursor + 1
          else
            match t.color.(s) with
            | Gray ->
              result := Some (extract_cycle t s);
              running := false
            | Black -> f.cursor <- f.cursor + 1
            | White ->
              f.cursor <- f.cursor + 1;
              push t s
        end
    done;
    !result

  let notify_removed t =
    let frames = Array.of_list (List.rev t.stack) in
    let n = Array.length frames in
    let cut = ref n in
    for i = 1 to n - 1 do
      if !cut = n && not (Cdg_ref.live t.cdg ~c1:frames.(i - 1).node ~c2:frames.(i).node) then cut := i
    done;
    if !cut < n then begin
      for i = !cut to n - 1 do
        t.color.(frames.(i).node) <- White;
        t.stack_pos.(frames.(i).node) <- -1
      done;
      t.depth <- !cut;
      let rec keep i acc = if i >= !cut then acc else keep (i + 1) (frames.(i) :: acc) in
      t.stack <- keep 0 []
    end
end

let ref_weakest cdg cycle =
  let best = ref cycle.(0) in
  let best_count = ref (Cdg_ref.edge_count cdg ~c1:(fst cycle.(0)) ~c2:(snd cycle.(0))) in
  Array.iter
    (fun (c1, c2) ->
      let count = Cdg_ref.edge_count cdg ~c1 ~c2 in
      if count < !best_count then begin
        best := (c1, c2);
        best_count := count
      end)
    cycle;
  !best

(* Algorithm 2 over the Hashtbl reference (build included, as in
   Layers.assign_store which builds its layer-0 CDG via of_store). *)
let ref_assign g ~path_of_pair ~max_layers =
  let layer_of_path = Array.make (Array.length path_of_pair) (-1) in
  let cdgs = Array.make max_layers None in
  let cdg i =
    match cdgs.(i) with
    | Some c -> c
    | None ->
      let c = Cdg_ref.create g in
      cdgs.(i) <- Some c;
      c
  in
  let c0 = cdg 0 in
  Array.iteri
    (fun pr p ->
      match p with
      | Some p ->
        Cdg_ref.add_path c0 ~pair:pr p;
        layer_of_path.(pr) <- 0
      | None -> ())
    path_of_pair;
  let error = ref None in
  let vl = ref 0 in
  while !error = None && !vl < max_layers && cdgs.(!vl) <> None do
    let current = cdg !vl in
    let search = Ref_cycle.create current in
    let sweeping = ref true in
    while !sweeping && !error = None do
      match Ref_cycle.find_cycle search with
      | None -> sweeping := false
      | Some cycle ->
        if !vl + 1 >= max_layers then error := Some "budget"
        else begin
          let c1, c2 = ref_weakest current cycle in
          let movers = List.sort_uniq compare (Cdg_ref.edge_pairs current ~c1 ~c2) in
          let next = cdg (!vl + 1) in
          List.iter
            (fun pr ->
              let p = Option.get path_of_pair.(pr) in
              Cdg_ref.remove_path current ~pair:pr p;
              Cdg_ref.add_path next ~pair:pr p;
              layer_of_path.(pr) <- !vl + 1)
            movers;
          Ref_cycle.notify_removed search
        end
    done;
    incr vl
  done;
  match !error with
  | Some msg -> Error msg
  | None -> Ok (layer_of_path, 1 + Array.fold_left max 0 layer_of_path)

let ref_is_acyclic g cdg =
  let m = Graph.num_channels g in
  let indeg = Array.make m 0 in
  Cdg_ref.iter_edges cdg (fun _ c2 _ -> indeg.(c2) <- indeg.(c2) + 1);
  let queue = Queue.create () in
  for c = 0 to m - 1 do
    if indeg.(c) = 0 then Queue.add c queue
  done;
  let seen = ref 0 in
  while not (Queue.is_empty queue) do
    let c = Queue.take queue in
    incr seen;
    Array.iter
      (fun c2 ->
        indeg.(c2) <- indeg.(c2) - 1;
        if indeg.(c2) = 0 then Queue.add c2 queue)
      (Cdg_ref.successors cdg c)
  done;
  !seen = m

(* ------------------------------------------------------------------ *)
(* Workload: SSSP routes toward a sampled destination set               *)
(* ------------------------------------------------------------------ *)

type workload = {
  name : string;
  graph : Graph.t;
  store : Route_store.t; (* pair id = src_index * num_dsts + dst_slot *)
  path_of_pair : Path.t option array;
}

let build_workload name g ~num_dsts =
  let dsts = Kit.strided_dsts g num_dsts in
  let ft = Ftable.create g ~algorithm:"bench" in
  let weights = Sssp.initial_weights g in
  (match Sssp.route_destinations g ~weights ~ft ~dsts with
  | Ok () -> ()
  | Error msg -> failwith (Printf.sprintf "%s: routing failed: %s" name msg));
  let store = Kit.pair_store ~name ft ~dsts in
  let path_of_pair =
    Array.init (Route_store.capacity store) (fun pair ->
        if Route_store.mem store ~pair then Some (Route_store.to_path store ~pair) else None)
  in
  { name; graph = g; store; path_of_pair }

(* ------------------------------------------------------------------ *)
(* Measurements                                                         *)
(* ------------------------------------------------------------------ *)

type row = {
  wname : string;
  endpoints : int;
  channels : int;
  npaths : int;
  build_csr_ms : float;
  build_ref_ms : float;
  scan_csr_ms : float;
  scan_ref_ms : float;
  assign_csr_ms : float;
  assign_ref_ms : float;
  verify_csr_ms : float;
  verify_ref_ms : float;
  layers_csr : int;
  layers_ref : int;
  combined_speedup : float;
}

let scan_rounds = 20

let measure w =
  Printf.eprintf "measuring %s...\n%!" w.name;
  let g = w.graph in
  let build_csr_ms, csr = Kit.time_best (fun () -> Cdg.of_store w.store) in
  let build_ref_ms, rc =
    Kit.time_best (fun () ->
        let rc = Cdg_ref.create g in
        Array.iteri
          (fun pr p -> match p with Some p -> Cdg_ref.add_path rc ~pair:pr p | None -> ())
          w.path_of_pair;
        rc)
  in
  assert (Cdg.num_edges csr = Cdg_ref.num_edges rc);
  (* weakest-edge scan: full min-edge_count sweep over all live edges,
     the inner workload of the weakest-edge choice *)
  let scan_csr_ms, _ =
    Kit.time_best (fun () ->
        let best = ref max_int in
        for _ = 1 to scan_rounds do
          Cdg.iter_edges csr (fun _ _ count -> if count < !best then best := count)
        done;
        !best)
  in
  let scan_ref_ms, _ =
    Kit.time_best (fun () ->
        let best = ref max_int in
        for _ = 1 to scan_rounds do
          Cdg_ref.iter_edges rc (fun _ _ count -> if count < !best then best := count)
        done;
        !best)
  in
  let assign_csr_ms, csr_outcome =
    Kit.time_best (fun () ->
        match Layers.assign_store w.store ~max_layers:64 ~heuristic:Heuristic.Weakest with
        | Ok o -> (o.Layers.layer_of_path, o.Layers.layers_used)
        | Error msg -> failwith msg)
  in
  let assign_ref_ms, ref_outcome =
    Kit.time_best (fun () ->
        match ref_assign g ~path_of_pair:w.path_of_pair ~max_layers:64 with
        | Ok o -> o
        | Error msg -> failwith msg)
  in
  let csr_layers, csr_used = (fst csr_outcome, snd csr_outcome) in
  let ref_layers, ref_used = (fst ref_outcome, snd ref_outcome) in
  let verify_csr_ms, csr_free =
    Kit.time_best (fun () ->
        Acyclic_ref.layers_acyclic_store w.store ~layer_of_path:csr_layers ~num_layers:csr_used)
  in
  let verify_ref_ms, ref_free =
    Kit.time_best (fun () ->
        let ok = ref true in
        for vl = 0 to ref_used - 1 do
          let layer = Cdg_ref.create g in
          Array.iteri
            (fun pr p -> if ref_layers.(pr) = vl then Cdg_ref.add_path layer ~pair:pr (Option.get p))
            w.path_of_pair;
          if not (ref_is_acyclic g layer) then ok := false
        done;
        !ok)
  in
  if not (csr_free && ref_free) then failwith (w.name ^ ": assignment not deadlock-free");
  {
    wname = w.name;
    endpoints = Graph.num_terminals g;
    channels = Graph.num_channels g;
    npaths = Route_store.num_paths w.store;
    build_csr_ms;
    build_ref_ms;
    scan_csr_ms;
    scan_ref_ms;
    assign_csr_ms;
    assign_ref_ms;
    verify_csr_ms;
    verify_ref_ms;
    layers_csr = csr_used;
    layers_ref = ref_used;
    combined_speedup = (build_ref_ms +. assign_ref_ms) /. (build_csr_ms +. assign_csr_ms);
  }

(* Simulator hot-loop allocation: walking every route hop by hop through
   the flat arena must allocate nothing per hop; fetching a fresh path
   array per route (the pre-refactor simulator setup) allocates several
   words per hop. *)
let alloc_per_hop_store store =
  let pbuf = Route_store.buffer store in
  let sink = ref 0 in
  let hops = ref 0 in
  let a0 = Gc.allocated_bytes () in
  Route_store.iter_pairs store (fun pair ->
      let off = Route_store.offset store ~pair in
      let len = Route_store.length store ~pair in
      for i = off to off + len - 1 do
        sink := !sink + pbuf.(i);
        incr hops
      done);
  let a1 = Gc.allocated_bytes () in
  ignore !sink;
  (a1 -. a0) /. float_of_int (max 1 !hops)

let alloc_per_hop_copies store =
  let sink = ref 0 in
  let hops = ref 0 in
  let a0 = Gc.allocated_bytes () in
  Route_store.iter_pairs store (fun pair ->
      let p = Route_store.to_path store ~pair in
      Array.iter
        (fun c ->
          sink := !sink + c;
          incr hops)
        p);
  let a1 = Gc.allocated_bytes () in
  ignore !sink;
  (a1 -. a0) /. float_of_int (max 1 !hops)

let json_row r =
  let open Obs.Json in
  let vs csr hashtbl = [ ("csr", Num csr); ("hashtbl", Num hashtbl); ("speedup", Num (hashtbl /. csr)) ] in
  Obj
    [
      ("name", Str r.wname);
      ("endpoints", Kit.json_int r.endpoints);
      ("channels", Kit.json_int r.channels);
      ("paths", Kit.json_int r.npaths);
      ("build_ms", Obj (vs r.build_csr_ms r.build_ref_ms));
      ("weakest_scan_ms", Obj (vs r.scan_csr_ms r.scan_ref_ms));
      ( "assign_ms",
        Obj
          (vs r.assign_csr_ms r.assign_ref_ms
          @ [ ("layers_csr", Kit.json_int r.layers_csr); ("layers_hashtbl", Kit.json_int r.layers_ref) ]) );
      ("verify_ms", Obj (vs r.verify_csr_ms r.verify_ref_ms));
      ("build_plus_break_speedup", Num r.combined_speedup);
    ]

(* ------------------------------------------------------------------ *)
(* Heap reuse micro-bench: the SSSP kernels (Routing.Spf) allocate one
   heap per workspace and [Heap.clear] it before every tree; clear is
   O(1) (a generation-stamp bump), so reuse must beat recreating the
   heap even when each tree only ever touches a small fraction of the
   capacity — exactly the sparse-frontier shape Dijkstra produces.      *)
(* ------------------------------------------------------------------ *)

let heap_rounds = 10_000

let heap_capacity = 16_384

let heap_live = 48

let heap_churn h rng =
  for _ = 1 to heap_live do
    let x = Rng.int rng heap_capacity in
    if not (Heap.mem h x) then Heap.insert h x (Rng.int rng 1000)
  done;
  let drained = ref 0 in
  let rec drain () =
    match Heap.pop_min h with
    | None -> ()
    | Some _ ->
      incr drained;
      drain ()
  in
  drain ();
  !drained

let measure_heap_reuse () =
  let reuse_ms, a =
    Kit.time_best (fun () ->
        let h = Heap.create heap_capacity in
        let rng = Rng.create 42 in
        let total = ref 0 in
        for _ = 1 to heap_rounds do
          total := !total + heap_churn h rng;
          Heap.clear h
        done;
        !total)
  in
  let fresh_ms, b =
    Kit.time_best (fun () ->
        let rng = Rng.create 42 in
        let total = ref 0 in
        for _ = 1 to heap_rounds do
          let h = Heap.create heap_capacity in
          total := !total + heap_churn h rng
        done;
        !total)
  in
  assert (a = b);
  (reuse_ms, fresh_ms)

let () =
  let xgft =
    build_workload "xgft-4096" (Topo_xgft.make ~ms:[| 64; 64 |] ~ws:[| 1; 32 |] ~endpoints:4096)
      ~num_dsts:64
  in
  let torus =
    build_workload "torus-16x16"
      (fst (Topo_torus.torus ~dims:[| 16; 16 |] ~terminals_per_switch:4))
      ~num_dsts:128
  in
  let torus_big =
    build_workload "torus-64x64"
      (fst (Topo_torus.torus ~dims:[| 64; 64 |] ~terminals_per_switch:1))
      ~num_dsts:16
  in
  let workloads = [ xgft; torus; torus_big ] in
  (* Allocator warmup: the first multi-megabyte array allocations of a
     fresh process are page-fault bound and would bill whichever
     implementation happens to run first. *)
  List.iter (fun w -> ignore (Cdg.of_store w.store)) workloads;
  List.iter (fun w -> ignore (Cdg.of_store w.store)) workloads;
  let rows = List.map measure workloads in
  List.iter
    (fun r ->
      Printf.printf
        "%-12s %5d endpoints, %6d paths | build %7.2f vs %7.2f ms | scan %7.2f vs %7.2f ms | \
         assign %7.2f vs %7.2f ms (%d/%d layers) | verify %7.2f vs %7.2f ms | build+break %.2fx\n"
        r.wname r.endpoints r.npaths r.build_csr_ms r.build_ref_ms r.scan_csr_ms r.scan_ref_ms
        r.assign_csr_ms r.assign_ref_ms r.layers_csr r.layers_ref r.verify_csr_ms r.verify_ref_ms
        r.combined_speedup)
    rows;
  let heap_reuse_ms, heap_fresh_ms = measure_heap_reuse () in
  Printf.printf
    "heap reuse (%d trees, %d/%d live): clear-and-reuse %.2f ms vs recreate %.2f ms (%.1fx)\n"
    heap_rounds heap_live heap_capacity heap_reuse_ms heap_fresh_ms
    (heap_fresh_ms /. heap_reuse_ms);
  let store_bph = alloc_per_hop_store xgft.store in
  let copy_bph = alloc_per_hop_copies xgft.store in
  Printf.printf "hot-loop allocation: %.4f bytes/hop via arena, %.2f bytes/hop via path copies\n"
    store_bph copy_bph;
  (* acceptance row: a >= 4096-endpoint topology whose assignment
     actually breaks cycles, so build AND weakest-edge breaking both
     contribute *)
  let big = List.find (fun r -> r.wname = "torus-64x64") rows in
  let gates =
    [
      Kit.gate "speedup"
        ~target:(Printf.sprintf "csr build+break >= 2.0x the hashtbl reference on %s" big.wname)
        (big.combined_speedup >= 2.0);
      Kit.gate "alloc" ~target:"< 1 byte allocated per hop walking routes via the arena" (store_bph < 1.0);
    ]
  in
  Kit.write_json ~benchmark:"route_store"
    Obs.Json.
      [
        ("topologies", List (List.map json_row rows));
        ("alloc_bytes_per_hop", Obj [ ("arena", Num store_bph); ("path_copies", Num copy_bph) ]);
        ( "heap_reuse_ms",
          Obj
            [
              ("clear_and_reuse", Num heap_reuse_ms);
              ("recreate", Num heap_fresh_ms);
              ("speedup", Num (heap_fresh_ms /. heap_reuse_ms));
            ] );
      ]
    gates;
  Kit.finish gates
