module Layer = struct
  (* The build's slot counts, and its pair membership copied slot by slot
     the first time a removal or a membership read reaches the slot:
     removing a pair tombstones its entry (-1) and takes its weight off
     the slot's count. A slot's count is the summed weight of its live
     members, so a dead slot (count 0) is an edge whose every inducing
     route has moved on. Nothing is copied before the layer's first
     eviction, so an acyclic layer costs what it cost the original
     engine. *)
  type t = {
    cdg : Cdg.t;
    store : Route_store.t;
    mutable cnt : int array; (* per slot; [||] = nothing copied yet *)
    mutable members : int array array; (* per slot: member pair ids, -1 = removed; [||] = not copied *)
    mutable scratch : int array; (* as long as the largest slot count, which bounds its members *)
    mutable num_edges : int;
    mutable num_paths : int;
  }

  let create store cdg =
    {
      cdg;
      store;
      cnt = [||];
      members = [||];
      scratch = [||];
      num_edges = Cdg.num_edges cdg;
      num_paths = Cdg.num_paths cdg;
    }

  let count t sl = if Array.length t.cnt = 0 then Cdg.slot_count t.cdg sl else t.cnt.(sl)

  (* Every built slot has a member, so an empty copy is one not made yet. *)
  let members t sl =
    if Array.length t.cnt = 0 then begin
      let m = Graph.num_channels (Cdg.graph t.cdg) in
      t.cnt <- Array.init (snd (Cdg.slot_range t.cdg (m - 1))) (Cdg.slot_count t.cdg);
      t.members <- Array.make (Array.length t.cnt) [||];
      t.scratch <- Array.make (Array.fold_left max 0 t.cnt) 0
    end;
    if Array.length t.members.(sl) = 0 then begin
      let n = ref 0 in
      Cdg.iter_slot_pairs t.cdg sl (fun p ->
          t.scratch.(!n) <- p;
          incr n);
      t.members.(sl) <- Array.sub t.scratch 0 !n
    end;
    t.members.(sl)

  let find_slot t c1 c2 =
    let lo, hi = Cdg.slot_range t.cdg c1 in
    let rec go i = if i >= hi then -1 else if Cdg.slot_col t.cdg i = c2 then i else go (i + 1) in
    go lo

  let remove_edge t c1 c2 pair w =
    let sl = find_slot t c1 c2 in
    if sl < 0 || count t sl = 0 then invalid_arg "Dfs_ref.Layer.remove_pair: edge not present";
    let mem = members t sl in
    let hi = Array.length mem in
    let rec tombstone i =
      if i >= hi then invalid_arg "Dfs_ref.Layer.remove_pair: pair not on edge"
      else if mem.(i) = pair then mem.(i) <- -1
      else tombstone (i + 1)
    in
    tombstone 0;
    t.cnt.(sl) <- t.cnt.(sl) - w;
    if t.cnt.(sl) = 0 then t.num_edges <- t.num_edges - 1

  let remove_pair t ~pair =
    let w = Route_store.weight t.store ~pair in
    for i = 0 to Route_store.length t.store ~pair - 2 do
      remove_edge t (Route_store.get t.store ~pair i) (Route_store.get t.store ~pair (i + 1)) pair w
    done;
    t.num_paths <- t.num_paths - 1

  let slot_live t sl = count t sl > 0

  let edge_count t ~c1 ~c2 =
    let sl = find_slot t c1 c2 in
    if sl >= 0 then count t sl else 0

  let live t ~c1 ~c2 = edge_count t ~c1 ~c2 > 0

  let edge_pairs t ~c1 ~c2 =
    let sl = find_slot t c1 c2 in
    if sl < 0 || count t sl = 0 then []
    else Array.fold_right (fun p acc -> if p >= 0 then p :: acc else acc) (members t sl) []

  let num_edges t = t.num_edges

  let num_paths t = t.num_paths
end

module Search = struct
  type color =
    | White
    | Gray
    | Black

  (* A frame walks the CSR row of [node] by slot index. Liveness is
     re-checked at consumption, so edges removed after the push are
     skipped. *)
  type frame = {
    node : int;
    mutable sl : int; (* next slot to examine *)
    sl_hi : int;
  }

  type t = {
    layer : Layer.t;
    color : color array;
    mutable stack : frame list; (* top first *)
    stack_pos : int array; (* channel -> depth in stack, or -1 *)
    mutable depth : int;
    mutable next_root : int;
    injection : bool array; (* channel -> leaves a terminal for a switch *)
  }

  (* Roots skip injection channels, as {!Deadlock.Cycle.find} does. *)
  let create (layer : Layer.t) =
    let g = Cdg.graph layer.Layer.cdg in
    let m = Graph.num_channels g in
    let injection =
      Array.map
        (fun (c : Channel.t) -> Graph.is_terminal g c.Channel.src && Graph.is_switch g c.Channel.dst)
        (Graph.channels g)
    in
    {
      layer;
      color = Array.make m White;
      stack = [];
      stack_pos = Array.make m (-1);
      depth = 0;
      next_root = 0;
      injection;
    }

  let push t node =
    t.color.(node) <- Gray;
    t.stack_pos.(node) <- t.depth;
    t.depth <- t.depth + 1;
    let lo, hi = Cdg.slot_range t.layer.Layer.cdg node in
    t.stack <- { node; sl = lo; sl_hi = hi } :: t.stack

  let pop t =
    match t.stack with
    | [] -> assert false
    | f :: rest ->
      t.color.(f.node) <- Black;
      t.stack_pos.(f.node) <- -1;
      t.depth <- t.depth - 1;
      t.stack <- rest

  (* Cycle through the gray node [target]: the stack edges from [target]'s
     depth up to the top, plus the closing back edge (top, target). *)
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
    (* Examine the live successor [s]; [advance] moves past it. Does not
       advance on Gray: if the caller breaks the cycle elsewhere, the same
       back edge must be re-examined; if the caller kills this edge, the
       liveness check skips it. *)
    let visit s advance =
      match t.color.(s) with
      | Gray ->
        result := Some (extract_cycle t s);
        running := false
      | Black -> advance ()
      | White ->
        advance ();
        push t s
    in
    while !running do
      match t.stack with
      | [] ->
        if t.next_root >= m then running := false
        else if t.color.(t.next_root) = White && not t.injection.(t.next_root) then push t t.next_root
        else t.next_root <- t.next_root + 1
      | f :: _ ->
        if f.sl < f.sl_hi then begin
          let sl = f.sl in
          if not (Layer.slot_live t.layer sl) then f.sl <- f.sl + 1
          else visit (Cdg.slot_col t.layer.Layer.cdg sl) (fun () -> f.sl <- f.sl + 1)
        end
        else pop t
    done;
    !result

  let notify_removed t =
    (* Walk from the bottom; cut at the first dead stack edge. *)
    let frames = Array.of_list (List.rev t.stack) in
    let n = Array.length frames in
    let cut = ref n in
    for i = 1 to n - 1 do
      if !cut = n && not (Layer.live t.layer ~c1:frames.(i - 1).node ~c2:frames.(i).node) then cut := i
    done;
    if !cut < n then begin
      (* Frames cut..n-1 revert to white (unexplored). *)
      for i = !cut to n - 1 do
        t.color.(frames.(i).node) <- White;
        t.stack_pos.(frames.(i).node) <- -1
      done;
      t.depth <- !cut;
      let rec keep i acc = if i >= !cut then acc else keep (i + 1) (frames.(i) :: acc) in
      t.stack <- keep 0 []
    end
end

let choose h layer cycle =
  if Array.length cycle = 0 then invalid_arg "Dfs_ref.choose: empty cycle";
  match h with
  | Heuristic.First_edge -> cycle.(0)
  | Heuristic.Weakest | Heuristic.Heaviest ->
    let better a b = if h = Heuristic.Weakest then a < b else a > b in
    let best = ref cycle.(0) in
    let best_count = ref (Layer.edge_count layer ~c1:(fst cycle.(0)) ~c2:(snd cycle.(0))) in
    Array.iter
      (fun (c1, c2) ->
        let count = Layer.edge_count layer ~c1 ~c2 in
        if better count !best_count then begin
          best := (c1, c2);
          best_count := count
        end)
      cycle;
    !best

let t_condense = Obs.Registry.timer "dfs_ref.condense" ~desc:"seconds searching layer CDGs for cycles"

let t_evict = Obs.Registry.timer "dfs_ref.evict" ~desc:"seconds choosing and relocating evicted routes"

let t_rebuild = Obs.Registry.timer "dfs_ref.rebuild" ~desc:"seconds building layer CDGs"

let assign_store store ~max_layers ~heuristic =
  if max_layers < 1 then invalid_arg "Dfs_ref.assign_store: max_layers < 1";
  let layer_of_path = Array.make (Route_store.capacity store) (-1) in
  Route_store.iter_pairs store (fun pr -> layer_of_path.(pr) <- 0);
  let cycles_broken = ref 0 in
  let build ?pairs () = Obs.Timer.time t_rebuild (fun () -> Layer.create store (Cdg.of_store ?pairs store)) in
  let current = ref (Some (build ())) in
  let error = ref None in
  let vl = ref 0 in
  while !error = None && !current <> None do
    let layer = Option.get !current in
    let search = Search.create layer in
    let next = ref [] in
    let sweeping = ref true in
    while !sweeping && !error = None do
      match Obs.Timer.time t_condense (fun () -> Search.find_cycle search) with
      | None -> sweeping := false
      | Some cycle ->
        incr cycles_broken;
        if !vl + 1 >= max_layers then
          error :=
            Some
              (Printf.sprintf "cycle remains in layer %d and no layer is left (max %d)" !vl max_layers)
        else begin
          Obs.Timer.time t_evict (fun () ->
              let c1, c2 = choose heuristic layer cycle in
              (* the multiset may repeat a pair, hence the dedup *)
              let movers = List.sort_uniq compare (Layer.edge_pairs layer ~c1 ~c2) in
              List.iter
                (fun pr ->
                  Layer.remove_pair layer ~pair:pr;
                  next := pr :: !next;
                  layer_of_path.(pr) <- !vl + 1)
                movers);
          Obs.Timer.time t_condense (fun () -> Search.notify_removed search)
        end
    done;
    current :=
      (match !next with
      | [] -> None
      | _ when !error <> None -> None
      | movers ->
        let movers = Array.of_list movers in
        Array.sort compare movers;
        Some (build ~pairs:movers ()));
    incr vl
  done;
  match !error with
  | Some msg -> Error msg
  | None ->
    let layers_used = 1 + Array.fold_left max 0 layer_of_path in
    Ok { Layers.layer_of_path; layers_used; cycles_broken = !cycles_broken }
