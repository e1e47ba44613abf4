let log_src = Logs.Src.create "deadlock.layers" ~doc:"offline virtual-layer assignment (Algorithm 2)"

module Log = (val Logs.src_log log_src : Logs.LOG)

type engine = [ `Scc ]

type outcome = {
  layer_of_path : int array;
  layers_used : int;
  cycles_broken : int;
}

let c_assignments = Obs.Registry.counter "layers.assignments" ~desc:"offline layer assignments run"

let c_cycles = Obs.Registry.counter "layers.cycles_broken" ~desc:"CDG cycles broken across all assignments"

let c_evictions =
  Obs.Registry.counter "layers.evictions" ~desc:"CDG edges evicted to a higher layer across all assignments"

let t_assign = Obs.Registry.timer "layers.assign" ~desc:"seconds per offline layer assignment"

(* Stage timers: condense = SCC condensation, evict = eviction planning
   and pair relocation, rebuild = CDG construction. *)
let t_condense =
  Obs.Registry.timer "layers.condense" ~desc:"seconds condensing/searching layer CDGs for cycles"

let t_evict = Obs.Registry.timer "layers.evict" ~desc:"seconds planning and applying edge evictions"

let t_rebuild = Obs.Registry.timer "layers.rebuild" ~desc:"seconds building layer CDGs"

let budget_error vl max_layers =
  Printf.sprintf "cycle remains in layer %d and no layer is left (max %d)" vl max_layers

(* ------------------------------------------------------------------ *)
(* SCC engine: condense once per layer, plan evictions per component.  *)
(* ------------------------------------------------------------------ *)

(* The eviction plan of one non-trivial SCC: which pairs leave this
   layer, computed without mutating the shared CDG. *)
type plan = {
  p_evicted : int list; (* in eviction order *)
  p_edges : int; (* edges evicted, one per cycle found *)
}

(* A planning domain's evicted set: [evicted.(pr) = stamp] marks pair
   [pr] evicted by the component being planned. Every component takes a
   fresh stamp, so one array over the store's pair ids serves every
   component and layer the domain plans, and a mark made for one
   component never counts in another. Allocated on the domain's first
   component. *)
type scratch = {
  mutable evicted : int array;
  mutable stamp : int;
}

let new_scratch _slot = { evicted = [||]; stamp = 0 }

(* Plan evictions for the non-trivial component [members] of [cdg]
   (whose condensation produced [comp_of]); [local_of] maps each member
   channel to its index in [members]. Reads [cdg] and [store] only,
   through the CDG's CSR slots and the store's arena, so concurrent
   planning of disjoint components is safe; each domain marks evicted
   pairs in its own [scratch].

   The component's internal edges are mirrored into a local CSR with an
   exact live-inducer count per edge. A row holds at most a radix of
   edges, so an internal edge c1 -> c2 is found by scanning c1's row;
   evicting a pair is a walk of its path deps with O(radix) count
   decrements, and the vast majority of pairs, which never move, cost
   nothing. Cycles never leave their SCC (edges removed from a digraph
   cannot merge SCCs), so a resumable cycle DFS confined to the
   component — with the paper's search order and on-cycle heuristic —
   finds and breaks every cycle the whole-layer, one-cycle-at-a-time
   search would (the test oracle [Oracles.Dfs_ref]). The plan never
   consults other components, so results are deterministic under any
   domain count. *)
let plan_comp cdg ~store ~comp_of ~local_of ~heuristic ~scratch members =
  let n = Array.length members in
  let mycomp = comp_of.(members.(0)) in
  (* Local CSR over internal live edges: row [li] owns edges
     [deg.(li) .. deg.(li+1) - 1]. *)
  let deg = Array.make (n + 1) 0 in
  Array.iteri
    (fun li v ->
      let lo, hi = Cdg.slot_range cdg v in
      for sl = lo to hi - 1 do
        if comp_of.(Cdg.slot_col cdg sl) = mycomp then deg.(li + 1) <- deg.(li + 1) + 1
      done)
    members;
  for i = 1 to n do
    deg.(i) <- deg.(i) + deg.(i - 1)
  done;
  let ne = deg.(n) in
  let edst = Array.make ne 0 in
  let eslot = Array.make ne 0 in
  let elive = Array.make ne 0 in
  let pos = Array.sub deg 0 n in
  Array.iteri
    (fun li v ->
      let lo, hi = Cdg.slot_range cdg v in
      for sl = lo to hi - 1 do
        let w = Cdg.slot_col cdg sl in
        if comp_of.(w) = mycomp then begin
          let e = pos.(li) in
          pos.(li) <- e + 1;
          edst.(e) <- local_of.(w);
          eslot.(e) <- sl;
          elive.(e) <- Cdg.slot_count cdg sl
        end
      done)
    members;
  (* the internal edge c1 -> c2, or -1 *)
  let edge_of c1 c2 =
    if comp_of.(c1) <> mycomp || comp_of.(c2) <> mycomp then -1
    else begin
      let w = local_of.(c2) and li = local_of.(c1) in
      let e = ref deg.(li) and hi = deg.(li + 1) in
      while !e < hi && edst.(!e) <> w do
        incr e
      done;
      if !e < hi then !e else -1
    end
  in
  if Array.length scratch.evicted = 0 then scratch.evicted <- Array.make (Route_store.capacity store) 0;
  scratch.stamp <- scratch.stamp + 1;
  let evicted = scratch.evicted and stamp = scratch.stamp in
  let buf = Route_store.buffer store
  and off = Route_store.offsets store
  and len = Route_store.lengths store
  and weights = Route_store.weights store in
  let ev_order = ref [] in
  let edges_evicted = ref 0 in
  (* Evict every still-live pair of edge [e]: replaying a pair's path
     deps decrements exactly the (weighted) counts its insertion bumped. *)
  let evict_pairs e =
    Cdg.iter_slot_pairs cdg eslot.(e) (fun pr ->
        if evicted.(pr) <> stamp then begin
          evicted.(pr) <- stamp;
          ev_order := pr :: !ev_order;
          let w = match weights with None -> 1 | Some ws -> ws.(pr) in
          for i = off.(pr) to off.(pr) + len.(pr) - 2 do
            let e' = edge_of buf.(i) buf.(i + 1) in
            if e' >= 0 then elive.(e') <- elive.(e') - w
          done
        end)
  in
  (* Resumable cycle DFS over the local CSR, in {!Cycle}'s slot order,
     with the heuristic choosing on each cycle found; every eviction is
     O(edges of the pair) decrements. [fedge.(i)] is the live edge the
     stack followed into frame [i]; after an eviction the stack is cut
     at the first dead one, reverting the frames above to white. *)
  let white = 0 and gray = 1 and black = 2 in
  let color = Array.make n white in
  let spos = Array.make n (-1) in
  let fnode = Array.make n 0 in
  let fcur = Array.make n 0 in
  let fedge = Array.make n (-1) in
  let sp = ref 0 in
  let next_root = ref 0 in
  let push li e =
    color.(li) <- gray;
    spos.(li) <- !sp;
    fnode.(!sp) <- li;
    fcur.(!sp) <- deg.(li);
    fedge.(!sp) <- e;
    incr sp
  in
  let searching = ref true in
  while !searching do
    if !sp = 0 then begin
      if !next_root >= n then searching := false
      else if color.(!next_root) = white then push !next_root (-1)
      else incr next_root
    end
    else begin
      let top = !sp - 1 in
      let li = fnode.(top) in
      if fcur.(top) >= deg.(li + 1) then begin
        color.(li) <- black;
        spos.(li) <- -1;
        decr sp
      end
      else begin
        let e = fcur.(top) in
        if elive.(e) = 0 then fcur.(top) <- e + 1
        else begin
          let w = edst.(e) in
          if color.(w) = black then fcur.(top) <- e + 1
          else if color.(w) = white then begin
            fcur.(top) <- e + 1;
            push w e
          end
          else begin
            (* [w] is gray: the cycle is frames [spos.(w) .. top] plus
               the closing edge [e]. Choose in cycle order starting at
               [w]; the first edge wins ties. *)
            let start = spos.(w) in
            let best = ref (if top > start then fedge.(start + 1) else e) in
            (match heuristic with
            | Heuristic.First_edge -> ()
            | Heuristic.Weakest | Heuristic.Heaviest ->
              let better a b = if heuristic = Heuristic.Weakest then a < b else a > b in
              let best_count = ref elive.(!best) in
              for i = start + 2 to top do
                let c = elive.(fedge.(i)) in
                if better c !best_count then begin
                  best := fedge.(i);
                  best_count := c
                end
              done;
              if top > start && better elive.(e) !best_count then best := e);
            incr edges_evicted;
            evict_pairs !best;
            (* The chosen edge died (and shared pairs may have killed
               others): cut the stack at the first dead edge, reverting
               the frames above it to white. If only the closing edge
               died, resume in place — the cursor re-examines it and
               skips. *)
            let cut = ref (-1) in
            let i = ref 1 in
            while !cut < 0 && !i < !sp do
              if elive.(fedge.(!i)) = 0 then cut := !i;
              incr i
            done;
            if !cut >= 0 then begin
              for j = !cut to !sp - 1 do
                color.(fnode.(j)) <- white;
                spos.(fnode.(j)) <- -1
              done;
              sp := !cut
            end
          end
        end
      end
    end
  done;
  { p_evicted = List.rev !ev_order; p_edges = !edges_evicted }

let assign_store_scc store ~max_layers ~heuristic ~domains =
  let g = Route_store.graph store in
  let layer_of_path = Array.make (Route_store.capacity store) (-1) in
  Route_store.iter_pairs store (fun pr -> layer_of_path.(pr) <- 0);
  let cycles_broken = ref 0 in
  let local_of = Array.make (Graph.num_channels g) (-1) in
  let error = ref None in
  let vl = ref 0 in
  (* The planning domains, each with its scratch: made at the first layer
     with a cycle, kept for the later layers. One domain plans inline. *)
  let pool = ref None in
  let planners () =
    match !pool with
    | Some p -> p
    | None ->
      let p = Parallel.Pool.create ~domains:(max 1 domains) new_scratch in
      pool := Some p;
      p
  in
  let current = ref (Some (Obs.Timer.time t_rebuild (fun () -> Cdg.of_store store))) in
  Fun.protect ~finally:(fun () -> Option.iter Parallel.Pool.shutdown !pool) @@ fun () ->
  while !error = None && !current <> None do
    let cdg =
      match !current with
      | Some c -> c
      | None -> assert false
    in
    let scc =
      Obs.Timer.time t_condense
        ~attrs:(fun scc ->
          [
            ("layer", Obs.Trace.Int !vl);
            ("sccs", Obs.Trace.Int scc.Scc.num_comps);
            ("nontrivial", Obs.Trace.Int (Array.length scc.Scc.nontrivial));
          ])
        (fun () -> Scc.of_cdg cdg)
    in
    let nontrivial = scc.Scc.nontrivial in
    let n_nontrivial = Array.length nontrivial in
    if n_nontrivial = 0 then current := None
    else if !vl + 1 >= max_layers then error := Some (budget_error !vl max_layers)
    else begin
      (* Plan per component in parallel, then merge sequentially in
         component order: plans are independent, so a pair evicted by
         two components moves once. *)
      let n_moved, n_movers, layer_edges =
        Obs.Timer.time t_evict
          ~attrs:(fun (_, n_movers, layer_edges) ->
            [
              ("layer", Obs.Trace.Int !vl);
              ("largest", Obs.Trace.Int (Array.fold_left (fun acc c -> max acc (Array.length c)) 0 nontrivial));
              ("evictions", Obs.Trace.Int layer_edges);
              ("movers", Obs.Trace.Int n_movers);
            ])
          (fun () ->
            Array.iter (Array.iteri (fun li v -> local_of.(v) <- li)) nontrivial;
            let comp_of = scc.Scc.comp_of in
            let plans = Array.make n_nontrivial { p_evicted = []; p_edges = 0 } in
            Parallel.Pool.run (planners ()) ~n:n_nontrivial (fun scratch i ->
                plans.(i) <- plan_comp cdg ~store ~comp_of ~local_of ~heuristic ~scratch nontrivial.(i));
            Array.iter (Array.iter (fun v -> local_of.(v) <- -1)) nontrivial;
            let n_moved = ref 0 and n_movers = ref 0 and layer_edges = ref 0 in
            Array.iter
              (fun p ->
                layer_edges := !layer_edges + p.p_edges;
                List.iter
                  (fun pr ->
                    if layer_of_path.(pr) = !vl then begin
                      layer_of_path.(pr) <- !vl + 1;
                      incr n_moved;
                      n_movers := !n_movers + Route_store.weight store ~pair:pr
                    end)
                  p.p_evicted)
              plans;
            (!n_moved, !n_movers, !layer_edges))
      in
      cycles_broken := !cycles_broken + layer_edges;
      Obs.Counter.incr ~n:layer_edges c_evictions;
      Log.debug (fun m ->
          m "layer %d: %d non-trivial SCC(s); evicted %d edge(s), moving %d route(s)" !vl n_nontrivial
            layer_edges n_movers);
      (* Stream the movers straight into layer k+1's CSR build. No pair
         sat on layer k+1 before this merge, so the pairs there now are
         exactly the movers, and one scan finds them in id order. *)
      let movers = Array.make n_moved 0 and k = ref 0 in
      Array.iteri
        (fun pr l ->
          if l = !vl + 1 then begin
            movers.(!k) <- pr;
            incr k
          end)
        layer_of_path;
      current := Some (Obs.Timer.time t_rebuild (fun () -> Cdg.of_store ~pairs:movers store));
      incr vl
    end
  done;
  match !error with
  | Some msg -> Error msg
  | None ->
    let layers_used = 1 + Array.fold_left max 0 layer_of_path in
    Ok { layer_of_path; layers_used; cycles_broken = !cycles_broken }

let assign_store ?(engine = `Scc) ?(domains = 1) store ~max_layers ~heuristic =
  if max_layers < 1 then invalid_arg "Layers.assign_store: max_layers < 1";
  Obs.Counter.incr c_assignments;
  let paths = Route_store.num_paths store in
  let result =
    Obs.Timer.time t_assign
      ~attrs:(fun result ->
        ("paths", Obs.Trace.Int paths)
        :: ("max_layers", Obs.Trace.Int max_layers)
        ::
        (match result with
        | Ok o ->
          [
            ("layers_used", Obs.Trace.Int o.layers_used);
            ("cycles_broken", Obs.Trace.Int o.cycles_broken);
          ]
        | Error msg -> [ ("error", Obs.Trace.Str msg) ]))
      (fun () -> match engine with `Scc -> assign_store_scc store ~max_layers ~heuristic ~domains)
  in
  Result.iter
    (fun o ->
      Obs.Counter.incr ~n:o.cycles_broken c_cycles;
      Log.info (fun m ->
          m "assigned %d routes over %d layer(s), breaking %d cycle(s)" paths o.layers_used
            o.cycles_broken))
    result;
  result

let balance outcome ~max_layers =
  let used = outcome.layers_used in
  let total = Array.fold_left (fun acc l -> if l >= 0 then acc + 1 else acc) 0 outcome.layer_of_path in
  if max_layers <= used || total = 0 then (Array.copy outcome.layer_of_path, used)
  else begin
    let counts = Array.make used 0 in
    Array.iter (fun l -> if l >= 0 then counts.(l) <- counts.(l) + 1) outcome.layer_of_path;
    (* Apportion the max_layers slots to the original layers proportionally
       to their route counts (largest remainder), at least one slot each. *)
    let total = float_of_int total in
    let slots = Array.make used 1 in
    let assigned = ref used in
    let quota = Array.init used (fun l -> float_of_int counts.(l) /. total *. float_of_int max_layers) in
    (* integer parts beyond the guaranteed 1 *)
    for l = 0 to used - 1 do
      let extra = max 0 (int_of_float quota.(l) - 1) in
      let extra = min extra (max_layers - !assigned) in
      slots.(l) <- slots.(l) + extra;
      assigned := !assigned + extra
    done;
    let order = Array.init used (fun l -> l) in
    Array.sort
      (fun a b ->
        compare (quota.(b) -. Float.of_int slots.(b)) (quota.(a) -. Float.of_int slots.(a)))
      order;
    let i = ref 0 in
    while !assigned < max_layers do
      let l = order.(!i mod used) in
      slots.(l) <- slots.(l) + 1;
      incr assigned;
      incr i
    done;
    (* New layer ids: original layer l owns a contiguous block of slots;
       its routes round-robin over the block. Any subset of an acyclic
       layer is acyclic, and blocks never mix layers. *)
    let base = Array.make used 0 in
    for l = 1 to used - 1 do
      base.(l) <- base.(l - 1) + slots.(l - 1)
    done;
    let seen = Array.make used 0 in
    let fresh =
      Array.map
        (fun l ->
          if l < 0 then -1
          else begin
            let slot = seen.(l) mod slots.(l) in
            seen.(l) <- seen.(l) + 1;
            base.(l) + slot
          end)
        outcome.layer_of_path
    in
    (fresh, max_layers)
  end
