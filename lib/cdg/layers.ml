let log_src = Logs.Src.create "deadlock.layers" ~doc:"offline virtual-layer assignment (Algorithm 2)"

module Log = (val Logs.src_log log_src : Logs.LOG)

type engine =
  [ `Scc
  | `Dfs
  ]

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

(* Stage timers, shared by both engines so benches can diff the split:
   condense = SCC condensation / DFS cycle search, evict = eviction
   planning and pair relocation, rebuild = CDG construction. *)
let t_condense =
  Obs.Registry.timer "layers.condense" ~desc:"seconds condensing/searching layer CDGs for cycles"

let t_evict = Obs.Registry.timer "layers.evict" ~desc:"seconds planning and applying edge evictions"

let t_rebuild = Obs.Registry.timer "layers.rebuild" ~desc:"seconds building layer CDGs"

let budget_error vl max_layers =
  Printf.sprintf "cycle remains in layer %d and no layer is left (max %d)" vl max_layers

(* ------------------------------------------------------------------ *)
(* DFS oracle: the paper's one-cycle-at-a-time resumable search.       *)
(* ------------------------------------------------------------------ *)

let assign_store_dfs store ~max_layers ~heuristic =
  let layer_of_path = Array.make (Route_store.capacity store) (-1) in
  Route_store.iter_pairs store (fun pr -> layer_of_path.(pr) <- 0);
  let cycles_broken = ref 0 in
  let current = ref (Some (Obs.Timer.time t_rebuild (fun () -> Cdg.of_store store))) in
  let error = ref None in
  let vl = ref 0 in
  while !error = None && !current <> None do
    let current_cdg = Option.get !current in
    let span =
      Obs.Trace.begin_span "layers.layer" ~attrs:(fun () ->
          [ ("layer", Obs.Trace.Int !vl); ("engine", Obs.Trace.Str "dfs") ])
    in
    (* A built CDG never grows, so {!Cycle}'s slot cursors stay valid
       while [search] is alive. The pairs evicted from it are
       collected and built into the next layer's CSR in one
       {!Cdg.of_store} once the sweep is done, exactly as the SCC engine
       does. *)
    let search = Cycle.create current_cdg in
    let next = ref [] in
    let layer_cycles = ref 0 in
    let layer_movers = ref 0 in
    let sweeping = ref true in
    while !sweeping && !error = None do
      match Obs.Timer.time t_condense (fun () -> Cycle.find_cycle search) with
      | None -> sweeping := false
      | Some cycle ->
        incr cycles_broken;
        incr layer_cycles;
        if !vl + 1 >= max_layers then error := Some (budget_error !vl max_layers)
        else begin
          Obs.Timer.time t_evict (fun () ->
              let c1, c2 = Heuristic.choose heuristic current_cdg cycle in
              (* membership is exact, so every inducing pair lives here;
                 the multiset may repeat a pair, hence the dedup *)
              let movers = List.sort_uniq compare (Cdg.edge_pairs current_cdg ~c1 ~c2) in
              Log.debug (fun m ->
                  m "layer %d: cycle of %d edges; evicting edge (%d,%d) with %d slices" !vl
                    (Array.length cycle) c1 c2 (List.length movers));
              List.iter
                (fun pr ->
                  Cdg.remove_pair current_cdg store ~pair:pr;
                  layer_movers := !layer_movers + Route_store.weight store ~pair:pr;
                  next := pr :: !next;
                  layer_of_path.(pr) <- !vl + 1)
                movers);
          Obs.Timer.time t_condense (fun () -> Cycle.notify_removed search)
        end
    done;
    Obs.Counter.incr ~n:!layer_cycles c_evictions;
    Obs.Trace.end_span span
      ~attrs:
        [ ("evictions", Obs.Trace.Int !layer_cycles); ("movers", Obs.Trace.Int !layer_movers) ];
    current :=
      (match !next with
      | [] -> None
      | _ when !error <> None -> None
      | movers ->
        let movers = Array.of_list movers in
        Array.sort compare movers;
        Some (Obs.Timer.time t_rebuild (fun () -> Cdg.of_store ~pairs:movers store)));
    incr vl
  done;
  match !error with
  | Some msg -> Error msg
  | None ->
    let layers_used = 1 + Array.fold_left max 0 layer_of_path in
    Ok { layer_of_path; layers_used; cycles_broken = !cycles_broken }

(* ------------------------------------------------------------------ *)
(* SCC engine: condense once per layer, plan evictions per component.  *)
(* ------------------------------------------------------------------ *)

(* The eviction plan of one non-trivial SCC: which pairs leave this
   layer, computed without mutating the shared CDG. *)
type plan = {
  p_evicted : int list; (* in eviction order *)
  p_edges : int; (* edges evicted, one per cycle found *)
}

(* Plan evictions for the non-trivial component [members] of [cdg]
   (whose condensation produced [comp_of]); [local_of] maps each member
   channel to its index in [members]. Reads [cdg] only, through its CSR
   slots, so concurrent planning of disjoint components is safe.

   The component's internal edges are mirrored into a local CSR with an
   exact live-inducer count per edge and a (c1, c2) -> edge map over
   just the internal edges, so evicting a pair is a walk of its path
   deps with O(1) count decrements — no tombstone scans in the shared
   structure, and no per-pair bookkeeping for the vast majority of
   pairs that never move. Cycles never leave their SCC (edges removed
   from a digraph cannot merge SCCs), so a resumable cycle DFS confined
   to the component — with the oracle's search order and on-cycle
   heuristic — finds and breaks everything the oracle would, at a
   fraction of the bookkeeping cost. The plan never consults other
   components, so results are deterministic under any domain count. *)
let plan_comp cdg ~store ~comp_of ~local_of ~heuristic members =
  let n = Array.length members in
  let mycomp = comp_of.(members.(0)) in
  let m = Graph.num_channels (Cdg.graph cdg) in
  (* Local CSR over internal live edges: row [li] owns edges
     [deg.(li) .. deg.(li+1) - 1]. *)
  let deg = Array.make (n + 1) 0 in
  Array.iteri
    (fun li v ->
      let lo, hi = Cdg.slot_range cdg v in
      for sl = lo to hi - 1 do
        if Cdg.slot_count cdg sl > 0 && comp_of.(Cdg.slot_col cdg sl) = mycomp then
          deg.(li + 1) <- deg.(li + 1) + 1
      done)
    members;
  for i = 1 to n do
    deg.(i) <- deg.(i) + deg.(i - 1)
  done;
  let ne = deg.(n) in
  let edst = Array.make ne 0 in
  let eslot = Array.make ne 0 in
  let elive = Array.make ne 0 in
  let e_of = Hashtbl.create (2 * ne) in
  let pos = Array.sub deg 0 n in
  Array.iteri
    (fun li v ->
      let lo, hi = Cdg.slot_range cdg v in
      for sl = lo to hi - 1 do
        let cnt = Cdg.slot_count cdg sl in
        if cnt > 0 then begin
          let w = Cdg.slot_col cdg sl in
          if comp_of.(w) = mycomp then begin
            let e = pos.(li) in
            pos.(li) <- e + 1;
            edst.(e) <- local_of.(w);
            eslot.(e) <- sl;
            elive.(e) <- cnt;
            Hashtbl.replace e_of ((v * m) + w) e
          end
        end
      done)
    members;
  let evicted = Hashtbl.create 64 in
  let ev_order = ref [] in
  let edges_evicted = ref 0 in
  (* Evict every still-live pair of edge [e]: replaying a pair's path
     deps decrements exactly the (weighted) counts its insertion bumped. *)
  let evict_pairs e =
    Cdg.iter_slot_pairs cdg eslot.(e) (fun pr ->
        if not (Hashtbl.mem evicted pr) then begin
          Hashtbl.add evicted pr ();
          ev_order := pr :: !ev_order;
          let w = Route_store.weight store ~pair:pr in
          Route_store.iter_deps store ~pair:pr (fun c1 c2 ->
              match Hashtbl.find_opt e_of ((c1 * m) + c2) with
              | Some e' -> elive.(e') <- elive.(e') - w
              | None -> ())
        end)
  in
  (* Resumable cycle DFS over the local CSR — the oracle's search order
     and on-cycle heuristic choice ({!Cycle} + {!Heuristic.choose}), but
     every eviction is O(edges of the pair) decrements here instead of
     tombstone scans in the shared CDG. [fedge.(i)] is the live edge the
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
               the closing edge [e]. Choose exactly as the oracle does —
               cycle order starting at [w], first edge wins ties. *)
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
               others): cut the stack at the first dead edge, as
               {!Cycle.notify_removed} does. If only the closing edge
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
  let current = ref (Some (Obs.Timer.time t_rebuild (fun () -> Cdg.of_store store))) in
  while !error = None && !current <> None do
    let cdg =
      match !current with
      | Some c -> c
      | None -> assert false
    in
    let span =
      Obs.Trace.begin_span "layers.layer" ~attrs:(fun () ->
          [ ("layer", Obs.Trace.Int !vl); ("engine", Obs.Trace.Str "scc") ])
    in
    let scc = Obs.Timer.time t_condense (fun () -> Scc.of_cdg cdg) in
    let nontrivial = scc.Scc.nontrivial in
    let n_nontrivial = Array.length nontrivial in
    let largest = Array.fold_left (fun acc c -> max acc (Array.length c)) 0 nontrivial in
    if n_nontrivial = 0 then begin
      Obs.Trace.end_span span
        ~attrs:
          [
            ("sccs", Obs.Trace.Int scc.Scc.num_comps);
            ("nontrivial", Obs.Trace.Int 0);
            ("evictions", Obs.Trace.Int 0);
            ("movers", Obs.Trace.Int 0);
          ];
      current := None
    end
    else if !vl + 1 >= max_layers then begin
      Obs.Trace.end_span span
        ~attrs:[ ("error", Obs.Trace.Str "layer budget exhausted") ];
      error := Some (budget_error !vl max_layers)
    end
    else begin
      let plans =
        Obs.Timer.time t_evict (fun () ->
            Array.iter (Array.iteri (fun li v -> local_of.(v) <- li)) nontrivial;
            let comp_of = scc.Scc.comp_of in
            let plans =
              Parallel.map_array ~domains
                (fun members -> plan_comp cdg ~store ~comp_of ~local_of ~heuristic members)
                nontrivial
            in
            Array.iter (Array.iter (fun v -> local_of.(v) <- -1)) nontrivial;
            plans)
      in
      (* Merge sequentially in component order: plans are independent,
         so a pair evicted by two components moves once. *)
      let movers = ref [] in
      let n_movers = ref 0 in
      let layer_edges = ref 0 in
      Array.iter
        (fun p ->
          layer_edges := !layer_edges + p.p_edges;
          List.iter
            (fun pr ->
              if layer_of_path.(pr) = !vl then begin
                layer_of_path.(pr) <- !vl + 1;
                movers := pr :: !movers;
                n_movers := !n_movers + Route_store.weight store ~pair:pr
              end)
            p.p_evicted)
        plans;
      cycles_broken := !cycles_broken + !layer_edges;
      Obs.Counter.incr ~n:!layer_edges c_evictions;
      Log.debug (fun m ->
          m "layer %d: %d non-trivial SCC(s) (largest %d); evicted %d edge(s), moving %d route(s)"
            !vl n_nontrivial largest !layer_edges !n_movers);
      Obs.Trace.end_span span
        ~attrs:
          [
            ("sccs", Obs.Trace.Int scc.Scc.num_comps);
            ("nontrivial", Obs.Trace.Int n_nontrivial);
            ("largest", Obs.Trace.Int largest);
            ("evictions", Obs.Trace.Int !layer_edges);
            ("movers", Obs.Trace.Int !n_movers);
          ];
      (* Stream the movers straight into layer k+1's CSR build — a scan
         of just the moved pairs, not the store's full capacity. *)
      let movers = Array.of_list !movers in
      Array.sort compare movers;
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
  if max_layers < 1 then invalid_arg "Layers.assign: max_layers < 1";
  Obs.Counter.incr c_assignments;
  let span =
    Obs.Trace.begin_span "layers.assign" ~attrs:(fun () ->
        [
          ("paths", Obs.Trace.Int (Route_store.num_paths store));
          ("max_layers", Obs.Trace.Int max_layers);
          ("engine", Obs.Trace.Str (match engine with `Scc -> "scc" | `Dfs -> "dfs"));
        ])
  in
  let result =
    Obs.Timer.time t_assign (fun () ->
        match engine with
        | `Dfs -> assign_store_dfs store ~max_layers ~heuristic
        | `Scc -> assign_store_scc store ~max_layers ~heuristic ~domains)
  in
  (match result with
  | Ok o ->
    Obs.Counter.incr ~n:o.cycles_broken c_cycles;
    Log.info (fun m ->
        m "assigned %d routes over %d layer(s), breaking %d cycle(s)" (Route_store.num_paths store)
          o.layers_used o.cycles_broken);
    Obs.Trace.end_span span
      ~attrs:
        [
          ("layers_used", Obs.Trace.Int o.layers_used);
          ("cycles_broken", Obs.Trace.Int o.cycles_broken);
        ]
  | Error msg -> Obs.Trace.end_span span ~attrs:[ ("error", Obs.Trace.Str msg) ]);
  result

let assign ?engine ?domains g ~paths ~max_layers ~heuristic =
  assign_store ?engine ?domains (Route_store.of_paths g paths) ~max_layers ~heuristic

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
