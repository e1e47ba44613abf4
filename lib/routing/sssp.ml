let initial_weights g =
  let n = Graph.num_nodes g in
  Array.make (Graph.num_channels g) (n * n)

let recommended_batch = 32

let default_kernel = Spf.Auto

(* Plane-level telemetry (doc/observability.md): one counter bump per
   destination tree, one timer sample + span per route_destinations
   call, one snapshot-timer sample per batch freeze. Nothing inside the
   kernel or tree-walk loops is touched. *)
let c_dsts = Obs.Registry.counter "sssp.destinations" ~desc:"destination trees routed"

let c_planes = Obs.Registry.counter "sssp.planes" ~desc:"route_destinations invocations"

let t_plane =
  Obs.Registry.timer "sssp.route_destinations" ~desc:"seconds per route_destinations invocation"

let t_snapshot =
  Obs.Registry.timer "sssp.snapshot" ~desc:"seconds freezing weight snapshots (per batch)"

let scan_bounds weights =
  let minw = ref max_int and maxw = ref 1 in
  Array.iter
    (fun w ->
      if w < !minw then minw := w;
      if w > !maxw then maxw := w)
    weights;
  (!minw, !maxw)

(* One destination: a shortest-path tree toward [dst] over [weights]
   from the selected kernel (Spf, DESIGN.md §15), table entries from the
   via-tree, then the tree's terminal flows accumulated far-to-near and
   emitted through [record] (one call per tree channel). [record]
   abstracts where the load lands: the live weight array for the
   sequential recurrence, a per-domain delta for the batched pipeline.

   The kernel's settle order is non-decreasing in distance, and with
   weights >= 1 every via-parent settles strictly before its children,
   so walking the order backwards visits the tree far-to-near — the
   per-destination sort the previous implementation needed is gone. *)
let route_destination_core ws g ~weights ~minw ~maxw ~stamp ~record ~flow ~ft ~dst =
  Obs.Counter.incr c_dsts;
  let { Spf.via; order; reached; _ } = Spf.compute ws g ~weights ~minw ~maxw ~stamp ~dst in
  let n = Graph.num_nodes g in
  if reached < n then Error (Printf.sprintf "sssp: node unreachable toward %d" dst)
  else begin
    Array.iteri (fun u c -> if u <> dst && c >= 0 then Ftable.set_next ft ~node:u ~dst ~channel:c) via;
    (* Weight update: add to each channel the number of terminal routes
       to [dst] crossing it, accumulating flows far-to-near along the
       shortest-path tree. *)
    for v = 0 to n - 1 do
      flow.(v) <- (if Graph.is_terminal g v && v <> dst then 1 else 0)
    done;
    for i = n - 1 downto 0 do
      let u = order.(i) in
      if u <> dst && flow.(u) > 0 then begin
        let c = via.(u) in
        record c flow.(u);
        let v = (Graph.channel g c).Channel.dst in
        flow.(v) <- flow.(v) + flow.(u)
      end
    done;
    Ok ()
  end

(* Sequential step: record straight into the live weights, keeping the
   running max up to date so kernel bucket bounds stay valid without
   rescanning. Weights only grow, so [minw] is stable. *)
let route_destination_scratch ws g ~weights ~minw ~maxw ~flow ~ft ~dst =
  route_destination_core ws g ~weights ~minw ~maxw:!maxw ~stamp:(Spf.fresh_stamp ())
    ~record:(fun c f ->
      let w = weights.(c) + f in
      weights.(c) <- w;
      if w > !maxw then maxw := w)
    ~flow ~ft ~dst

let route_destination ws g ~weights ~ft ~dst =
  let n = Graph.num_nodes g in
  if Array.length weights <> Graph.num_channels g then invalid_arg "Sssp.route_destination: weights size";
  let minw, maxw0 = scan_bounds weights in
  route_destination_scratch ws g ~weights ~minw ~maxw:(ref maxw0) ~flow:(Array.make n 0) ~ft ~dst

(* ------------------------------------------------------------------ *)
(* Per-domain scratch for the batched pipeline                          *)
(* ------------------------------------------------------------------ *)

(* A worker's private state: kernel workspace, tree-walk flow array, and
   a sparse per-channel delta of the flow its destinations contributed in
   the current batch. Scratch lives as long as its pool does and is
   re-validated lazily via epoch stamping: every plane invocation draws a
   fresh epoch; a worker first touching its scratch under a new epoch
   resizes the arrays if the graph (or requested kernel) changed and
   clears any residue, then reuses everything for the rest of the
   invocation. *)
type scratch = {
  mutable epoch : int;
  mutable nodes : int;
  mutable channels : int;
  mutable ws : Spf.workspace option;
  mutable flow : int array;
  mutable delta : int array; (* channel -> flow contributed this batch *)
  mutable touched : int array; (* channels with delta > 0, first num_touched *)
  mutable num_touched : int;
}

type pool = scratch Parallel.Pool.t

let fresh_scratch _slot =
  {
    epoch = -1;
    nodes = -1;
    channels = -1;
    ws = None;
    flow = [||];
    delta = [||];
    touched = [||];
    num_touched = 0;
  }

let create_pool ?domains () = Parallel.Pool.create ?domains fresh_scratch

let destroy_pool = Parallel.Pool.shutdown

let plane_epoch = Atomic.make 0

let revalidate sc ~kernel g ~epoch =
  if sc.epoch <> epoch then begin
    (* Heal residue from an invocation aborted by an exception: deltas
       recorded but never merged must not leak into this plane. *)
    for i = 0 to sc.num_touched - 1 do
      sc.delta.(sc.touched.(i)) <- 0
    done;
    sc.num_touched <- 0;
    let n = Graph.num_nodes g and m = Graph.num_channels g in
    let ws_stale =
      match sc.ws with None -> true | Some ws -> sc.nodes <> n || Spf.kind ws <> kernel
    in
    if ws_stale then begin
      sc.ws <- Some (Spf.workspace ~kernel g);
      sc.flow <- Array.make n 0;
      sc.nodes <- n
    end;
    if sc.channels <> m then begin
      sc.delta <- Array.make m 0;
      sc.touched <- Array.make m 0;
      sc.channels <- m
    end;
    sc.epoch <- epoch
  end

(* The batched pipeline. Two execution shapes, selected by the same
   pool-aware sizing as {!Batched.run} (so the two layers always agree):

   - fan-out: weights are blitted into a per-batch snapshot that the
     worker domains read while the caller's weights stay writable for
     the merge.
   - inline (effective workers <= 1): the whole batch runs on the
     calling domain, and because contributions are recorded into the
     slot-0 delta rather than applied, [weights] itself {e is} the
     frozen snapshot — the copy is skipped entirely. Small planes and
     single-domain hardware take this path.

   Both shapes draw one fresh kernel stamp per batch: within a batch the
   (effective) snapshot is immutable, so consecutive destinations on the
   same switch share one incremental-kernel tree. *)
let route_destinations_batched ~kernel pool ~batch g ~weights ~ft ~dsts =
  let epoch = Atomic.fetch_and_add plane_epoch 1 in
  let m = Graph.num_channels g in
  let minw, maxw0 = scan_bounds weights in
  let maxw = ref maxw0 in
  let stamp = ref 0 in
  let cost = m in
  let workers = Batched.effective_workers ~cost ~pool ~batch ~items:(Array.length dsts) in
  let merge sc =
    if sc.epoch = epoch then begin
      for i = 0 to sc.num_touched - 1 do
        let c = sc.touched.(i) in
        let w = weights.(c) + sc.delta.(c) in
        weights.(c) <- w;
        if w > !maxw then maxw := w;
        sc.delta.(c) <- 0
      done;
      sc.num_touched <- 0
    end
  in
  let record sc c f =
    if sc.delta.(c) = 0 then begin
      sc.touched.(sc.num_touched) <- c;
      sc.num_touched <- sc.num_touched + 1
    end;
    sc.delta.(c) <- sc.delta.(c) + f
  in
  if workers <= 1 then
    Batched.run ~cost ~pool ~batch ~dsts
      ~freeze:(fun () -> Obs.Timer.time t_snapshot (fun () -> stamp := Spf.fresh_stamp ()))
      ~dest:(fun sc dst ->
        revalidate sc ~kernel g ~epoch;
        route_destination_core (Option.get sc.ws) g ~weights ~minw ~maxw:!maxw ~stamp:!stamp
          ~record:(record sc) ~flow:sc.flow ~ft ~dst)
      ~merge
  else begin
    let snapshot = Array.make m 0 in
    Batched.run ~cost ~pool ~batch ~dsts
      ~freeze:(fun () ->
        Obs.Timer.time t_snapshot (fun () ->
            Array.blit weights 0 snapshot 0 m;
            stamp := Spf.fresh_stamp ()))
      ~dest:(fun sc dst ->
        revalidate sc ~kernel g ~epoch;
        route_destination_core (Option.get sc.ws) g ~weights:snapshot ~minw ~maxw:!maxw
          ~stamp:!stamp ~record:(record sc) ~flow:sc.flow ~ft ~dst)
      ~merge
  end

let route_destinations_inner ?(batch = 1) ?(domains = 1) ?pool ~kernel g ~weights ~ft ~dsts =
  match pool with
  | Some pool -> route_destinations_batched ~kernel pool ~batch g ~weights ~ft ~dsts
  | None ->
    if batch <= 1 && domains <= 1 then begin
      (* the sequential recurrence, verbatim; stops at the first error.
         Weights change after every destination, so each step draws its
         own stamp and incremental reuse never applies here — batch:1
         stays bit-for-bit identical to the historical sequential code
         for every kernel. *)
      let n = Graph.num_nodes g in
      let ws = Spf.workspace ~kernel g in
      let flow = Array.make n 0 in
      let minw, maxw0 = scan_bounds weights in
      let maxw = ref maxw0 in
      let nt = Array.length dsts in
      let rec go i =
        if i >= nt then Ok ()
        else
          match route_destination_scratch ws g ~weights ~minw ~maxw ~flow ~ft ~dst:dsts.(i) with
          | Ok () -> go (i + 1)
          | Error _ as e -> e
      in
      go 0
    end
    else
      Parallel.Pool.with_pool ~domains fresh_scratch (fun pool ->
          route_destinations_batched ~kernel pool ~batch g ~weights ~ft ~dsts)

let route_destinations ?batch ?domains ?pool ?(kernel = default_kernel) g ~weights ~ft ~dsts =
  if Array.length weights <> Graph.num_channels g then
    invalid_arg "Sssp.route_destinations: weights size";
  Obs.Counter.incr c_planes;
  Obs.Timer.time t_plane (fun () ->
      Obs.Trace.with_span "sssp.route_destinations"
        ~attrs:(fun () ->
          [
            ("destinations", Obs.Trace.Int (Array.length dsts));
            ("batch", Obs.Trace.Int (Option.value batch ~default:1));
            ( "domains",
              Obs.Trace.Int
                (match pool with
                | Some p -> Parallel.Pool.size p
                | None -> Option.value domains ~default:1) );
            ("pooled", Obs.Trace.Bool (pool <> None));
            ("kernel", Obs.Trace.Str (Spf.kind_to_string kernel));
          ])
        (fun () -> route_destinations_inner ?batch ?domains ?pool ~kernel g ~weights ~ft ~dsts))

let route_plane ?batch ?domains ?pool ?kernel g ~weights =
  if Array.length weights <> Graph.num_channels g then invalid_arg "Sssp.route_plane: weights size";
  Array.iter (fun w -> if w < 1 then invalid_arg "Sssp.route_plane: weight < 1") weights;
  let ft = Ftable.create g ~algorithm:"sssp" in
  match route_destinations ?batch ?domains ?pool ?kernel g ~weights ~ft ~dsts:(Graph.terminals g) with
  | Error _ as e -> e
  | Ok () -> Ok ft

let route ?initial_weight ?batch ?domains ?pool ?kernel g =
  let weights =
    match initial_weight with
    | None -> initial_weights g
    | Some w ->
      if w < 1 then invalid_arg "Sssp.route: initial_weight < 1";
      Array.make (Graph.num_channels g) w
  in
  route_plane ?batch ?domains ?pool ?kernel g ~weights
