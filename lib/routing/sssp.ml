let initial_weights g =
  let n = Graph.num_nodes g in
  Array.make (Graph.num_channels g) (n * n)

let recommended_batch = 32

(* Plane-level telemetry (doc/observability.md): one counter bump per
   destination tree, one timer sample (a span while tracing) per
   route_destinations call, one snapshot-timer sample per weight copy a
   fan-out batch takes. Nothing inside the kernel or tree-walk loops is
   touched. *)
let c_dsts = Obs.Registry.counter "sssp.destinations" ~desc:"destination trees routed"

let c_planes = Obs.Registry.counter "sssp.planes" ~desc:"route_destinations invocations"

let t_plane =
  Obs.Registry.timer "sssp.route_destinations" ~desc:"seconds per route_destinations invocation"

let t_snapshot =
  Obs.Registry.timer "sssp.snapshot" ~desc:"seconds copying weight snapshots (per fan-out batch)"

(* One destination: a shortest-path tree toward [dst] over [weights]
   from the selected kernel (Spf, DESIGN.md §15), table entries from the
   via-tree, then the tree's terminal flows accumulated far-to-near and
   emitted through [record] (one call per tree channel). [record] is the
   driver's [Batched.view.add]: it lands in the live weights or in a
   per-slot delta, as the batch mode decides.

   Every kernel settles a node's via-parent before the node (Spf.tree),
   so walking the order backwards visits the tree far-to-near — the
   per-destination sort the previous implementation needed is gone. *)
let route_destination ws g ~weights ~minw ~maxw ~record ~flow ~ft ~dst =
  Obs.Counter.incr c_dsts;
  let { Spf.via; order; reached; _ } = Spf.compute ws g ~weights ~minw ~maxw ~dst in
  let n = Graph.num_nodes g in
  if reached < n then Error (Printf.sprintf "sssp: node unreachable toward %d" dst)
  else begin
    Ftable.set_tree ft ~dst via;
    (* Weight update: add to each channel the number of terminal routes
       to [dst] crossing it, accumulating flows far-to-near along the
       shortest-path tree. *)
    let heads = Graph.heads g and terminals = Graph.terminals g in
    Array.fill flow 0 n 0;
    for i = 0 to Array.length terminals - 1 do
      flow.(terminals.(i)) <- 1
    done;
    flow.(dst) <- 0;
    for i = n - 1 downto 0 do
      let u = order.(i) in
      let f = flow.(u) in
      if u <> dst && f > 0 then begin
        let c = via.(u) in
        record c f;
        let v = heads.(c) in
        flow.(v) <- flow.(v) + f
      end
    done;
    Ok ()
  end

(* A worker's private state: kernel workspace and tree-walk flow array.
   Scratch lives as long as its pool does and is rebuilt lazily when a
   plane arrives with a different node count or kernel, so one pool
   serves many planes, graphs and engines. *)
type scratch = {
  mutable ws : Spf.workspace option;
  mutable flow : int array;
}

type pool = scratch Batched.pool

let fresh_scratch _slot = { ws = None; flow = [||] }

let create_pool ?domains () = Batched.create_pool ?domains fresh_scratch

let destroy_pool = Parallel.Pool.shutdown

let workspace sc ~kernel g =
  let n = Graph.num_nodes g in
  match sc.ws with
  | Some ws when Array.length sc.flow = n && Spf.kind ws = kernel -> ws
  | _ ->
    let ws = Spf.workspace ~kernel g in
    sc.ws <- Some ws;
    sc.flow <- Array.make n 0;
    ws

(* Weights only grow, so their minimum at the start bounds every batch;
   the driver tracks the maximum. *)
let route_destinations_inner ~kernel pool ~batch g ~weights ~ft ~dsts =
  let minw = Array.fold_left min max_int weights in
  Batched.run ~snapshot_timer:t_snapshot ~cost:(Graph.num_channels g) ~pool ~batch ~state:weights ~dsts
    (fun sc (v : Batched.view) dst ->
      let ws = workspace sc ~kernel g in
      route_destination ws g ~weights:v.reads ~minw ~maxw:v.top ~record:v.add ~flow:sc.flow
        ~ft ~dst)

let route_destinations ?(batch = 1) ?(domains = 1) ?pool ?(kernel = Spf.Bucket) g ~weights ~ft ~dsts =
  if Array.length weights <> Graph.num_channels g then
    invalid_arg "Sssp.route_destinations: weights size";
  Obs.Counter.incr c_planes;
  Obs.Timer.time t_plane
    ~attrs:(fun _ ->
      [
        ("destinations", Obs.Trace.Int (Array.length dsts));
        ("batch", Obs.Trace.Int batch);
        ("domains", Obs.Trace.Int (match pool with Some p -> Parallel.Pool.size p | None -> domains));
        ("pooled", Obs.Trace.Bool (pool <> None));
        ("kernel", Obs.Trace.Str (Spf.kind_to_string kernel));
      ])
    (fun () ->
      match pool with
      | Some pool -> route_destinations_inner ~kernel pool ~batch g ~weights ~ft ~dsts
      | None ->
        Batched.with_pool ~domains fresh_scratch (fun pool ->
            route_destinations_inner ~kernel pool ~batch g ~weights ~ft ~dsts))

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
