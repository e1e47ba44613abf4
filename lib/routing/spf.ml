(* Single-destination shortest-path kernels (DESIGN.md §15).

   Every routing engine in this repo reduces to "build a shortest-path
   tree toward each destination over the reversed graph".  This module
   owns that inner loop, with two cores:

   - [Bucket] (the default): a Dial-style bucket queue specialised to
     the bounded weight ratios we actually route (SSSP weights start at
     |V|^2 per channel and loads stay below |V|^2, so max/min < 2;
     MinHop/LASH weights are all 1).  Falls back to the heap
     automatically when the weight bounds put the bucket window out of
     range.
   - [Heap]: binary-heap Dijkstra with decrease-key; the oracle the
     bucket core is tested against, and its fallback.

   Both cores produce bit-for-bit identical (dist, via, reached)
   results.  The relaxation rule settles node [v] and, for each channel
   [c : u -> v], improves [u] when [dist v + w c < dist u], or updates
   [via u] to the smaller channel id on ties.  Once every neighbour of
   [u] is settled, [dist u] is the true distance and [via u] is the
   minimum channel id among achievers — a value independent of the
   order in which nodes were settled.  Any correct settle order
   therefore yields the same arrays, which is what the equivalence
   property in [test/test_spf.ml] checks.  [order] itself is only
   promised to settle every via-parent before its children: the
   bucket core settles a single-homed terminal (a leaf, see
   {!Graph.attached}) right after its switch, so its [order] is not
   sorted by distance. *)

type kind = Heap | Bucket

let kind_to_string = function Heap -> "heap" | Bucket -> "bucket"

type tree = { dist : int array; via : int array; order : int array; reached : int }

(* Bucket windows beyond this trip the heap fallback: a window this wide
   means the weight ratio is so skewed that sweeping empty buckets would
   cost more than the heap's log factor. *)
let max_window = 1024

let c_trees = Obs.Registry.counter "spf.trees" ~desc:"shortest-path tree core runs"

let c_fallback =
  Obs.Registry.counter "spf.fallbacks" ~desc:"bucket-queue runs downgraded to the heap oracle"

type workspace = {
  kernel : kind;
  n : int;
  (* primary result arrays, aliased by the returned [tree] *)
  dist : int array;
  via : int array;
  order : int array;
  (* heap core *)
  heap : Heap.t;
  (* bucket core: a circular window of LIFO stacks plus a generation
     mark per node so stale reinsertions are skipped in O(1) *)
  mutable buckets : int array array;
  mutable blens : int array;
  settled : int array;
  mutable gen : int;
  mutable unit_weights : int array;
}

let workspace ?(kernel = Bucket) g =
  let n = Graph.num_nodes g in
  {
    kernel;
    n;
    dist = Array.make n max_int;
    via = Array.make n (-1);
    order = Array.make n (-1);
    heap = Heap.create n;
    buckets = [||];
    blens = [||];
    settled = Array.make n 0;
    gen = 0;
    unit_weights = [||];
  }

let kind ws = ws.kernel

(* ------------------------------------------------------------------ *)
(* Heap core (the oracle): classic decrease-key Dijkstra, recording the
   settle order. *)

let heap_core ws g ~weights ~dst =
  Obs.Counter.incr c_trees;
  let n = ws.n and dist = ws.dist and via = ws.via and order = ws.order in
  Array.fill dist 0 n max_int;
  Array.fill via 0 n (-1);
  Heap.clear ws.heap;
  dist.(dst) <- 0;
  Heap.insert ws.heap dst 0;
  let k = ref 0 in
  let continue = ref true in
  while !continue do
    match Heap.pop_min ws.heap with
    | None -> continue := false
    | Some (v, dv) ->
      order.(!k) <- v;
      incr k;
      (* Relax channels entering v: a node u one hop behind v reaches
         dst through channel (u -> v). *)
      Array.iter
        (fun c ->
          let u = (Graph.channel g c).Channel.src in
          let cand = dv + weights.(c) in
          if cand < dist.(u) || (cand = dist.(u) && c < via.(u)) then begin
            if cand < dist.(u) then begin
              dist.(u) <- cand;
              Heap.insert_or_decrease ws.heap u cand
            end;
            via.(u) <- c
          end)
        (Graph.in_channels g v)
  done;
  !k

(* ------------------------------------------------------------------ *)
(* Bucket core.  With bucket width delta = minw, every edge adds at
   least one full bucket, so no relaxation can land in the bucket being
   scanned: when the sweep reaches bucket [cur], every node whose final
   distance maps there already carries that distance and can settle in
   any order.  Entries are reinserted on strict improvement (no
   decrease-key; see {!Netgraph.Heap}) and stale entries are skipped by
   comparing the node's current bucket against the sweep position plus a
   per-run generation mark.  An entry pushed while scanning [cur] has
   distance in [cur*delta, (cur+1)*delta - 1 + maxw], i.e. lands within
   [window = ceil(maxw/delta) + 2] buckets, so a circular window of that
   many stacks suffices and each entry is consumed exactly at its
   absolute bucket.

   The leaf rule: a terminal [u <> dst] attached to [v]
   ({!Graph.attached}) has no channel out but into [v] and none in but
   from [v], so it lies on no shortest path between two other nodes
   (weights >= 1), and all its candidates arrive while [v] settles.  It
   is finalised in [v]'s relaxation loop and never enters the queue; on
   bring-up fabrics that is most of the nodes. *)

let ensure_window ws window =
  if Array.length ws.buckets < window then begin
    let old = ws.buckets in
    let olen = Array.length old in
    ws.buckets <-
      Array.init window (fun i -> if i < olen then old.(i) else Array.make 16 0);
    ws.blens <- Array.make window 0
  end

let push_bucket ws b x =
  let s = ws.buckets.(b) in
  let len = ws.blens.(b) in
  let s =
    if len = Array.length s then begin
      let s' = Array.make (2 * len) 0 in
      Array.blit s 0 s' 0 len;
      ws.buckets.(b) <- s';
      s'
    end
    else s
  in
  s.(len) <- x;
  ws.blens.(b) <- len + 1

let bucket_core ws g ~weights ~delta ~window ~dst =
  Obs.Counter.incr c_trees;
  let n = ws.n and dist = ws.dist and via = ws.via and order = ws.order in
  let tails = Graph.tails g and attached = Graph.attached g in
  ensure_window ws window;
  Array.fill ws.blens 0 (Array.length ws.blens) 0;
  ws.gen <- ws.gen + 1;
  let gen = ws.gen in
  Array.fill dist 0 n max_int;
  Array.fill via 0 n (-1);
  dist.(dst) <- 0;
  push_bucket ws 0 dst;
  let pending = ref 1 in
  let cur = ref 0 in
  let k = ref 0 in
  while !pending > 0 do
    let b = !cur mod window in
    while ws.blens.(b) > 0 do
      let len = ws.blens.(b) - 1 in
      let v = ws.buckets.(b).(len) in
      ws.blens.(b) <- len;
      decr pending;
      if ws.settled.(v) <> gen && dist.(v) / delta = !cur then begin
        ws.settled.(v) <- gen;
        order.(!k) <- v;
        incr k;
        let dv = dist.(v) in
        let ins = Graph.in_channels g v in
        for i = 0 to Array.length ins - 1 do
          let c = ins.(i) in
          let u = tails.(c) in
          let cand = dv + weights.(c) in
          let du = dist.(u) in
          if cand < du || (cand = du && c < via.(u)) then begin
            if attached.(u) = v && u <> dst then begin
              (* A leaf: every channel out of [u] enters [v], so all its
                 candidates arrive in this loop and it settles here, after
                 its parent, without entering the queue. *)
              if du = max_int then begin
                order.(!k) <- u;
                incr k
              end;
              dist.(u) <- cand
            end
            else if cand < du then begin
              dist.(u) <- cand;
              push_bucket ws (cand / delta mod window) u;
              incr pending
            end;
            via.(u) <- c
          end
        done
      end
    done;
    incr cur
  done;
  !k

(* ------------------------------------------------------------------ *)

let scan_bounds weights =
  let minw = ref max_int and maxw = ref 0 in
  Array.iter
    (fun w ->
      if w < !minw then minw := w;
      if w > !maxw then maxw := w)
    weights;
  (!minw, !maxw)

(* The weight-bound fallback rule: the bucket core applies iff
   1 <= minw (zero-weight edges would allow intra-bucket relaxations)
   and the window ceil(maxw/minw) + 2 fits [max_window]. *)
let run_core ws g ~weights ~minw ~maxw ~dst =
  if minw >= 1 && maxw < max_int then begin
    let delta = minw in
    let window = ((maxw + delta - 1) / delta) + 2 in
    if window <= max_window then
      bucket_core ws g ~weights ~delta ~window ~dst
    else begin
      Obs.Counter.incr c_fallback;
      heap_core ws g ~weights ~dst
    end
  end
  else begin
    Obs.Counter.incr c_fallback;
    heap_core ws g ~weights ~dst
  end

let compute ?minw ?maxw ws g ~weights ~dst =
  let reached =
    match ws.kernel with
    | Heap -> heap_core ws g ~weights ~dst
    | Bucket ->
      let minw, maxw =
        match (minw, maxw) with
        | Some a, Some b -> (a, b)
        | _ -> scan_bounds weights
      in
      run_core ws g ~weights ~minw ~maxw ~dst
  in
  { dist = ws.dist; via = ws.via; order = ws.order; reached }

let compute_hops ws g ~dst =
  let m = Graph.num_channels g in
  if Array.length ws.unit_weights < m then ws.unit_weights <- Array.make m 1;
  compute ws g ~weights:ws.unit_weights ~minw:1 ~maxw:1 ~dst
