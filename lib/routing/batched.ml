(* The batched-snapshot driver: the one per-destination loop of every
   routing engine (DESIGN.md section 12). Shared balancing state (SSSP
   channel weights, MinHop/Up*Down* port loads) makes the loop
   sequential; freezing that state per batch relaxes the dependency in
   controlled steps: within a batch every destination reads the same
   frozen state, so the batch is embarrassingly parallel, and the batch's
   contributions are merged before the next batch starts. The driver
   owns the state's sparse per-slot deltas and their merge; engines only
   read through a [view] and add through it. *)

(* One counter bump per batch: the batch count is the telemetry that
   explains a plane's parallel shape (destinations / batches = average
   fan-out width). *)
let c_snapshots =
  Obs.Registry.counter "batched.snapshots" ~desc:"balancing-state snapshots frozen by the batched driver"

let c_inline =
  Obs.Registry.counter "batched.inline_runs" ~desc:"batched runs executed inline (pool dispatch skipped)"

(* Pool-aware sizing (DESIGN.md §15). Fanning a batch out over worker
   domains only pays when (a) the hardware actually has spare domains,
   (b) the batch holds more than one destination, and (c) the batch
   carries enough work to amortise the dispatch handshake. When any of
   those fail the driver runs the batch inline on the caller's slot —
   bit-for-bit identical tables, no pool round-trip. Tests that need to
   exercise the fan-out path on small boxes can force it with
   [set_auto_sizing false]. *)
let auto = Atomic.make true

let set_auto_sizing b = Atomic.set auto b

(* Below this many unit-cost items per batch (items x cost, where cost
   is the caller's per-item work proxy — channel count for the routing
   engines), the dispatch handshake dominates the work being dispatched. *)
let inline_threshold = 16384

let effective_workers ~cost ~pool ~batch ~items =
  let size = Parallel.Pool.size pool in
  if not (Atomic.get auto) then size
  else begin
    let per_batch = min (max 1 batch) (max 1 items) in
    let w = min size (min (Parallel.recommended_domains ()) per_batch) in
    if w > 1 && per_batch * max 1 cost < inline_threshold then 1 else w
  end

type view = {
  reads : int array;
  add : int -> int -> unit;
  top : int;
}

(* A worker's slot: the engine's scratch, the view its destinations get
   in the current fan-out batch, and a sparse delta of what they added. *)
type 's slot = {
  scratch : 's;
  mutable view : view;
  mutable delta : int array; (* state index -> contribution this batch *)
  mutable touched : int array; (* indices with delta > 0, first num_touched *)
  mutable num_touched : int;
}

type 's pool = 's slot Parallel.Pool.t

let slot scratch s =
  let view = { reads = [||]; add = (fun _ _ -> ()); top = 0 } in
  { scratch = scratch s; view; delta = [||]; touched = [||]; num_touched = 0 }

let create_pool ?domains scratch = Parallel.Pool.create ?domains (slot scratch)

let with_pool ?domains scratch f = Parallel.Pool.with_pool ?domains (slot scratch) f

let defer sl c f =
  if sl.delta.(c) = 0 then begin
    sl.touched.(sl.num_touched) <- c;
    sl.num_touched <- sl.num_touched + 1
  end;
  sl.delta.(c) <- sl.delta.(c) + f

(* Before a slot defers anything: drop the residue of a run aborted by an
   exception, and grow the delta to the state's size. *)
let reset sl m =
  for i = 0 to sl.num_touched - 1 do
    sl.delta.(sl.touched.(i)) <- 0
  done;
  sl.num_touched <- 0;
  if Array.length sl.delta < m then begin
    sl.delta <- Array.make m 0;
    sl.touched <- Array.make m 0
  end

let run ?snapshot_timer ~cost ~pool ~batch ~state ~dsts dest =
  let nt = Array.length dsts and m = Array.length state in
  let batch = max 1 batch in
  let workers = effective_workers ~cost ~pool ~batch ~items:nt in
  let s0 = Parallel.Pool.slot_scratch pool 0 in
  if workers > 1 then Parallel.Pool.iter_scratch pool (fun sl -> reset sl m)
  else begin
    Obs.Counter.incr c_inline;
    if batch > 1 then reset s0 m
  end;
  (* [top] is the running maximum of [state]: every view's [top] bounds
     what its destination reads (SSSP's kernel bucket window needs it). *)
  let top = ref (Array.fold_left max 0 state) in
  let in_place c f =
    let v = state.(c) + f in
    state.(c) <- v;
    if v > !top then top := v
  in
  let merge sl =
    for i = 0 to sl.num_touched - 1 do
      let c = sl.touched.(i) in
      in_place c sl.delta.(c);
      sl.delta.(c) <- 0
    done;
    sl.num_touched <- 0
  in
  let snapshot = if workers > 1 then Array.make m 0 else [||] in
  let error = ref None in
  let lo = ref 0 in
  while !error = None && !lo < nt do
    let base = !lo in
    let hi = min nt (base + batch) in
    Obs.Counter.incr c_snapshots;
    if workers <= 1 && hi - base = 1 then begin
      (* One destination inline adds straight into the state: that is
         the sequential recurrence, with no copy, delta or merge. *)
      match dest s0.scratch { reads = state; add = in_place; top = !top } dsts.(base) with
      | Ok () -> ()
      | Error msg -> error := Some msg
    end
    else if workers <= 1 then begin
      (* Inline on the caller, in destination order, so the first
         error met is the lowest-index one. The destinations read
         the live state and add into slot 0's delta, which is
         merged at the batch end. *)
      let view = { reads = state; add = defer s0; top = !top } in
      for k = base to hi - 1 do
        match dest s0.scratch view dsts.(k) with
        | Ok () -> ()
        | Error msg -> if !error = None then error := Some msg
      done;
      merge s0
    end
    else begin
      (match snapshot_timer with
      | Some t -> Obs.Timer.time t (fun () -> Array.blit state 0 snapshot 0 m)
      | None -> Array.blit state 0 snapshot 0 m);
      Parallel.Pool.iter_scratch pool (fun sl ->
          sl.view <- { reads = snapshot; add = defer sl; top = !top });
      (* Per-slot error cells: the error reported is the one of the
         lowest destination index, exactly as a sequential scan
         would find it. *)
      let errs = Array.make (hi - base) None in
      Parallel.Pool.run pool ~n:(hi - base) ~grain:1 (fun sl k ->
          match dest sl.scratch sl.view dsts.(base + k) with
          | Ok () -> ()
          | Error msg -> errs.(k) <- Some msg);
      (* Merge per-slot contributions in slot order. The merged
         state is a sum of per-destination contributions, so any
         merge order yields identical state; slot order just makes
         the walk deterministic. *)
      Parallel.Pool.iter_scratch pool merge;
      Array.iter (fun e -> if !error = None then error := e) errs
    end;
    lo := hi
  done;
  match !error with
  | Some msg -> Error msg
  | None -> Ok ()
