let recommended_domains () = min 8 (Domain.recommended_domain_count ())

(* The OCaml 5.1 runtime runs at most 128 domains at once (Max_domains
   in caml/domain.h), and [Domain.spawn] past that fails half-way
   through a pool. A pool of [max_domains] spawns [max_domains - 1]
   workers; the fabric manager holds one such pool while a nested
   [init] (per-component cycle breaking) spawns another, and the two
   plus the main domain stay below the runtime's limit. *)
let max_domains = 64

(* Pool telemetry (process-wide, in the default Obs registry). Counters
   are per-slot cells so workers never contend; the busy-time timer only
   runs while Obs.Control is enabled, so the disabled pool pays two
   untaken branches per task. Slot indices clamp inside Obs, so pools
   larger than the cell count degrade to sharing the last cell. *)
let obs_slots = 16

let c_runs = Obs.Registry.counter "pool.runs" ~desc:"parallel fan-outs dispatched"

let c_chunks =
  Obs.Registry.counter "pool.chunks" ~slots:obs_slots ~desc:"work chunks claimed off the shared cursor"

let c_stalls =
  Obs.Registry.counter "pool.stalls" ~slots:obs_slots
    ~desc:"workers that found the chunk cursor already exhausted"

let t_slot_busy =
  Obs.Registry.timer "pool.slot_busy" ~slots:obs_slots
    ~desc:"per-slot seconds inside pool tasks (recorded only while obs is enabled)"

module Pool = struct
  type 's t = {
    size : int; (* workers, including the calling domain as slot 0 *)
    scratch : 's array;
    lock : Mutex.t;
    ready : Condition.t; (* a new task was published (or shutdown) *)
    finished : Condition.t; (* a worker left the current task *)
    mutable seq : int; (* task sequence number; workers wait for it to move *)
    mutable task : (int -> unit) option; (* worker slot -> unit *)
    mutable active : int; (* spawned workers still inside the current task *)
    mutable stop : bool;
    mutable workers : unit Domain.t array;
  }

  (* Spawned workers sleep on [ready] between tasks, so an idle pool costs
     nothing; the calling domain always participates as slot 0, so a pool
     of size 1 spawns no domains at all. *)
  let rec worker_loop pool slot last =
    Mutex.lock pool.lock;
    while (not pool.stop) && pool.seq = last do
      Condition.wait pool.ready pool.lock
    done;
    if pool.stop then Mutex.unlock pool.lock
    else begin
      let seq = pool.seq in
      let task = Option.get pool.task in
      Mutex.unlock pool.lock;
      task slot;
      Mutex.lock pool.lock;
      pool.active <- pool.active - 1;
      if pool.active = 0 then Condition.broadcast pool.finished;
      Mutex.unlock pool.lock;
      worker_loop pool slot seq
    end

  let create ?domains scratch =
    let size = max 1 (Option.value domains ~default:(recommended_domains ())) in
    if size > max_domains then
      invalid_arg (Printf.sprintf "Parallel.Pool.create: %d domains exceeds the limit of %d" size max_domains);
    let pool =
      {
        size;
        scratch = Array.init size scratch;
        lock = Mutex.create ();
        ready = Condition.create ();
        finished = Condition.create ();
        seq = 0;
        task = None;
        active = 0;
        stop = false;
        workers = [||];
      }
    in
    pool.workers <- Array.init (size - 1) (fun i -> Domain.spawn (fun () -> worker_loop pool (i + 1) 0));
    pool

  let size pool = pool.size

  let iter_scratch pool f = Array.iter f pool.scratch

  let slot_scratch pool slot =
    if slot < 0 || slot >= pool.size then invalid_arg "Pool.slot_scratch";
    pool.scratch.(slot)

  (* The calling domain takes part as slot 0 with its stage hook
     suspended, so no timed stage inside a parallel region is a pause
     point (Obs.Timer.with_stage_hook). *)
  let run pool ~n ?grain f =
    if n > 0 then
      Obs.Timer.with_stage_hook None @@ fun () ->
      if pool.size = 1 || n = 1 then
        for i = 0 to n - 1 do
          f pool.scratch.(0) i
        done
      else begin
        let grain = max 1 (Option.value grain ~default:(n / (4 * pool.size))) in
        let next = Atomic.make 0 in
        let failure = Atomic.make None in
        Obs.Counter.incr c_runs;
        (* chunked work distribution: each worker grabs [grain] indices at a
           time off a shared cursor, so uneven per-index cost still balances *)
        let task slot =
          let timed = Obs.Control.enabled () in
          let t0 = if timed then Unix.gettimeofday () else 0.0 in
          let s = pool.scratch.(slot) in
          let chunks = ref 0 in
          let continue = ref true in
          while !continue do
            let lo = Atomic.fetch_and_add next grain in
            if lo >= n then continue := false
            else begin
              incr chunks;
              let hi = min n (lo + grain) in
              try
                for i = lo to hi - 1 do
                  f s i
                done
              with e ->
                (match Atomic.get failure with
                | None -> Atomic.set failure (Some e)
                | Some _ -> ());
                continue := false
            end
          done;
          if !chunks > 0 then Obs.Counter.incr ~slot ~n:!chunks c_chunks
          else Obs.Counter.incr ~slot c_stalls;
          if timed then Obs.Timer.add ~slot t_slot_busy (Unix.gettimeofday () -. t0)
        in
        Mutex.lock pool.lock;
        if pool.stop then begin
          Mutex.unlock pool.lock;
          invalid_arg "Parallel.Pool.run: pool is shut down"
        end;
        pool.task <- Some task;
        pool.active <- pool.size - 1;
        pool.seq <- pool.seq + 1;
        Condition.broadcast pool.ready;
        Mutex.unlock pool.lock;
        task 0;
        Mutex.lock pool.lock;
        while pool.active > 0 do
          Condition.wait pool.finished pool.lock
        done;
        pool.task <- None;
        Mutex.unlock pool.lock;
        match Atomic.get failure with
        | Some e -> raise e
        | None -> ()
      end

  let shutdown pool =
    Mutex.lock pool.lock;
    let already = pool.stop in
    pool.stop <- true;
    Condition.broadcast pool.ready;
    Mutex.unlock pool.lock;
    if not already then begin
      Array.iter Domain.join pool.workers;
      pool.workers <- [||]
    end

  let with_pool ?domains scratch f =
    let pool = create ?domains scratch in
    Fun.protect ~finally:(fun () -> shutdown pool) (fun () -> f pool)
end

let init ?(domains = 1) n f =
  if n <= 0 then [||]
  else if domains <= 1 || n < 2 then Array.init n f
  else begin
    (* seed the result array with one sequentially-computed element *)
    let out = Array.make n (f 0) in
    Pool.with_pool ~domains:(min domains n)
      (fun _slot -> ())
      (fun pool -> Pool.run pool ~n:(n - 1) (fun () i -> out.(i + 1) <- f (i + 1)));
    out
  end

let map_array ?domains f a = init ?domains (Array.length a) (fun i -> f a.(i))
