(* Duration accumulators: per-slot count + total seconds, plus a bounded
   ring of recent samples per slot so snapshots can report a
   {!Stat.summary} (the histogram view) without unbounded memory. Slots
   are written by one domain each; the snapshot reader may race a writer
   and observe a slightly stale mix — telemetry reads are advisory. *)

type cell = {
  mutable count : int;
  mutable sum_s : float;
  ring : float array;
  mutable ring_len : int; (* samples retained, <= capacity *)
  mutable ring_pos : int; (* next write position *)
}

type t = {
  name : string;
  desc : string;
  cells : cell array;
}

let default_capacity = 512

let create ?(slots = 1) ?(desc = "") ?(capacity = default_capacity) name =
  if slots < 1 then invalid_arg "Obs.Timer.create: slots < 1";
  if capacity < 1 then invalid_arg "Obs.Timer.create: capacity < 1";
  {
    name;
    desc;
    cells =
      Array.init slots (fun _ ->
          { count = 0; sum_s = 0.0; ring = Array.make capacity 0.0; ring_len = 0; ring_pos = 0 });
  }

let name t = t.name

let add ?(slot = 0) t seconds =
  let c = t.cells.(min (max slot 0) (Array.length t.cells - 1)) in
  c.count <- c.count + 1;
  c.sum_s <- c.sum_s +. seconds;
  let cap = Array.length c.ring in
  c.ring.(c.ring_pos) <- seconds;
  c.ring_pos <- (c.ring_pos + 1) mod cap;
  if c.ring_len < cap then c.ring_len <- c.ring_len + 1

(* The stage hook: domain-local, so a stage that ends on a domain the
   hook was not installed on (a spawned pool worker starts with none)
   never runs it. [started] notes that a timed stage began on the domain
   since its hook last ran: nested stages that end together pause once,
   at the innermost end. *)
let stage_hook : (unit -> unit) option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let started : bool ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref false)

let with_stage_hook hook f =
  let prev = Domain.DLS.get stage_hook in
  Domain.DLS.set stage_hook hook;
  Fun.protect ~finally:(fun () -> Domain.DLS.set stage_hook prev) f

let end_stage () =
  match Domain.DLS.get stage_hook with
  | None -> ()
  | Some hook ->
    let started = Domain.DLS.get started in
    if !started then begin
      (* uninstalled while it runs, so a stage timed inside [hook] ends
         without re-entering it, nor counts as a start *)
      Domain.DLS.set stage_hook None;
      Fun.protect
        ~finally:(fun () ->
          started := false;
          Domain.DLS.set stage_hook (Some hook))
        hook
    end

(* Span ids are process-wide; each domain keeps the ids of its open
   spans, so a span's parent is the stage it runs inside on its domain
   (a spawned pool worker's stages are roots). *)
let next_id = Atomic.make 1

let open_spans : int list ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref [])

(* A timed stage while a sink is live: the span's start and duration are
   the timer's own clock pair, so its [dur_s] is the sample [add]
   records. The attributes are computed after the clock stops. *)
let traced ?slot ?attrs t f =
  let stack = Domain.DLS.get open_spans in
  let outer = !stack in
  let id = Atomic.fetch_and_add next_id 1 in
  stack := id :: outer;
  let t0 = Unix.gettimeofday () in
  let finish attrs =
    let dur_s = Unix.gettimeofday () -. t0 in
    add ?slot t dur_s;
    stack := outer;
    match Trace.live () with
    | None -> ()
    | Some sink ->
      let parent = match outer with [] -> None | p :: _ -> Some p in
      sink.emit { id; parent; name = t.name; start_s = t0; dur_s; attrs = attrs () }
  in
  match f () with
  | r ->
    finish (fun () -> match attrs with None -> [] | Some a -> a r);
    r
  | exception e ->
    let bt = Printexc.get_raw_backtrace () in
    finish (fun () -> [ ("error", Trace.Str (Printexc.to_string e)) ]);
    Printexc.raise_with_backtrace e bt

let time ?slot ?attrs t f =
  Domain.DLS.get started := true;
  let r =
    match Trace.live () with
    | None ->
      let t0 = Unix.gettimeofday () in
      Fun.protect ~finally:(fun () -> add ?slot t (Unix.gettimeofday () -. t0)) f
    | Some _ -> traced ?slot ?attrs t f
  in
  end_stage ();
  r

let count t = Array.fold_left (fun acc c -> acc + c.count) 0 t.cells

let sum_s t = Array.fold_left (fun acc c -> acc +. c.sum_s) 0.0 t.cells

let slot_count t slot = t.cells.(slot).count

(* Recent samples, merged across slots (each slot keeps its newest
   [capacity]); order is unspecified, which the summary does not care
   about. *)
let samples t =
  let total = Array.fold_left (fun acc c -> acc + c.ring_len) 0 t.cells in
  let out = Array.make total 0.0 in
  let k = ref 0 in
  Array.iter
    (fun c ->
      for i = 0 to c.ring_len - 1 do
        out.(!k) <- c.ring.(i);
        incr k
      done)
    t.cells;
  out

let summary t =
  let xs = samples t in
  if Array.length xs = 0 then None else Some (Stat.summarize xs)

let reset t =
  Array.iter
    (fun c ->
      c.count <- 0;
      c.sum_s <- 0.0;
      c.ring_len <- 0;
      c.ring_pos <- 0)
    t.cells

let to_json t =
  let base =
    [
      ("kind", Json.Str "timer");
      ("count", Json.Num (float_of_int (count t)));
      ("sum_s", Json.Num (sum_s t));
    ]
  in
  let summ =
    match summary t with
    | None -> []
    | Some s -> [ ("seconds", Stat.summary_to_json s) ]
  in
  let per_slot =
    if Array.length t.cells <= 1 then []
    else
      [
        ( "per_slot",
          Json.List
            (Array.to_list
               (Array.map
                  (fun c ->
                    Json.Obj
                      [ ("count", Json.Num (float_of_int c.count)); ("sum_s", Json.Num c.sum_s) ])
                  t.cells)) );
      ]
  in
  let desc = if t.desc = "" then [] else [ ("desc", Json.Str t.desc) ] in
  Json.Obj (base @ summ @ per_slot @ desc)
