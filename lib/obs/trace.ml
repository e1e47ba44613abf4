(* Structured trace spans with a pluggable sink. A span is emitted once,
   at its end, as a flat record: id, parent, name, start time, duration
   and typed attributes. {!Timer.time} is the one producer: it emits a
   span per timed stage while {!live} returns a sink. The default sink
   is none at all. *)

type value =
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string

type attrs = (string * value) list

type span = {
  id : int;
  parent : int option;
  name : string;
  start_s : float; (* Unix.gettimeofday at span start *)
  dur_s : float;
  attrs : attrs;
}

type sink = {
  emit : span -> unit;
  flush : unit -> unit;
}

(* ------------------------------------------------------------------ *)
(* Sinks                                                                *)
(* ------------------------------------------------------------------ *)

let value_to_json = function
  | Bool b -> Json.Bool b
  | Int i -> Json.Num (float_of_int i)
  | Float x -> Json.Num x
  | Str s -> Json.Str s

let span_to_json s =
  Json.Obj
    ([
       ("id", Json.Num (float_of_int s.id));
       ("parent", match s.parent with None -> Json.Null | Some p -> Json.Num (float_of_int p));
       ("name", Json.Str s.name);
       ("ts", Json.Num s.start_s);
       ("dur_ms", Json.Num (1000.0 *. s.dur_s));
     ]
    @
    match s.attrs with
    | [] -> []
    | attrs -> [ ("attrs", Json.Obj (List.map (fun (k, v) -> (k, value_to_json v)) attrs)) ])

(* One JSON object per line, serialized under a mutex: spans ending on
   different domains interleave by line, never within one. *)
let json_lines ?(flush = fun () -> ()) write =
  let lock = Mutex.create () in
  {
    emit =
      (fun s ->
        let line = Json.to_string (span_to_json s) ^ "\n" in
        Mutex.lock lock;
        Fun.protect ~finally:(fun () -> Mutex.unlock lock) (fun () -> write line));
    flush;
  }

let channel_sink oc = json_lines ~flush:(fun () -> Out_channel.flush oc) (Out_channel.output_string oc)

let buffer_sink buf = json_lines (Buffer.add_string buf)

let counting_sink counter = { emit = (fun _ -> Counter.incr counter); flush = (fun () -> ()) }

(* ------------------------------------------------------------------ *)
(* The installed sink                                                   *)
(* ------------------------------------------------------------------ *)

let current : sink option Atomic.t = Atomic.make None

let set_sink s =
  (match Atomic.get current with
  | Some old -> old.flush ()
  | None -> ());
  Atomic.set current s

let flush () =
  match Atomic.get current with
  | Some s -> s.flush ()
  | None -> ()

(* The sink spans go to: the installed one while {!Control} is on. The
   sink is read first, so with none installed this is one load. *)
let live () =
  match Atomic.get current with
  | Some _ as s when Control.enabled () -> s
  | _ -> None

let with_sink s f =
  let prev = Atomic.get current in
  set_sink (Some s);
  Fun.protect
    ~finally:(fun () ->
      s.flush ();
      Atomic.set current prev)
    f
