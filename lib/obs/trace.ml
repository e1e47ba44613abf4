(* Structured trace spans with a pluggable sink. A span is emitted once,
   at its end, as a flat record: id, parent (per-domain nesting tracked
   through domain-local state), name, start time, duration and typed
   attributes. The default sink is none at all: with no sink installed
   or with {!Control} disabled, [with_span] is one load and a branch
   around the traced function, and attribute thunks are never forced. *)

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

let enabled () =
  Control.enabled ()
  &&
  match Atomic.get current with
  | Some _ -> true
  | None -> false

let with_sink s f =
  let prev = Atomic.get current in
  set_sink (Some s);
  Fun.protect
    ~finally:(fun () ->
      s.flush ();
      Atomic.set current prev)
    f

(* ------------------------------------------------------------------ *)
(* Span lifecycle                                                       *)
(* ------------------------------------------------------------------ *)

let next_id = Atomic.make 1

(* per-domain stack of open span ids, for parent attribution *)
let open_spans : int list ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref [])

type handle =
  | No_span
  | Active of {
      id : int;
      parent : int option;
      name : string;
      start_s : float;
      start_attrs : attrs;
    }

let begin_span ?attrs name =
  if not (enabled ()) then No_span
  else begin
    let stack = Domain.DLS.get open_spans in
    let parent = match !stack with [] -> None | p :: _ -> Some p in
    let id = Atomic.fetch_and_add next_id 1 in
    stack := id :: !stack;
    Active
      {
        id;
        parent;
        name;
        start_s = Unix.gettimeofday ();
        start_attrs = (match attrs with None -> [] | Some f -> f ());
      }
  end

let end_span ?(attrs = []) handle =
  match handle with
  | No_span -> ()
  | Active { id; parent; name; start_s; start_attrs } ->
    let stack = Domain.DLS.get open_spans in
    (* pop through any spans an exception left open below us *)
    let rec pop = function
      | x :: rest when x <> id -> pop rest
      | x :: rest when x = id -> rest
      | rest -> rest
    in
    stack := pop !stack;
    (match Atomic.get current with
    | None -> ()
    | Some sink ->
      sink.emit
        {
          id;
          parent;
          name;
          start_s;
          dur_s = Unix.gettimeofday () -. start_s;
          attrs = start_attrs @ attrs;
        })

let with_span ?attrs name f =
  if not (enabled ()) then f ()
  else begin
    let h = begin_span ?attrs name in
    match f () with
    | result ->
      end_span h;
      result
    | exception e ->
      end_span ~attrs:[ ("error", Str (Printexc.to_string e)) ] h;
      raise e
  end
