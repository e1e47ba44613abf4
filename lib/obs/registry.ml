(* A named collection of counters and timers, snapshotable as JSON. The
   default registry holds the process-wide library instrumentation
   (routing planes, pool utilization, certifier runs); subsystems with
   per-instance telemetry (the fabric manager) carry their own. *)

type item =
  | Counter of Counter.t
  | Timer of Timer.t

type t = {
  lock : Mutex.t;
  mutable items : item list; (* insertion order, newest first *)
}

let create () = { lock = Mutex.create (); items = [] }

let default_registry = create ()

let default () = default_registry

let item_name = function
  | Counter c -> Counter.name c
  | Timer t -> Timer.name t

let same_kind a b =
  match (a, b) with
  | Counter _, Counter _ | Timer _, Timer _ -> true
  | _ -> false

let register ?(registry = default_registry) item =
  let name = item_name item in
  Mutex.lock registry.lock;
  (* same-name re-registration of the same kind replaces: module
     re-initialization and repeated tool runs must not grow the snapshot;
     a counter and a timer cannot share a name, or one would vanish *)
  match List.find_opt (fun i -> item_name i = name && not (same_kind i item)) registry.items with
  | Some _ ->
    Mutex.unlock registry.lock;
    invalid_arg (Printf.sprintf "Obs.Registry.register: %S is already registered as another kind" name)
  | None ->
    registry.items <- item :: List.filter (fun i -> item_name i <> name) registry.items;
    Mutex.unlock registry.lock

let counter ?registry ?slots ?desc name =
  let c = Counter.create ?slots ?desc name in
  register ?registry (Counter c);
  c

let timer ?registry ?slots ?desc ?capacity name =
  let t = Timer.create ?slots ?desc ?capacity name in
  register ?registry (Timer t);
  t

let items registry =
  Mutex.lock registry.lock;
  let xs = List.rev registry.items in
  Mutex.unlock registry.lock;
  xs

let find_counter registry name =
  List.find_map
    (function
      | Counter c when Counter.name c = name -> Some c
      | _ -> None)
    (items registry)

let find_timer registry name =
  List.find_map
    (function
      | Timer t when Timer.name t = name -> Some t
      | _ -> None)
    (items registry)

let reset registry =
  List.iter
    (function
      | Counter c -> Counter.reset c
      | Timer t -> Timer.reset t)
    (items registry)

let to_json registry =
  Json.Obj
    (List.map
       (function
         | Counter c -> (Counter.name c, Counter.to_json c)
         | Timer t -> (Timer.name t, Timer.to_json t))
       (items registry))

let json_string registry = Json.to_string (to_json registry)
