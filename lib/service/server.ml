(* The controller daemon's event loop. One thread, one select: reads are
   served inline against the immutable epoch snapshot (zero-copy from
   the route arena), mutations are admission-queued and drained in
   batches between selects, writes are non-blocking with per-connection
   output buffers. See server.mli / DESIGN.md §14 for the contract. *)

let log_src = Logs.Src.create "service.server" ~doc:"fabric controller daemon"

module Log = (val Logs.src_log log_src : Logs.LOG)

type config = {
  addr : Proto.addr;
  queue_depth : int;
  max_frame : int;
  tick_s : float;
  trace_capacity : int;
  drain_s : float;
  manager : Fabric.Manager.config;
}

let default_config =
  {
    addr = Proto.Unix_path "fabric.sock";
    queue_depth = 64;
    max_frame = Proto.default_max_frame;
    tick_s = 0.02;
    trace_capacity = 512;
    drain_s = 5.0;
    manager = Fabric.Manager.default_config;
  }

(* ------------------------------------------------------------------ *)
(* Span ring: the [trace] op serves the most recent spans              *)
(* ------------------------------------------------------------------ *)

type ring = {
  spans : Obs.Trace.span option array;
  mutable next : int;
  lock : Mutex.t;
}

let ring_sink r =
  {
    Obs.Trace.emit =
      (fun s ->
        Mutex.lock r.lock;
        r.spans.(r.next mod Array.length r.spans) <- Some s;
        r.next <- r.next + 1;
        Mutex.unlock r.lock);
    flush = (fun () -> ());
  }

(* Most recent spans, oldest first, at most [limit]. *)
let ring_recent r limit =
  Mutex.lock r.lock;
  let cap = Array.length r.spans in
  let stored = min r.next cap in
  let take = min limit stored in
  let out = ref [] in
  for i = 0 to take - 1 do
    (* walk newest to oldest; consing leaves the result oldest-first *)
    match r.spans.((r.next - 1 - i) mod cap) with
    | Some s -> out := s :: !out
    | None -> ()
  done;
  Mutex.unlock r.lock;
  !out

(* ------------------------------------------------------------------ *)
(* Connections: growable input/output byte buffers                     *)
(* ------------------------------------------------------------------ *)

type conn = {
  fd : Unix.file_descr;
  cid : int;
  mutable inbuf : Bytes.t;
  mutable inlen : int;
  mutable outbuf : Bytes.t;
  mutable outlen : int;
  mutable outpos : int;
  mutable closing : bool; (* close once the output buffer drains *)
  mutable dead : bool; (* remove at end of iteration *)
}

let grow_out c needed =
  let cap = Bytes.length c.outbuf in
  if c.outlen + needed > cap then begin
    let ncap = max (2 * cap) (c.outlen + needed) in
    let nb = Bytes.create ncap in
    Bytes.blit c.outbuf 0 nb 0 c.outlen;
    c.outbuf <- nb
  end

let grow_in c needed =
  let cap = Bytes.length c.inbuf in
  if c.inlen + needed > cap then begin
    let ncap = max (2 * cap) (c.inlen + needed) in
    let nb = Bytes.create ncap in
    Bytes.blit c.inbuf 0 nb 0 c.inlen;
    c.inbuf <- nb
  end

(* ------------------------------------------------------------------ *)
(* Server state                                                        *)
(* ------------------------------------------------------------------ *)

type t = {
  config : config;
  mgr : Fabric.Manager.t;
  listen_fd : Unix.file_descr;
  actual_addr : Proto.addr;
  metrics : Metrics.t;
  ring : ring option;
  prev_obs_enabled : bool;
  pending : (conn * Fabric.Event.t * Obs.Json.t option) Queue.t;
  stop_flag : bool Atomic.t;
  scratch : Buffer.t; (* reply payloads; single-threaded loop *)
  read_chunk : Bytes.t;
  mutable conns : conn list;
  mutable stopping : bool;
  mutable drain_until : float;
  mutable running : bool;
  mutable next_cid : int;
}

let addr t = t.actual_addr

let manager t = t.mgr

let metrics t = t.metrics

let stop t = Atomic.set t.stop_flag true

let bind_listen addr =
  match addr with
  | Proto.Unix_path path ->
    if Sys.file_exists path then
      Error (Printf.sprintf "%s: path already exists (live or stale server?); remove it first" path)
    else begin
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      try
        Unix.bind fd (Unix.ADDR_UNIX path);
        Unix.listen fd 128;
        Unix.set_nonblock fd;
        Ok (fd, addr)
      with e ->
        Unix.close fd;
        Error (Printexc.to_string e)
    end
  | Proto.Tcp (host, port) -> (
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    try
      Unix.setsockopt fd Unix.SO_REUSEADDR true;
      let inet =
        if host = "" || host = "*" then Unix.inet_addr_any
        else
          try Unix.inet_addr_of_string host
          with Failure _ -> (Unix.gethostbyname host).Unix.h_addr_list.(0)
      in
      Unix.bind fd (Unix.ADDR_INET (inet, port));
      Unix.listen fd 128;
      Unix.set_nonblock fd;
      let actual_port =
        match Unix.getsockname fd with
        | Unix.ADDR_INET (_, p) -> p
        | _ -> port
      in
      Ok (fd, Proto.Tcp (host, actual_port))
    with e ->
      Unix.close fd;
      Error (Printexc.to_string e))

let min_max_frame = 16

let create ?(config = default_config) g =
  if config.queue_depth < 1 then invalid_arg "Server.create: queue_depth < 1";
  if config.max_frame < min_max_frame then invalid_arg "Server.create: max_frame too small";
  match Fabric.Manager.create ~config:config.manager g with
  | Error msg -> Error ("initial routing failed: " ^ msg)
  | Ok mgr -> (
    match bind_listen config.addr with
    | Error msg ->
      Fabric.Manager.shutdown mgr;
      Error msg
    | Ok (listen_fd, actual_addr) ->
      let prev_obs_enabled = Obs.Control.enabled () in
      let ring =
        if config.trace_capacity > 0 then begin
          let r =
            { spans = Array.make config.trace_capacity None; next = 0; lock = Mutex.create () }
          in
          Obs.Control.set_enabled true;
          Obs.Trace.set_sink (Some (ring_sink r));
          Some r
        end
        else None
      in
      Ok
        {
          config;
          mgr;
          listen_fd;
          actual_addr;
          metrics = Metrics.create ();
          ring;
          prev_obs_enabled;
          pending = Queue.create ();
          stop_flag = Atomic.make false;
          scratch = Buffer.create 1024;
          read_chunk = Bytes.create 4096;
          conns = [];
          stopping = false;
          drain_until = 0.0;
          running = true;
          next_cid = 1;
        })

(* ------------------------------------------------------------------ *)
(* Replies                                                             *)
(* ------------------------------------------------------------------ *)

(* Append one frame (header + [scratch] payload) to [conn]'s output. *)
let flush_scratch t conn =
  if not conn.dead then begin
    let len = Buffer.length t.scratch in
    grow_out conn (4 + len);
    Bytes.set_int32_be conn.outbuf conn.outlen (Int32.of_int len);
    Buffer.blit t.scratch 0 conn.outbuf (conn.outlen + 4) len;
    conn.outlen <- conn.outlen + 4 + len;
    Obs.Counter.incr ~n:len t.metrics.Metrics.bytes_out
  end

let add_id buf = function
  | None -> ()
  | Some id ->
    Buffer.add_string buf ",\"id\":";
    Obs.Json.to_buffer buf id

(* A reply built as an Obs.Json object: status + optional id + fields. *)
let send_obj t conn ~id ~status fields =
  Buffer.clear t.scratch;
  Buffer.add_string t.scratch "{\"status\":\"";
  Buffer.add_string t.scratch status;
  Buffer.add_char t.scratch '"';
  add_id t.scratch id;
  List.iter
    (fun (k, v) ->
      Buffer.add_string t.scratch ",\"";
      Buffer.add_string t.scratch (Obs.Json.escape k);
      Buffer.add_string t.scratch "\":";
      Obs.Json.to_buffer t.scratch v)
    fields;
  Buffer.add_char t.scratch '}';
  flush_scratch t conn

let send_ok t conn ~id fields = send_obj t conn ~id ~status:"ok" fields

let send_error t conn ~id msg = send_obj t conn ~id ~status:"error" [ ("error", Obs.Json.Str msg) ]

let send_busy t conn ~id =
  Obs.Counter.incr t.metrics.Metrics.busy_replies;
  send_obj t conn ~id ~status:"busy"
    [
      ("error", Obs.Json.Str "admission queue full, retry later");
      ("queue_depth", Obs.Json.Num (float_of_int (Queue.length t.pending)));
    ]

(* ------------------------------------------------------------------ *)
(* Request handlers                                                    *)
(* ------------------------------------------------------------------ *)

(* The zero-copy read path: the reply's path array is emitted straight
   from the epoch snapshot's route arena — no Path.t is materialized,
   no slice is copied. The snapshot is immutable, so the reply is
   internally consistent with exactly one certified epoch even if a
   swap lands between two queries. *)
let handle_route t conn ~id ~src ~dst =
  Obs.Counter.incr t.metrics.Metrics.route_queries;
  Obs.Timer.time t.metrics.Metrics.route_s @@ fun () ->
  match Fabric.Manager.snapshot t.mgr with
  | Error e ->
    Obs.Counter.incr t.metrics.Metrics.route_errors;
    send_error t conn ~id ("no snapshot: " ^ e)
  | Ok snap ->
    let ft = snap.Fabric.Epoch.tables in
    let g = Ftable.graph ft in
    let terminal x = x >= 0 && x < Graph.num_nodes g && Graph.is_terminal g x in
    if not (terminal src) then begin
      Obs.Counter.incr t.metrics.Metrics.route_errors;
      send_error t conn ~id (Printf.sprintf "src %d is not a terminal of the current fabric" src)
    end
    else if not (terminal dst) then begin
      Obs.Counter.incr t.metrics.Metrics.route_errors;
      send_error t conn ~id (Printf.sprintf "dst %d is not a terminal of the current fabric" dst)
    end
    else begin
      let store = snap.Fabric.Epoch.store in
      let pair = Ftable.pair_id ft ~src ~dst in
      if src <> dst && not (Route_store.mem store ~pair) then begin
        Obs.Counter.incr t.metrics.Metrics.route_errors;
        send_error t conn ~id (Printf.sprintf "no route for %d -> %d" src dst)
      end
      else begin
        let buf = t.scratch in
        Buffer.clear buf;
        Buffer.add_string buf "{\"status\":\"ok\"";
        add_id buf id;
        Buffer.add_string buf ",\"epoch\":";
        Buffer.add_string buf (string_of_int snap.Fabric.Epoch.snap_epoch);
        Buffer.add_string buf ",\"layers\":";
        Buffer.add_string buf (string_of_int snap.Fabric.Epoch.num_layers);
        Buffer.add_string buf ",\"layer\":";
        Buffer.add_string buf (string_of_int (Ftable.layer ft ~src ~dst));
        let len = if src = dst then 0 else Route_store.length store ~pair in
        Buffer.add_string buf ",\"hops\":";
        Buffer.add_string buf (string_of_int len);
        Buffer.add_string buf ",\"path\":[";
        if len > 0 then begin
          let off = Route_store.offset store ~pair in
          let arena = Route_store.buffer store in
          for i = 0 to len - 1 do
            if i > 0 then Buffer.add_char buf ',';
            Buffer.add_string buf (string_of_int arena.(off + i))
          done
        end;
        Buffer.add_string buf "]}";
        flush_scratch t conn
      end
    end

let stats_json t =
  Obs.Json.Obj
    [
      ("manager", Fabric.Metrics.to_json (Fabric.Manager.metrics t.mgr));
      ("process", Obs.Registry.to_json (Obs.Registry.default ()));
      ("service", Metrics.to_json t.metrics);
    ]

let handle_stats t conn ~id =
  send_ok t conn ~id
    [
      ("epoch", Obs.Json.Num (float_of_int (Fabric.Manager.epoch t.mgr)));
      ("queue_depth", Obs.Json.Num (float_of_int (Queue.length t.pending)));
      ("connections", Obs.Json.Num (float_of_int (List.length t.conns)));
      ("stats", stats_json t);
    ]

let handle_trace t conn ~id limit =
  match t.ring with
  | None -> send_error t conn ~id "tracing is disabled (trace_capacity = 0)"
  | Some r ->
    let limit = Option.value limit ~default:(Array.length r.spans) in
    let spans = ring_recent r limit in
    send_ok t conn ~id
      [
        ("count", Obs.Json.Num (float_of_int (List.length spans)));
        ("spans", Obs.Json.List (List.map Obs.Trace.span_to_json spans));
      ]

let handle_analyze t conn ~id =
  let report = Analysis.Analyzer.analyze (Fabric.Manager.tables t.mgr) in
  send_ok t conn ~id
    [
      ("certified", Obs.Json.Bool (Analysis.Analyzer.ok report));
      ("epoch", Obs.Json.Num (float_of_int (Fabric.Manager.epoch t.mgr)));
      ("report", Analysis.Analyzer.to_json ~target:"active-tables" report);
    ]

let handle_epoch_info t conn ~id =
  let entries =
    List.map
      (fun e ->
        Obs.Json.Obj
          [
            ("epoch", Obs.Json.Num (float_of_int e.Fabric.Epoch.epoch));
            ("label", Obs.Json.Str e.Fabric.Epoch.label);
            ("verify_ms", Obs.Json.Num (1000.0 *. e.Fabric.Epoch.verify_s));
          ])
      (Fabric.Manager.epoch_history t.mgr)
  in
  send_ok t conn ~id
    [
      ("epoch", Obs.Json.Num (float_of_int (Fabric.Manager.epoch t.mgr)));
      ("history", Obs.Json.List entries);
    ]

let action_string = function
  | Fabric.Manager.Full _ | Fabric.Manager.Incremental _ -> "full"
  | Fabric.Manager.Noop -> "noop"

(* Drain the whole admission queue in one go: every admitted event
   becomes a manager step back-to-back — one "batch" — and the replies
   land together at the batch boundary. Readers in the same iteration
   saw the pre-batch snapshot; the next iteration serves the new epoch. *)
let drain_events t =
  if not (Queue.is_empty t.pending) then begin
    let batch_size = Queue.length t.pending in
    Obs.Counter.incr t.metrics.Metrics.event_batches;
    while not (Queue.is_empty t.pending) do
      let conn, ev, id = Queue.pop t.pending in
      let o = Obs.Timer.time t.metrics.Metrics.apply_s (fun () -> Fabric.Manager.apply t.mgr ev) in
      Obs.Counter.incr t.metrics.Metrics.events_applied;
      if not conn.dead then
        send_ok t conn ~id
          [
            ("event", Obs.Json.Str (Fabric.Event.to_string ev));
            ("applied", Obs.Json.Bool o.Fabric.Manager.applied);
            ("action", Obs.Json.Str (action_string o.Fabric.Manager.action));
            ("fallback", Obs.Json.Bool o.Fabric.Manager.fallback);
            ("epoch", Obs.Json.Num (float_of_int o.Fabric.Manager.epoch));
            ("note", Obs.Json.Str o.Fabric.Manager.note);
            ("elapsed_ms", Obs.Json.Num (1000.0 *. o.Fabric.Manager.elapsed_s));
            ("batch_size", Obs.Json.Num (float_of_int batch_size));
          ]
    done;
    Obs.Counter.set t.metrics.Metrics.queue_depth 0
  end

let handle_request t conn payload =
  Obs.Counter.incr t.metrics.Metrics.requests;
  Obs.Counter.incr ~n:(String.length payload) t.metrics.Metrics.bytes_in;
  match Obs.Json.of_string payload with
  | Error e ->
    Obs.Counter.incr t.metrics.Metrics.bad_requests;
    send_error t conn ~id:None ("bad JSON: " ^ e)
  | Ok j -> (
    let id = Proto.request_id j in
    match Proto.request_of_json j with
    | Error e ->
      Obs.Counter.incr t.metrics.Metrics.bad_requests;
      send_error t conn ~id e
    | Ok req -> (
      match req with
      | Proto.Ping ->
        send_ok t conn ~id
          [
            ("server", Obs.Json.Str "fabric_service");
            ("proto", Obs.Json.Num (float_of_int Proto.version));
            ("epoch", Obs.Json.Num (float_of_int (Fabric.Manager.epoch t.mgr)));
          ]
      | _ when t.stopping ->
        (* the drain phase serves nothing new; admitted work still
           completes and flushes *)
        send_error t conn ~id "shutting down"
      | Proto.Route { src; dst } -> handle_route t conn ~id ~src ~dst
      | Proto.Event ev ->
        if Queue.length t.pending >= t.config.queue_depth then send_busy t conn ~id
        else begin
          Queue.push (conn, ev, id) t.pending;
          Obs.Counter.incr t.metrics.Metrics.events_enqueued;
          let depth = Queue.length t.pending in
          Obs.Counter.set t.metrics.Metrics.queue_depth depth;
          if depth > Obs.Counter.value t.metrics.Metrics.queue_peak then
            Obs.Counter.set t.metrics.Metrics.queue_peak depth
        end
      | Proto.Stats -> handle_stats t conn ~id
      | Proto.Trace limit -> handle_trace t conn ~id limit
      | Proto.Analyze -> handle_analyze t conn ~id
      | Proto.Epoch_info -> handle_epoch_info t conn ~id
      | Proto.Shutdown ->
        Log.info (fun m -> m "shutdown requested by client %d" conn.cid);
        send_ok t conn ~id [ ("epoch", Obs.Json.Num (float_of_int (Fabric.Manager.epoch t.mgr))) ];
        Atomic.set t.stop_flag true))

(* ------------------------------------------------------------------ *)
(* I/O                                                                 *)
(* ------------------------------------------------------------------ *)

(* Extract every complete frame from the connection's input buffer. A
   frame that oversteps [max_frame] is a protocol violation: reply,
   then close once the reply flushes (there is no way to resync). *)
let parse_frames t conn =
  let pos = ref 0 in
  let continue = ref true in
  while !continue && conn.inlen - !pos >= 4 do
    let len = Int32.to_int (Bytes.get_int32_be conn.inbuf !pos) in
    if len < 0 || len > t.config.max_frame then begin
      Obs.Counter.incr t.metrics.Metrics.bad_requests;
      send_error t conn ~id:None
        (Printf.sprintf "frame of %d bytes exceeds the %d-byte limit" len t.config.max_frame);
      conn.closing <- true;
      conn.inlen <- 0;
      pos := 0;
      continue := false
    end
    else if conn.inlen - !pos >= 4 + len then begin
      let payload = Bytes.sub_string conn.inbuf (!pos + 4) len in
      pos := !pos + 4 + len;
      (try handle_request t conn payload
       with e ->
         Obs.Counter.incr t.metrics.Metrics.bad_requests;
         send_error t conn ~id:None ("internal error: " ^ Printexc.to_string e))
    end
    else continue := false
  done;
  if !pos > 0 then begin
    Bytes.blit conn.inbuf !pos conn.inbuf 0 (conn.inlen - !pos);
    conn.inlen <- conn.inlen - !pos
  end

let handle_readable t conn =
  let keep_reading = ref true in
  while !keep_reading && not conn.dead do
    match Unix.read conn.fd t.read_chunk 0 (Bytes.length t.read_chunk) with
    | 0 ->
      conn.dead <- true;
      keep_reading := false
    | k ->
      grow_in conn k;
      Bytes.blit t.read_chunk 0 conn.inbuf conn.inlen k;
      conn.inlen <- conn.inlen + k;
      if k < Bytes.length t.read_chunk then keep_reading := false
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
      keep_reading := false
    | exception Unix.Unix_error (_, _, _) ->
      conn.dead <- true;
      keep_reading := false
  done;
  if not conn.dead then parse_frames t conn

let handle_writable conn =
  let keep = ref true in
  while !keep && conn.outpos < conn.outlen do
    match Unix.write conn.fd conn.outbuf conn.outpos (conn.outlen - conn.outpos) with
    | k -> conn.outpos <- conn.outpos + k
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> keep := false
    | exception Unix.Unix_error (_, _, _) ->
      conn.dead <- true;
      keep := false
  done;
  if conn.outpos >= conn.outlen then begin
    conn.outpos <- 0;
    conn.outlen <- 0;
    if conn.closing then conn.dead <- true
  end

let accept_clients t =
  let keep = ref true in
  while !keep do
    match Unix.accept t.listen_fd with
    | fd, _ ->
      Unix.set_nonblock fd;
      (try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ | Invalid_argument _ -> ());
      let c =
        {
          fd;
          cid = t.next_cid;
          inbuf = Bytes.create 4096;
          inlen = 0;
          outbuf = Bytes.create 4096;
          outlen = 0;
          outpos = 0;
          closing = false;
          dead = false;
        }
      in
      t.next_cid <- t.next_cid + 1;
      t.conns <- c :: t.conns;
      Obs.Counter.incr t.metrics.Metrics.connections
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> keep := false
    | exception Unix.Unix_error (_, _, _) -> keep := false
  done

let cull t =
  let dead, alive = List.partition (fun c -> c.dead) t.conns in
  List.iter
    (fun c ->
      (try Unix.close c.fd with Unix.Unix_error _ -> ());
      Obs.Counter.incr t.metrics.Metrics.disconnects)
    dead;
  t.conns <- alive

let teardown t =
  List.iter (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ()) t.conns;
  t.conns <- [];
  (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
  (match t.actual_addr with
  | Proto.Unix_path path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
  | Proto.Tcp _ -> ());
  (match t.ring with
  | Some _ ->
    Obs.Trace.set_sink None;
    Obs.Control.set_enabled t.prev_obs_enabled
  | None -> ());
  Fabric.Manager.shutdown t.mgr;
  t.running <- false

let serve t =
  Fun.protect ~finally:(fun () -> teardown t)
  @@ fun () ->
  let continue = ref true in
  while !continue do
    (* a stop request (signal handler, another thread, shutdown op)
       flips the loop into its bounded drain phase *)
    if Atomic.get t.stop_flag && not t.stopping then begin
      t.stopping <- true;
      t.drain_until <- Unix.gettimeofday () +. t.config.drain_s
    end;
    let reads =
      (if t.stopping then [] else [ t.listen_fd ])
      @ List.filter_map (fun c -> if c.dead then None else Some c.fd) t.conns
    in
    let writes =
      List.filter_map (fun c -> if (not c.dead) && c.outlen > c.outpos then Some c.fd else None) t.conns
    in
    (match Unix.select reads writes [] t.config.tick_s with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | readable, writable, _ ->
      if List.mem t.listen_fd readable then accept_clients t;
      List.iter
        (fun c -> if (not c.dead) && List.mem c.fd readable then handle_readable t c)
        t.conns;
      (* mutating requests admitted this iteration become one batched
         manager step group, replies at the batch boundary *)
      drain_events t;
      List.iter
        (fun c ->
          if (not c.dead) && (List.mem c.fd writable || c.outlen > c.outpos) then handle_writable c)
        t.conns);
    cull t;
    if t.stopping then begin
      (* even during drain, admitted events complete *)
      drain_events t;
      let pending_out = List.exists (fun c -> c.outlen > c.outpos) t.conns in
      if (not pending_out) || Unix.gettimeofday () > t.drain_until then continue := false
    end
  done
