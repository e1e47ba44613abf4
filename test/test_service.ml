(* Tests for the fabric controller service (DESIGN.md §14): wire
   protocol roundtrips, framing against hostile input, explicit
   backpressure under pipelined writes, a read answered in the middle of
   a slow epoch swap, and the acceptance soak — 64 concurrent clients
   querying routes while a writer churns the topology, with every reply
   checked for internal consistency against a single certified epoch. *)

let check = Alcotest.check

(* ------------------------------------------------------------------ *)
(* Helpers                                                              *)
(* ------------------------------------------------------------------ *)

let torus dims = fst (Topo_torus.torus ~dims ~terminals_per_switch:1)

let sock_counter = ref 0

(* A fresh, non-existing unix socket path per test. *)
let fresh_sock_path () =
  incr sock_counter;
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "fabsvc_test_%d_%d.sock" (Unix.getpid ()) !sock_counter)
  in
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  path

let config ?(queue_depth = 64) path =
  {
    Service.Server.default_config with
    addr = Service.Proto.Unix_path path;
    queue_depth;
    tick_s = 0.005;
    trace_capacity = 128;
  }

(* Start a server on a fresh socket, run [f addr server], always join the
   serve thread and unlink the socket. [f] must end the loop (a shutdown
   request or [Server.stop]). *)
let with_server ?queue_depth g f =
  let path = fresh_sock_path () in
  match Service.Server.create ~config:(config ?queue_depth path) g with
  | Error msg -> Alcotest.failf "server create: %s" msg
  | Ok server ->
    let th = Thread.create Service.Server.serve server in
    Fun.protect
      ~finally:(fun () ->
        Service.Server.stop server;
        Thread.join th;
        (try Unix.unlink path with Unix.Unix_error _ -> ()))
      (fun () -> f (Service.Proto.Unix_path path) server)

let connect addr =
  match Service.Client.connect addr with
  | Ok c -> c
  | Error msg -> Alcotest.failf "connect: %s" msg

let ok = function
  | Ok v -> v
  | Error msg -> Alcotest.failf "unexpected client error: %s" msg

(* ------------------------------------------------------------------ *)
(* Protocol: request JSON roundtrips                                    *)
(* ------------------------------------------------------------------ *)

let test_request_roundtrip () =
  List.iter
    (fun req ->
      match Service.Proto.request_of_json (Service.Proto.request_to_json req) with
      | Ok req' -> check Alcotest.bool "roundtrip" true (req = req')
      | Error msg -> Alcotest.failf "roundtrip failed: %s" msg)
    [
      Service.Proto.Ping;
      Service.Proto.Route { src = 16; dst = 31 };
      Service.Proto.Event (Fabric.Event.Link_down 3);
      Service.Proto.Event (Fabric.Event.Switch_drain 7);
      Service.Proto.Stats;
      Service.Proto.Trace None;
      Service.Proto.Trace (Some 10);
      Service.Proto.Analyze;
      Service.Proto.Epoch_info;
      Service.Proto.Shutdown;
    ]

let test_request_rejects_garbage () =
  List.iter
    (fun s ->
      let j = Result.get_ok (Obs.Json.of_string s) in
      check Alcotest.bool s true (Result.is_error (Service.Proto.request_of_json j)))
    [
      {|{"op":"explode"}|};
      {|{"nop":"ping"}|};
      {|{"op":"route","src":1}|};
      {|{"op":"route","src":"a","dst":2}|};
      {|{"op":"event"}|};
      {|{"op":"event","event":"explode 3"}|};
      {|[1,2,3]|};
      {|"ping"|};
    ]

(* ------------------------------------------------------------------ *)
(* Framing                                                              *)
(* ------------------------------------------------------------------ *)

let test_frame_roundtrip () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close a with Unix.Unix_error _ -> ());
      try Unix.close b with Unix.Unix_error _ -> ())
    (fun () ->
      Service.Proto.write_frame a {|{"op":"ping"}|};
      Service.Proto.write_frame a "";
      (match Service.Proto.read_frame b with
      | Ok (Some p) -> check Alcotest.string "payload" {|{"op":"ping"}|} p
      | Ok None -> Alcotest.fail "eof"
      | Error msg -> Alcotest.fail msg);
      (match Service.Proto.read_frame b with
      | Ok (Some p) -> check Alcotest.string "empty payload" "" p
      | Ok None -> Alcotest.fail "eof"
      | Error msg -> Alcotest.fail msg);
      (* Clean EOF at a frame boundary is [Ok None]... *)
      Unix.close a;
      (match Service.Proto.read_frame b with
      | Ok None -> ()
      | Ok (Some _) -> Alcotest.fail "phantom frame"
      | Error msg -> Alcotest.failf "clean EOF became an error: %s" msg))

let test_frame_truncated_and_oversize () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (* A header promising more bytes than ever arrive: truncation error. *)
  let header = Bytes.create 4 in
  Bytes.set_int32_be header 0 64l;
  ignore (Unix.write a header 0 4);
  ignore (Unix.write_substring a "short" 0 5);
  Unix.close a;
  (match Service.Proto.read_frame b with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "truncated frame accepted");
  Unix.close b;
  (* An oversize frame is refused without allocating the payload. *)
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Service.Proto.write_frame a (String.make 256 'x');
  (match Service.Proto.read_frame ~max_frame:64 b with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "oversize frame accepted");
  Unix.close a;
  Unix.close b

(* ------------------------------------------------------------------ *)
(* Server basics: every op end to end over one socket                   *)
(* ------------------------------------------------------------------ *)

let test_server_end_to_end () =
  let g = torus [| 4; 4 |] in
  with_server g (fun addr server ->
      let mgr = Service.Server.manager server in
      let c = connect addr in
      Fun.protect ~finally:(fun () -> Service.Client.close c) (fun () ->
          (* ping: epoch 1 after create *)
          check Alcotest.int "epoch after create" 1 (ok (Service.Client.ping c));
          (* route: the reply must agree with the manager's own tables *)
          let terms = Graph.terminals (Fabric.Manager.graph mgr) in
          let src = terms.(0) and dst = terms.(Array.length terms - 1) in
          let r = ok (Service.Client.route c ~src ~dst) in
          check Alcotest.int "route epoch" 1 r.Service.Client.epoch;
          let tables = Fabric.Manager.tables mgr in
          (match Routing.Ftable.path tables ~src ~dst with
          | None -> Alcotest.fail "manager has no path for the queried pair"
          | Some p ->
            check
              Alcotest.(list int)
              "path matches the active tables" (Array.to_list p)
              (Array.to_list r.Service.Client.path));
          check Alcotest.int "layer matches" (Routing.Ftable.layer tables ~src ~dst)
            r.Service.Client.layer;
          check Alcotest.int "layers matches" (Routing.Ftable.num_layers tables)
            r.Service.Client.layers;
          (* route: non-terminal ids are refused, not served *)
          check Alcotest.bool "non-terminal refused" true
            (Result.is_error (Service.Client.route c ~src:0 ~dst));
          (* a terminal to itself is the trivial empty route, not an error *)
          let self = ok (Service.Client.route c ~src ~dst:src) in
          check Alcotest.int "self pair has no hops" 0 (Array.length self.Service.Client.path);
          (* event: a cable down applies and bumps the epoch *)
          let cable = (Degrade.switch_cables (Fabric.Manager.graph mgr)).(0) in
          (match ok (Service.Client.event c (Fabric.Event.Link_down cable)) with
          | Service.Client.Applied { epoch; applied; batch_size; _ } ->
            check Alcotest.bool "applied" true applied;
            check Alcotest.int "epoch bumped" 2 epoch;
            check Alcotest.int "lone event, batch of one" 1 batch_size
          | Service.Client.Busy _ -> Alcotest.fail "unloaded server claimed busy");
          (* the re-routed tables serve the same pair consistently *)
          let r2 = ok (Service.Client.route c ~src ~dst) in
          check Alcotest.int "route epoch after event" 2 r2.Service.Client.epoch;
          (* analyze: the active tables are certified *)
          let certified, _report = ok (Service.Client.analyze c) in
          check Alcotest.bool "certified" true certified;
          (* epoch history mirrors the manager *)
          let hist = ok (Service.Client.epoch_history c) in
          check Alcotest.int "history length" 2 (List.length hist);
          (* stats: a parseable object counting this very conversation *)
          let stats = ok (Service.Client.stats c) in
          (match Obs.Json.member "service" stats with
          | Some _ -> ()
          | None -> Alcotest.fail "stats reply lacks the service registry");
          (* trace: spans from the event's manager step *)
          let spans = ok (Service.Client.trace c) in
          check Alcotest.bool "spans captured" true (List.length spans > 0);
          (* shutdown: acknowledged, then the loop exits *)
          ok (Service.Client.shutdown c)));
  ()

let test_server_refuses_existing_socket () =
  let path = fresh_sock_path () in
  let touched = open_out path in
  close_out touched;
  Fun.protect
    ~finally:(fun () -> try Unix.unlink path with Unix.Unix_error _ -> ())
    (fun () ->
      match Service.Server.create ~config:(config path) (torus [| 3; 3 |]) with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "existing socket path clobbered")

let test_server_rejects_bad_requests () =
  with_server (torus [| 3; 3 |]) (fun addr _server ->
      let c = connect addr in
      Fun.protect ~finally:(fun () -> Service.Client.close c) (fun () ->
          let is_error_reply raw =
            match Service.Client.call_raw c raw with
            | Error msg -> Alcotest.failf "transport error: %s" msg
            | Ok reply -> (
              match Obs.Json.of_string reply with
              | Error msg -> Alcotest.failf "unparseable reply: %s" msg
              | Ok j -> (
                match Option.bind (Obs.Json.member "status" j) Obs.Json.to_str with
                | Some "error" -> ()
                | s ->
                  Alcotest.failf "expected an error reply, got status %s"
                    (Option.value ~default:"<none>" s)))
          in
          is_error_reply "not json at all";
          is_error_reply {|{"op":"ping"} trailing|};
          is_error_reply {|{"op":"explode"}|};
          is_error_reply {|{"op":"route","src":0,"dst":0}|};
          (* the connection survived four refusals *)
          check Alcotest.int "still serving" 1 (ok (Service.Client.ping c))))

(* Route reads are not stages: more reads than the span ring holds,
   after one event, leave that event's spans in the ring. *)
let test_route_reads_leave_no_spans () =
  let g = torus [| 4; 4 |] in
  with_server g (fun addr _server ->
      let c = connect addr in
      Fun.protect ~finally:(fun () -> Service.Client.close c) (fun () ->
          let cable = (Degrade.switch_cables g).(0) in
          (match ok (Service.Client.event c (Fabric.Event.Link_down cable)) with
          | Service.Client.Applied { applied; _ } -> check Alcotest.bool "applied" true applied
          | Service.Client.Busy _ -> Alcotest.fail "unloaded server claimed busy");
          let terms = Graph.terminals g in
          let queries = 2 * (config "unused").Service.Server.trace_capacity in
          for i = 1 to queries do
            let src = terms.(i mod Array.length terms) and dst = terms.((i + 1) mod Array.length terms) in
            ignore (ok (Service.Client.route c ~src ~dst))
          done;
          let names =
            List.filter_map
              (fun j -> Option.bind (Obs.Json.member "name" j) Obs.Json.to_str)
              (ok (Service.Client.trace c))
          in
          check Alcotest.bool "the event's fabric.apply span survives the reads" true
            (List.mem "fabric.apply" names);
          check Alcotest.bool "no read left a span" false (List.mem "service.route_s" names);
          ok (Service.Client.shutdown c)))

(* ------------------------------------------------------------------ *)
(* Backpressure: pipelined events against a tiny admission queue        *)
(* ------------------------------------------------------------------ *)

let test_backpressure_sheds_load () =
  let g = torus [| 4; 4 |] in
  with_server ~queue_depth:2 g (fun addr _server ->
      let cable = (Degrade.switch_cables g).(0) in
      (* Hand-roll the connection: all 8 event frames must leave in ONE
         write so they land in the server's buffer in one readable tick,
         before any drain runs. *)
      let path = match addr with Service.Proto.Unix_path p -> p | _ -> assert false in
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          Unix.connect fd (Unix.ADDR_UNIX path);
          let n = 8 in
          let burst = Buffer.create 512 in
          for i = 0 to n - 1 do
            let payload =
              Printf.sprintf {|{"op":"event","event":"down %d","id":%d}|} cable i
            in
            Buffer.add_bytes burst (Testutil.frame payload)
          done;
          let b = Buffer.to_bytes burst in
          let written = Unix.write fd b 0 (Bytes.length b) in
          check Alcotest.int "burst left in one write" (Bytes.length b) written;
          let ok_ids = ref [] and busy_ids = ref [] in
          for _ = 1 to n do
            match Service.Proto.read_frame fd with
            | Error msg -> Alcotest.failf "read reply: %s" msg
            | Ok None -> Alcotest.fail "server closed mid-burst"
            | Ok (Some reply) -> (
              let j = Result.get_ok (Obs.Json.of_string reply) in
              let id =
                match Option.bind (Obs.Json.member "id" j) Obs.Json.to_int with
                | Some id -> id
                | None -> Alcotest.fail "reply lost its correlation id"
              in
              match Option.bind (Obs.Json.member "status" j) Obs.Json.to_str with
              | Some "ok" -> ok_ids := id :: !ok_ids
              | Some "busy" -> busy_ids := id :: !busy_ids
              | s ->
                Alcotest.failf "unexpected status %s" (Option.value ~default:"<none>" s))
          done;
          (* Exactly queue_depth events were admitted; the overflow was
             shed with explicit busy replies — nothing hung, nothing was
             dropped silently. *)
          check Alcotest.int "admitted = queue depth" 2 (List.length !ok_ids);
          check Alcotest.int "overflow shed as busy" (n - 2) (List.length !busy_ids);
          check
            Alcotest.(list int)
            "first frames won admission" [ 0; 1 ]
            (List.sort compare !ok_ids);
          (* The shed client retries and succeeds once the queue drains. *)
          Service.Proto.write_frame fd {|{"op":"event","event":"up 999999"}|};
          (match Service.Proto.read_frame fd with
          | Ok (Some reply) -> (
            let j = Result.get_ok (Obs.Json.of_string reply) in
            match Option.bind (Obs.Json.member "status" j) Obs.Json.to_str with
            | Some "ok" -> ()
            | s -> Alcotest.failf "retry not admitted: %s" (Option.value ~default:"<none>" s))
          | Ok None -> Alcotest.fail "server closed on retry"
          | Error msg -> Alcotest.failf "retry: %s" msg)))

(* ------------------------------------------------------------------ *)
(* Reads during a swap                                                  *)
(* ------------------------------------------------------------------ *)

let raw_connect addr =
  let path = match addr with Service.Proto.Unix_path p -> p | _ -> assert false in
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  fd

let read_reply fd =
  match Service.Proto.read_frame fd with
  | Ok (Some reply) -> Result.get_ok (Obs.Json.of_string reply)
  | Ok None -> Alcotest.fail "server closed the connection"
  | Error msg -> Alcotest.failf "read reply: %s" msg

let reply_int field j =
  match Option.bind (Obs.Json.member field j) Obs.Json.to_int with
  | Some v -> v
  | None -> Alcotest.failf "reply lacks %s: %s" field (Obs.Json.to_string j)

(* On torus:12x12 Algorithm 2 runs out of layers and the recompute falls
   back to the online placement, a swap of some 0.3 s. A route sent
   50 ms into it is answered at one of the swap's pause points, from the
   pre-swap epoch, before the event's reply; a route sent after that
   reply reads the new epoch. An [analyze] sent mid-swap waits for the
   swap, and the route pipelined behind it on its connection does too. *)
let test_read_served_mid_swap () =
  let g = torus [| 12; 12 |] in
  with_server g (fun addr server ->
      let ev_fd = raw_connect addr and q_fd = raw_connect addr and a_fd = raw_connect addr in
      Fun.protect
        ~finally:(fun () ->
          List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) [ ev_fd; q_fd; a_fd ])
        (fun () ->
          let terms = Graph.terminals g in
          let route = Printf.sprintf {|{"op":"route","src":%d,"dst":%d}|} terms.(0) terms.(1) in
          let cable = (Degrade.switch_cables g).(0) in
          Service.Proto.write_frame ev_fd (Printf.sprintf {|{"op":"event","event":"down %d"}|} cable);
          Thread.delay 0.05;
          let pipelined = Bytes.cat (Testutil.frame {|{"op":"analyze"}|}) (Testutil.frame route) in
          ignore (Unix.write a_fd pipelined 0 (Bytes.length pipelined));
          Service.Proto.write_frame q_fd route;
          (match Unix.select [ ev_fd; q_fd ] [] [] 60.0 with
          | [ fd ], _, _ when fd = q_fd -> ()
          | [], _, _ -> Alcotest.fail "no reply within 60 s"
          | _ -> Alcotest.fail "the event's reply arrived before the route reply");
          check Alcotest.int "mid-swap read serves the pre-swap epoch" 1
            (reply_int "epoch" (read_reply q_fd));
          let applied = read_reply ev_fd in
          check Alcotest.int "the event published epoch 2" 2 (reply_int "epoch" applied);
          let analyzed = read_reply a_fd in
          check Alcotest.bool "analyze answered first" true (Obs.Json.member "certified" analyzed <> None);
          check Alcotest.int "analyze waited for the swap" 2 (reply_int "epoch" analyzed);
          check Alcotest.int "the route behind it did too" 2 (reply_int "epoch" (read_reply a_fd));
          Service.Proto.write_frame q_fd route;
          check Alcotest.int "a read after the reply serves the new epoch" 2
            (reply_int "epoch" (read_reply q_fd));
          check Alcotest.bool "counted as a read in a swap" true
            (Obs.Counter.value (Service.Server.metrics server).Service.Metrics.reads_in_swap >= 1);
          Service.Proto.write_frame q_fd {|{"op":"shutdown"}|};
          ignore (read_reply q_fd)))

(* ------------------------------------------------------------------ *)
(* Soak: 64 concurrent clients under churn                              *)
(* ------------------------------------------------------------------ *)

(* Assert [path] is a head-to-tail channel walk [src -> dst] in [g].
   Channel ids are stable across down/up events, so paths served from
   ANY epoch must be valid walks in the pristine graph. *)
let check_walk g ~src ~dst path =
  let die fmt = Printf.ksprintf failwith fmt in
  if Array.length path = 0 then die "empty path %d -> %d" src dst;
  let nc = Graph.num_channels g in
  Array.iter (fun c -> if c < 0 || c >= nc then die "channel %d out of range" c) path;
  let first = Graph.channel g path.(0) in
  if first.Channel.src <> src then die "path starts at node %d, not src %d" first.Channel.src src;
  let last = Graph.channel g path.(Array.length path - 1) in
  if last.Channel.dst <> dst then die "path ends at node %d, not dst %d" last.Channel.dst dst;
  for i = 0 to Array.length path - 2 do
    let a = Graph.channel g path.(i) and b = Graph.channel g path.(i + 1) in
    if a.Channel.dst <> b.Channel.src then
      die "broken walk at hop %d: channel %d ends at %d, channel %d starts at %d" i a.Channel.id
        a.Channel.dst b.Channel.id b.Channel.src
  done

let test_soak_64_clients_under_churn () =
  let g = torus [| 4; 4 |] in
  let num_clients = 64 and queries_per_client = 25 in
  with_server g (fun addr server ->
      let terms = Graph.terminals g in
      let nt = Array.length terms in
      (* (epoch, src, dst) -> (layers, layer, path): replies for the same
         pair served from the same epoch must be identical, whichever
         thread received them — no reply may mix two epochs. *)
      let seen : (int * int * int, int * int * int array) Hashtbl.t = Hashtbl.create 4096 in
      (* every epoch some reader was served, checked against the server's
         history of certified swaps once the churn is over *)
      let epochs_served : (int, unit) Hashtbl.t = Hashtbl.create 16 in
      let seen_mu = Mutex.create () in
      let failures = ref [] in
      let fail_mu = Mutex.create () in
      let record_failure msg =
        Mutex.lock fail_mu;
        failures := msg :: !failures;
        Mutex.unlock fail_mu
      in
      let replies = Atomic.make 0 in
      let reader tid =
        match Service.Client.connect addr with
        | Error msg -> record_failure (Printf.sprintf "reader %d connect: %s" tid msg)
        | Ok c ->
          Fun.protect ~finally:(fun () -> Service.Client.close c) (fun () ->
              let rng = Rng.create (0x50AC + tid) in
              let last_epoch = ref 0 in
              for q = 1 to queries_per_client do
                let src = terms.(Rng.int rng nt) in
                let dst = ref terms.(Rng.int rng nt) in
                while !dst = src do
                  dst := terms.(Rng.int rng nt)
                done;
                let dst = !dst in
                match Service.Client.route c ~src ~dst with
                | Error msg ->
                  record_failure (Printf.sprintf "reader %d query %d: %s" tid q msg)
                | Ok r ->
                  Atomic.incr replies;
                  (try
                     if r.Service.Client.epoch < 1 then failwith "epoch < 1";
                     if r.Service.Client.epoch < !last_epoch then
                       failwith
                         (Printf.sprintf "epoch went back from %d to %d" !last_epoch
                            r.Service.Client.epoch);
                     last_epoch := r.Service.Client.epoch;
                     if r.Service.Client.layer < 0 || r.Service.Client.layer >= r.Service.Client.layers
                     then failwith "layer out of range";
                     check_walk g ~src ~dst r.Service.Client.path;
                     let key = (r.Service.Client.epoch, src, dst) in
                     let entry =
                       (r.Service.Client.layers, r.Service.Client.layer, r.Service.Client.path)
                     in
                     Mutex.lock seen_mu;
                     Hashtbl.replace epochs_served r.Service.Client.epoch ();
                     let prior = Hashtbl.find_opt seen key in
                     (match prior with
                     | None -> Hashtbl.add seen key entry
                     | Some _ -> ());
                     Mutex.unlock seen_mu;
                     match prior with
                     | Some p when p <> entry ->
                       failwith "same (epoch, src, dst) answered two different ways"
                     | _ -> ()
                   with Failure msg ->
                     record_failure
                       (Printf.sprintf "reader %d query %d (%d->%d): %s" tid q src dst msg))
              done)
      in
      let writer () =
        match Service.Client.connect addr with
        | Error msg -> record_failure ("writer connect: " ^ msg)
        | Ok c ->
          Fun.protect ~finally:(fun () -> Service.Client.close c) (fun () ->
              (* Downs and ups only: channel ids stay stable, so reader
                 walk checks against the pristine graph remain sound. *)
              let schedule =
                Fabric.Schedule.generate g ~rng:(Rng.create 99) ~events:12 ()
              in
              List.iter
                (fun ev ->
                  let rec push retries =
                    match Service.Client.event c ev with
                    | Error msg -> record_failure ("writer event: " ^ msg)
                    | Ok (Service.Client.Busy _) when retries > 0 ->
                      Thread.delay 0.002;
                      push (retries - 1)
                    | Ok (Service.Client.Busy _) -> record_failure "writer starved out"
                    | Ok (Service.Client.Applied _) -> ()
                  in
                  push 100;
                  Thread.delay 0.001)
                schedule)
      in
      let threads =
        Thread.create writer ()
        :: List.init num_clients (fun tid -> Thread.create reader tid)
      in
      List.iter Thread.join threads;
      (match !failures with
      | [] -> ()
      | msgs ->
        Alcotest.failf "%d inconsistent replies; first: %s" (List.length msgs)
          (List.nth msgs (List.length msgs - 1)));
      check Alcotest.int "every query answered" (num_clients * queries_per_client)
        (Atomic.get replies);
      (* The churn was real: the fabric moved past its initial epoch. *)
      check Alcotest.bool "epochs advanced under churn" true
        (Fabric.Manager.epoch (Service.Server.manager server) > 1);
      (* And the server counted what it served. *)
      let m = Service.Server.metrics server in
      check Alcotest.bool "route queries counted" true
        (Obs.Counter.value m.Service.Metrics.route_queries >= num_clients * queries_per_client);
      (* Reads were answered at the swaps' pause points too. *)
      check Alcotest.bool "reads served mid-swap" true
        (Obs.Counter.value m.Service.Metrics.reads_in_swap > 0);
      let c = connect addr in
      Fun.protect ~finally:(fun () -> Service.Client.close c) (fun () ->
          (* Every epoch a reader saw passed the certificate: the history
             lists exactly the swaps the epoch gate published. *)
          let published = List.map fst (ok (Service.Client.epoch_history c)) in
          Hashtbl.iter
            (fun e () ->
              if not (List.mem e published) then
                Alcotest.failf "a reader was served epoch %d, which the history lacks" e)
            epochs_served;
          ok (Service.Client.shutdown c)));
  ()

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "service"
    [
      ( "proto",
        [
          Alcotest.test_case "request roundtrip" `Quick test_request_roundtrip;
          Alcotest.test_case "garbage rejected" `Quick test_request_rejects_garbage;
          Alcotest.test_case "frame roundtrip + clean EOF" `Quick test_frame_roundtrip;
          Alcotest.test_case "truncation and oversize refused" `Quick test_frame_truncated_and_oversize;
        ] );
      ( "server",
        [
          Alcotest.test_case "every op end to end" `Quick test_server_end_to_end;
          Alcotest.test_case "existing socket path refused" `Quick test_server_refuses_existing_socket;
          Alcotest.test_case "bad requests answered, not fatal" `Quick test_server_rejects_bad_requests;
          Alcotest.test_case "route reads leave the trace ring to the swaps" `Quick
            test_route_reads_leave_no_spans;
        ] );
      ( "backpressure",
        [ Alcotest.test_case "pipelined overflow shed as busy" `Quick test_backpressure_sheds_load ] );
      ( "soak",
        [ Alcotest.test_case "64 clients under churn" `Slow test_soak_64_clients_under_churn ] );
      ("swap", [ Alcotest.test_case "a read is served during a slow swap" `Slow test_read_served_mid_swap ]);
    ]
