type kind =
  | Layer_cycle of { layer : int }
  | Topology_core of { min_layers : int }

type t = {
  kind : kind;
  num_channels : int;
  cycle : int array;
  srcs : int array;
  dsts : int array;
}

(* ------------------------------------------------------------------ *)
(* Generation: layer cycles                                            *)
(* ------------------------------------------------------------------ *)

(* Greedy edge-deletion minimization: while the cycle has a chord in the
   layer's CDG, replace it with the strictly shorter cycle through the
   chord. The fixed point is chordless, so removing any single
   dependency from the witness leaves an acyclic remainder. *)
let minimize cdg seq0 =
  let seq = ref seq0 in
  let improved = ref true in
  while !improved do
    improved := false;
    let s = !seq in
    let k = Array.length s in
    if k > 2 then (
      try
        for i = 0 to k - 1 do
          for d = 2 to k - 1 do
            let j = (i + d) mod k in
            if Cdg.live cdg ~c1:s.(i) ~c2:s.(j) then begin
              let len = ((i - j + k) mod k) + 1 in
              if len < k then begin
                seq := Array.init len (fun x -> s.((j + x) mod k));
                improved := true;
                raise Exit
              end
            end
          done
        done
      with Exit -> ())
  done;
  !seq

let of_table ft =
  match Ftable.to_store ft with
  | Error msg -> Error msg
  | Ok store ->
    let layer_of_path = Ftable.pair_layers ft in
    let num_layers =
      Array.fold_left (fun acc l -> max acc (l + 1)) (Ftable.num_layers ft) layer_of_path
    in
    let found = ref None in
    let l = ref 0 in
    while !found = None && !l < num_layers do
      let layer = !l in
      let cdg = Cdg.of_store ~filter:(fun p -> layer_of_path.(p) = layer) store in
      (match Cycle.find cdg with
      | None -> ()
      | Some edges ->
        let seq = minimize cdg (Array.map fst edges) in
        let n = Array.length seq in
        let srcs = Array.make n 0 and dsts = Array.make n 0 in
        for p = 0 to n - 1 do
          let c1 = seq.(p) and c2 = seq.((p + 1) mod n) in
          match Cdg.edge_pairs cdg ~c1 ~c2 with
          | [] -> invalid_arg "Witness.of_table: live cycle edge without an inducing pair"
          | pairs ->
            let pid = List.fold_left min max_int pairs in
            let src, dst = Ftable.pair_of_id ft pid in
            srcs.(p) <- src;
            dsts.(p) <- dst
        done;
        found :=
          Some
            {
              kind = Layer_cycle { layer };
              num_channels = Graph.num_channels (Ftable.graph ft);
              cycle = seq;
              srcs;
              dsts;
            });
      incr l
    done;
    Ok !found

(* ------------------------------------------------------------------ *)
(* Generation: topology cores                                          *)
(* ------------------------------------------------------------------ *)

let of_core g (core : Existence.core) =
  let n = Array.length core.Existence.cycle in
  let hosts = core.Existence.hosts in
  let r = Array.length hosts in
  if core.Existence.bound < 2 || r < 2 then
    Error "Witness.of_core: core does not force more than one layer"
  else begin
    let srcs = Array.make n 0 and dsts = Array.make n 0 in
    let missing = ref None in
    for p = 0 to n - 1 do
      (* the route between consecutive hosts h_i -> h_{i-1} covers every
         pair outside the window [h_{i-1}-1 .. h_i-1]; piercing >= 2
         guarantees some window misses p *)
      let found = ref false in
      let i = ref 0 in
      while (not !found) && !i < r do
        let cur = hosts.(!i) and prev = hosts.((!i + r - 1) mod r) in
        let wstart = ((prev - 1) mod n + n) mod n in
        let wlen = (((cur - prev) mod n + n) mod n) + 1 in
        if ((p - wstart + n) mod n) >= wlen then begin
          srcs.(p) <- core.Existence.host_terminal.(cur);
          dsts.(p) <- core.Existence.host_terminal.(prev);
          found := true
        end;
        incr i
      done;
      if not !found && !missing = None then missing := Some p
    done;
    match !missing with
    | Some p -> Error (Printf.sprintf "Witness.of_core: no host route covers position %d" p)
    | None ->
      Ok
        {
          kind = Topology_core { min_layers = core.Existence.bound };
          num_channels = Graph.num_channels g;
          cycle = Array.copy core.Existence.cycle;
          srcs;
          dsts;
        }
  end

(* ------------------------------------------------------------------ *)
(* Checking (trusted side)                                             *)
(* ------------------------------------------------------------------ *)

let err fmt = Printf.ksprintf (fun s -> Error s) fmt

(* Shared shape checks: cycle length, channel range/distinctness, and
   head-to-tail chaining in the graph. *)
let check_shape w g =
  let m = Graph.num_channels g in
  let n = Array.length w.cycle in
  if w.num_channels <> m then err "witness is for %d channels, graph has %d" w.num_channels m
  else if n < 2 then err "cycle has %d channel(s); need at least 2" n
  else if Array.length w.srcs <> n || Array.length w.dsts <> n then
    err "witness names %d/%d demands for %d positions" (Array.length w.srcs) (Array.length w.dsts) n
  else begin
    let seen = Hashtbl.create n in
    let result = ref (Ok ()) in
    Array.iteri
      (fun i c ->
        if !result = Ok () then
          if c < 0 || c >= m then result := err "position %d: channel %d out of range" i c
          else if Hashtbl.mem seen c then result := err "channel %d appears twice in the cycle" c
          else begin
            Hashtbl.add seen c ();
            if not (Graph.channel_enabled g c) then
              result := err "position %d: channel %d is disabled" i c
            else
              let nxt = w.cycle.((i + 1) mod n) in
              if nxt >= 0 && nxt < m then begin
                let hd = (Graph.channel g c).Channel.dst in
                let tl = (Graph.channel g nxt).Channel.src in
                if hd <> tl then
                  result := err "position %d: head of channel %d is %d, not tail of %d" i c hd nxt
              end
          end)
      w.cycle;
    !result
  end

let ( let* ) r f =
  match r with
  | Ok () -> f ()
  | Error _ as e -> e

(* Only the named routes are walked: a table whose other routes are
   broken can still carry a valid cycle. *)
let check_table w ft =
  match w.kind with
  | Topology_core _ -> Error "topology-core witness: check it against the graph, not a table"
  | Layer_cycle { layer } ->
    let g = Ftable.graph ft in
    let* () = check_shape w g in
    if layer < 0 then err "negative layer %d" layer
    else begin
      let n = Array.length w.cycle in
      let result = ref (Ok ()) in
      for p = 0 to n - 1 do
        if !result = Ok () then begin
          let c1 = w.cycle.(p) and c2 = w.cycle.((p + 1) mod n) in
          let src = w.srcs.(p) and dst = w.dsts.(p) in
          if not (Graph.is_terminal g src && Graph.is_terminal g dst) then
            result := err "position %d: demand (%d, %d) is not a terminal pair" p src dst
          else if src = dst then result := err "position %d: demand source equals destination" p
          else
            match Ftable.path ft ~src ~dst with
            | None -> result := err "position %d: no route for demand (%d, %d)" p src dst
            | Some path ->
              let rides = Ftable.layer ft ~src ~dst in
              if rides <> layer then
                result :=
                  err "position %d: route (%d, %d) rides layer %d, witness claims %d" p src dst rides
                    layer
              else begin
                let induced = ref false in
                for i = 0 to Array.length path - 2 do
                  if path.(i) = c1 && path.(i + 1) = c2 then induced := true
                done;
                if not !induced then
                  result :=
                    err "position %d: route (%d, %d) does not induce dependency (%d, %d)" p src dst
                      c1 c2
              end
        end
      done;
      !result
    end

(* Re-derive the clean-core structure from the graph alone: the cycle
   channels must be the only enabled channels between core nodes, the
   core's strongly-connected neighborhood must split into one component
   per core node once the cycle channels are removed, and every named
   demand must be forced across its dependency pair. The bound is then
   recomputed from the verified hosts with the pure piercing arithmetic,
   so an inflated claim is refused even if the structure checks out. *)
let check_graph w g =
  match w.kind with
  | Layer_cycle _ -> Error "layer-cycle witness: check it against the forwarding table"
  | Topology_core { min_layers } ->
    let* () = check_shape w g in
    if min_layers < 2 then err "claimed minimum %d proves nothing (need >= 2)" min_layers
    else begin
      let n = Array.length w.cycle in
      let num_nodes = Graph.num_nodes g in
      let tail c = (Graph.channel g c).Channel.src in
      let head c = (Graph.channel g c).Channel.dst in
      let rev c = match Graph.reverse_channel g c with Some r -> r | None -> -1 in
      let* () =
        let bad = ref (Ok ()) in
        for i = 0 to n - 1 do
          if !bad = Ok () && w.cycle.((i + 1) mod n) = rev w.cycle.(i) then
            bad :=
              err "position %d: dependency onto the reverse channel (%d, %d) is never induced" i
                w.cycle.(i)
                (w.cycle.((i + 1) mod n))
        done;
        !bad
      in
      (* the core's node SCC: forward/backward reachability from core
         node 0 (all core nodes are mutually reachable along the cycle) *)
      let reach seed next =
        let mark = Array.make num_nodes false in
        let queue = Queue.create () in
        mark.(seed) <- true;
        Queue.add seed queue;
        while not (Queue.is_empty queue) do
          let v = Queue.take queue in
          next v (fun w ->
              if not mark.(w) then begin
                mark.(w) <- true;
                Queue.add w queue
              end)
        done;
        mark
      in
      let fwd =
        reach (tail w.cycle.(0)) (fun v visit ->
            Array.iter (fun c -> visit (head c)) (Graph.out_channels g v))
      in
      let bwd =
        reach (tail w.cycle.(0)) (fun v visit ->
            Array.iter (fun c -> visit (tail c)) (Graph.in_channels g v))
      in
      let in_scc v = fwd.(v) && bwd.(v) in
      (* component labeling: seed core node i with label i, flood over
         enabled non-core channels (both directions) within the SCC; a
         merge of two labels is a bypass and refutes the witness *)
      let is_core = Array.make (Graph.num_channels g) false in
      Array.iter (fun c -> is_core.(c) <- true) w.cycle;
      let label = Array.make num_nodes (-1) in
      let conflict = ref None in
      let queue = Queue.create () in
      Array.iteri
        (fun i c ->
          let v = tail c in
          if label.(v) >= 0 then begin
            if !conflict = None then conflict := Some v
          end
          else begin
            label.(v) <- i;
            Queue.add v queue
          end)
        w.cycle;
      while !conflict = None && not (Queue.is_empty queue) do
        let v = Queue.take queue in
        let lab = label.(v) in
        let visit u =
          if in_scc u then
            if label.(u) < 0 then begin
              label.(u) <- lab;
              Queue.add u queue
            end
            else if label.(u) <> lab then conflict := Some u
        in
        Array.iter (fun c -> if not is_core.(c) then visit (head c)) (Graph.out_channels g v);
        Array.iter (fun c -> if not is_core.(c) then visit (tail c)) (Graph.in_channels g v)
      done;
      match !conflict with
      | Some v -> err "node %d bridges two core components: routes can bypass the core" v
      | None ->
        let result = ref (Ok ()) in
        for p = 0 to n - 1 do
          if !result = Ok () then begin
            let src = w.srcs.(p) and dst = w.dsts.(p) in
            if not (Graph.is_terminal g src && Graph.is_terminal g dst) then
              result := err "position %d: demand (%d, %d) is not a terminal pair" p src dst
            else if not (in_scc src && in_scc dst) then
              result := err "position %d: demand (%d, %d) is not inside the core's SCC" p src dst
            else begin
              let a = label.(src) and b = label.(dst) in
              if a < 0 || b < 0 then
                result := err "position %d: demand terminal outside every core component" p
              else if a = b then
                result := err "position %d: demand stays inside one core component" p
              else begin
                let d = ((b - a) mod n + n) mod n in
                let off = ((p - a) mod n + n) mod n in
                if off > d - 2 then
                  result :=
                    err "position %d: forced route %d -> %d does not cover pair (%d, %d)" p src dst
                      w.cycle.(p)
                      (w.cycle.((p + 1) mod n))
              end
            end
          end
        done;
        let* () = !result in
        (* hosts are re-derived from the fabric itself, not from the
           witness's demand list: a position is a host iff its verified
           component contains a terminal. The recomputed bound therefore
           never depends on which demands the generator happened to
           name, only on the conflict-free labeling above. *)
        let host = Array.make n false in
        Array.iter (fun t -> if label.(t) >= 0 then host.(label.(t)) <- true) (Graph.terminals g);
        let hosts =
          Array.of_list (List.filter (fun i -> host.(i)) (List.init n (fun i -> i)))
        in
        let pierce = Existence.piercing ~n ~hosts in
        if min_layers > pierce then
          err "claimed minimum %d exceeds the recomputed piercing bound %d" min_layers pierce
        else Ok ()
    end

(* ------------------------------------------------------------------ *)
(* Artifacts                                                           *)
(* ------------------------------------------------------------------ *)

let to_string w =
  let buf = Buffer.create 256 in
  let n = Array.length w.cycle in
  (match w.kind with
  | Layer_cycle { layer } ->
    Buffer.add_string buf
      (Printf.sprintf "witness v1 kind layer channels %d length %d layer %d\n" w.num_channels n
         layer)
  | Topology_core { min_layers } ->
    Buffer.add_string buf
      (Printf.sprintf "witness v1 kind core channels %d length %d min-layers %d\n" w.num_channels n
         min_layers));
  Buffer.add_string buf "cycle";
  Array.iter (fun c -> Buffer.add_string buf (Printf.sprintf " %d" c)) w.cycle;
  Buffer.add_char buf '\n';
  for p = 0 to n - 1 do
    Buffer.add_string buf (Printf.sprintf "dep %d %d %d\n" p w.srcs.(p) w.dsts.(p))
  done;
  Buffer.add_string buf "end\n";
  Buffer.contents buf
