type t = {
  nodes : Node.t array;
  channels : Channel.t array;
  out_channels : int array array;
  in_channels : int array array;
  switches : int array;
  terminals : int array;
  reverse : int array; (* channel id -> paired opposite channel id, or -1 *)
  enabled : bool array; (* channel id -> carried in the adjacency arrays *)
  heads : int array; (* channel id -> dst node *)
  tails : int array; (* channel id -> src node *)
  attached : int array; (* node id -> the one node a single-homed terminal is cabled to, or -1 *)
  leaving_start : int array; (* node id -> first index into [leaving]; length n+1 *)
  leaving : int array; (* the channels leaving each node, disabled ones included, in id order *)
  turn_slot : int array; (* channel id -> its index among the channels leaving its source *)
  turn_base : int array; (* channel id -> first id of the turns out of it; length m+1 *)
}

let num_nodes g = Array.length g.nodes

let num_channels g = Array.length g.channels

let nodes g = g.nodes

let channels g = g.channels

let node g i = g.nodes.(i)

let channel g i = g.channels.(i)

let out_channels g v = g.out_channels.(v)

let in_channels g v = g.in_channels.(v)

let switches g = g.switches

let terminals g = g.terminals

let num_switches g = Array.length g.switches

let num_terminals g = Array.length g.terminals

let reverse_channel g c = if g.reverse.(c) < 0 then None else Some g.reverse.(c)

let is_switch g v = Node.is_switch g.nodes.(v)

let is_terminal g v = Node.is_terminal g.nodes.(v)

let heads g = g.heads

let tails g = g.tails

let attached g = g.attached

let leaving_start g = g.leaving_start

let leaving g = g.leaving

let turn_slot g = g.turn_slot

let turn_base g = g.turn_base

(* Channels grouped by source node with a counting sort (so in id order
   within a node), then turn ids: the turns out of c1 are one per channel
   leaving the node c1 enters, numbered from [turn_base.(c1)]. *)
let turns_of ~num_nodes:n ~heads ~tails =
  let m = Array.length tails in
  let lstart = Array.make (n + 1) 0 and slot = Array.make m 0 in
  for c = 0 to m - 1 do
    let v = tails.(c) in
    slot.(c) <- lstart.(v + 1);
    lstart.(v + 1) <- lstart.(v + 1) + 1
  done;
  for v = 0 to n - 1 do
    lstart.(v + 1) <- lstart.(v + 1) + lstart.(v)
  done;
  let leaving = Array.make m 0 in
  for c = 0 to m - 1 do
    leaving.(lstart.(tails.(c)) + slot.(c)) <- c
  done;
  let base = Array.make (m + 1) 0 in
  for c = 0 to m - 1 do
    let v = heads.(c) in
    base.(c + 1) <- base.(c) + lstart.(v + 1) - lstart.(v)
  done;
  (lstart, leaving, slot, base)

let adjacency_of ~num_nodes:n ~channels ~enabled =
  (* the mask is indexed by array position (= id on well-formed graphs):
     malformed channel records must still construct so validate can
     report them *)
  let out_count = Array.make n 0 and in_count = Array.make n 0 in
  Array.iteri
    (fun i (c : Channel.t) ->
      if enabled.(i) then begin
        out_count.(c.src) <- out_count.(c.src) + 1;
        in_count.(c.dst) <- in_count.(c.dst) + 1
      end)
    channels;
  let out_channels = Array.init n (fun v -> Array.make out_count.(v) 0) in
  let in_channels = Array.init n (fun v -> Array.make in_count.(v) 0) in
  let out_fill = Array.make n 0 and in_fill = Array.make n 0 in
  Array.iteri
    (fun i (c : Channel.t) ->
      if enabled.(i) then begin
        out_channels.(c.src).(out_fill.(c.src)) <- c.id;
        out_fill.(c.src) <- out_fill.(c.src) + 1;
        in_channels.(c.dst).(in_fill.(c.dst)) <- c.id;
        in_fill.(c.dst) <- in_fill.(c.dst) + 1
      end)
    channels;
  (out_channels, in_channels)

(* A terminal whose enabled channels, both ways, all join it to one
   other node [s] is attached to [s]; every other node is attached to
   nothing (-1), isolated terminals included. *)
let attached_of ~nodes ~heads ~tails ~out_channels ~in_channels =
  Array.mapi
    (fun v nd ->
      if not (Node.is_terminal nd) then -1
      else begin
        let s = ref (-1) and ok = ref true in
        let meet w = if w = v || (!s >= 0 && w <> !s) then ok := false else s := w in
        Array.iter (fun c -> meet heads.(c)) out_channels.(v);
        Array.iter (fun c -> meet tails.(c)) in_channels.(v);
        if !ok then !s else -1
      end)
    nodes

let make ~nodes ~channels ~reverse =
  let n = Array.length nodes in
  let enabled = Array.make (Array.length channels) true in
  let out_channels, in_channels = adjacency_of ~num_nodes:n ~channels ~enabled in
  let switches =
    Array.of_list
      (Array.fold_right (fun (nd : Node.t) acc -> if Node.is_switch nd then nd.id :: acc else acc) nodes [])
  in
  let terminals =
    Array.of_list
      (Array.fold_right (fun (nd : Node.t) acc -> if Node.is_terminal nd then nd.id :: acc else acc) nodes [])
  in
  let heads = Array.map (fun (c : Channel.t) -> c.dst) channels in
  let tails = Array.map (fun (c : Channel.t) -> c.src) channels in
  let attached = attached_of ~nodes ~heads ~tails ~out_channels ~in_channels in
  let leaving_start, leaving, turn_slot, turn_base = turns_of ~num_nodes:n ~heads ~tails in
  {
    nodes;
    channels;
    out_channels;
    in_channels;
    switches;
    terminals;
    reverse;
    enabled;
    heads;
    tails;
    attached;
    leaving_start;
    leaving;
    turn_slot;
    turn_base;
  }

let channel_enabled g c = g.enabled.(c)

let with_enabled g ~enabled =
  if Array.length enabled <> num_channels g then invalid_arg "Graph.with_enabled: mask size";
  let enabled = Array.copy enabled in
  let out_channels, in_channels = adjacency_of ~num_nodes:(num_nodes g) ~channels:g.channels ~enabled in
  let attached = attached_of ~nodes:g.nodes ~heads:g.heads ~tails:g.tails ~out_channels ~in_channels in
  { g with out_channels; in_channels; enabled; attached }

let bfs_dist g src =
  let n = num_nodes g in
  let dist = Array.make n max_int in
  let queue = Queue.create () in
  dist.(src) <- 0;
  Queue.add src queue;
  while not (Queue.is_empty queue) do
    let u = Queue.take queue in
    let du = dist.(u) in
    Array.iter
      (fun c ->
        let v = g.channels.(c).Channel.dst in
        if dist.(v) = max_int then begin
          dist.(v) <- du + 1;
          Queue.add v queue
        end)
      g.out_channels.(u)
  done;
  dist

let connected g =
  let n = num_nodes g in
  if n = 0 then true
  else begin
    let dist = bfs_dist g 0 in
    let ok = ref (Array.for_all (fun d -> d < max_int) dist) in
    (* Directed graphs also need reverse reachability; check by BFS on the
       reversed adjacency. *)
    if !ok then begin
      let rdist = Array.make n max_int in
      let queue = Queue.create () in
      rdist.(0) <- 0;
      Queue.add 0 queue;
      while not (Queue.is_empty queue) do
        let u = Queue.take queue in
        Array.iter
          (fun c ->
            let v = g.channels.(c).Channel.src in
            if rdist.(v) = max_int then begin
              rdist.(v) <- rdist.(u) + 1;
              Queue.add v queue
            end)
          g.in_channels.(u)
      done;
      ok := Array.for_all (fun d -> d < max_int) rdist
    end;
    !ok
  end

let diameter g =
  if num_nodes g = 0 then invalid_arg "Graph.diameter: empty graph";
  let best = ref 0 in
  Array.iter
    (fun (nd : Node.t) ->
      let dist = bfs_dist g nd.id in
      Array.iter
        (fun d ->
          if d = max_int then invalid_arg "Graph.diameter: disconnected graph";
          if d > !best then best := d)
        dist)
    g.nodes;
  !best

let degree g v = Array.length g.out_channels.(v)

let validate g =
  let err fmt = Format.kasprintf (fun s -> Error s) fmt in
  let n = num_nodes g and m = num_channels g in
  let check_nodes () =
    let rec go i =
      if i >= n then Ok ()
      else if g.nodes.(i).Node.id <> i then err "node %d carries id %d" i g.nodes.(i).Node.id
      else go (i + 1)
    in
    go 0
  in
  let check_channels () =
    let rec go i =
      if i >= m then Ok ()
      else
        let c = g.channels.(i) in
        if c.Channel.id <> i then err "channel %d carries id %d" i c.Channel.id
        else if c.Channel.src < 0 || c.Channel.src >= n then err "channel %d: bad src %d" i c.Channel.src
        else if c.Channel.dst < 0 || c.Channel.dst >= n then err "channel %d: bad dst %d" i c.Channel.dst
        else if c.Channel.src = c.Channel.dst then err "channel %d: self loop at %d" i c.Channel.src
        else go (i + 1)
    in
    go 0
  in
  let check_reverse () =
    let rec go i =
      if i >= m then Ok ()
      else
        let r = g.reverse.(i) in
        if r < 0 then go (i + 1)
        else if r >= m then err "channel %d: reverse out of range" i
        else
          let c = g.channels.(i) and c' = g.channels.(r) in
          if g.reverse.(r) <> i then err "channel %d: reverse not symmetric" i
          else if c.Channel.src <> c'.Channel.dst || c.Channel.dst <> c'.Channel.src then
            err "channel %d: reverse %d is not the opposite direction" i r
          else go (i + 1)
    in
    go 0
  in
  let check_terminals () =
    let ok = ref (Ok ()) in
    Array.iter
      (fun tid ->
        match !ok with
        | Error _ -> ()
        | Ok () ->
          let outs = g.out_channels.(tid) in
          if Array.length outs <> 1 then ok := err "terminal %d has %d outgoing channels (want 1)" tid (Array.length outs)
          else begin
            let c = g.channels.(outs.(0)) in
            if not (is_switch g c.Channel.dst) then ok := err "terminal %d attached to non-switch %d" tid c.Channel.dst
            else if Array.length g.in_channels.(tid) <> 1 then
              ok := err "terminal %d has %d incoming channels (want 1)" tid (Array.length g.in_channels.(tid))
          end)
      g.terminals;
    !ok
  in
  let ( >>= ) r f = match r with Ok () -> f () | Error _ as e -> e in
  check_nodes () >>= check_channels >>= check_reverse >>= check_terminals

let pp_stats ppf g =
  Format.fprintf ppf "nodes=%d (switches=%d terminals=%d) channels=%d" (num_nodes g) (num_switches g)
    (num_terminals g) (num_channels g)
