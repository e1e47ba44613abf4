type hop_budget =
  [ `Minimal
  | `Slack of int
  ]

(* Walk statuses, memoized per destination over all nodes. *)
let st_unknown = -2

let st_visiting = -1

let st_reach = 0

let st_missing = 1 (* A001 *)

let st_loop = 2 (* A002 *)

let st_bad_port = 3 (* A003, counted at the entry level *)

let st_dead = 4 (* A005, counted at the entry level *)

let valid_channel g ~node c =
  c >= 0 && c < Graph.num_channels g && (Graph.channel g c).Channel.src = node

(* Hop distance of every node TO dst over the enabled adjacency (reverse
   BFS), for the hop-budget rule. *)
let dist_to g dst =
  let dist = Array.make (Graph.num_nodes g) max_int in
  let queue = Queue.create () in
  dist.(dst) <- 0;
  Queue.add dst queue;
  while not (Queue.is_empty queue) do
    let v = Queue.take queue in
    Array.iter
      (fun c ->
        let u = (Graph.channel g c).Channel.src in
        if dist.(u) = max_int then begin
          dist.(u) <- dist.(v) + 1;
          Queue.add u queue
        end)
      (Graph.in_channels g v)
  done;
  dist

(* Per-(rule, dst) aggregation: count plus the first offender's detail. *)
type agg = {
  mutable n : int;
  mutable first : string;
}

let agg () = { n = 0; first = "" }

let hit a detail =
  if a.n = 0 then a.first <- detail;
  a.n <- a.n + 1

let flush ?dst acc rule a = if a.n > 0 then acc := Diag.finding ?dst ~count:a.n rule a.first :: !acc

let table ?hop_budget ?graph ft =
  let g = Option.value graph ~default:(Ftable.graph ft) in
  let num_nodes = Graph.num_nodes g and terminals = Graph.terminals g in
  let num_layers = Ftable.num_layers ft in
  let findings = ref [] in
  let status = Array.make num_nodes st_unknown in
  let hops = Array.make num_nodes 0 in
  Array.iter
    (fun dst ->
      let a001 = agg () and a002 = agg () and a003 = agg () in
      let a004 = agg () and a005 = agg () and a006 = agg () in
      (* entry-level scan: every node's entry toward dst *)
      for node = 0 to num_nodes - 1 do
        match Ftable.next ft ~node ~dst with
        | None -> ()
        | Some c ->
          if not (valid_channel g ~node c) then
            hit a003 (Printf.sprintf "node %d forwards to channel %d, which does not leave it" node c)
          else if not (Graph.channel_enabled g c) then
            hit a005 (Printf.sprintf "node %d forwards into disabled channel %d" node c)
      done;
      (* walk-level: resolve the functional graph of dst lazily *)
      Array.fill status 0 num_nodes st_unknown;
      let rec walk n =
        if n = dst then (st_reach, 0)
        else if status.(n) = st_visiting then (st_loop, 0)
        else if status.(n) <> st_unknown then (status.(n), hops.(n))
        else
          match Ftable.next ft ~node:n ~dst with
          | None ->
            status.(n) <- st_missing;
            (st_missing, 0)
          | Some c ->
            if not (valid_channel g ~node:n c) then begin
              status.(n) <- st_bad_port;
              (st_bad_port, 0)
            end
            else if not (Graph.channel_enabled g c) then begin
              status.(n) <- st_dead;
              (st_dead, 0)
            end
            else begin
              status.(n) <- st_visiting;
              let code, h = walk (Graph.channel g c).Channel.dst in
              if code = st_reach then begin
                status.(n) <- st_reach;
                hops.(n) <- h + 1;
                (st_reach, h + 1)
              end
              else begin
                (* inherit the first defect downstream; a node inside or
                   upstream of a cycle never delivers *)
                status.(n) <- code;
                (code, 0)
              end
            end
      in
      let dist = match hop_budget with None -> [||] | Some _ -> dist_to g dst in
      Array.iter
        (fun src ->
          if src <> dst then begin
            (match walk src with
            | code, _ when code = st_missing ->
              hit a001 (Printf.sprintf "terminal %d starves toward %d at a missing entry" src dst)
            | code, _ when code = st_loop ->
              hit a002 (Printf.sprintf "terminal %d enters a forwarding loop toward %d" src dst)
            | code, h when code = st_reach -> (
              match hop_budget with
              | None -> ()
              | Some budget ->
                let slack = match budget with `Minimal -> 0 | `Slack s -> s in
                if dist.(src) < max_int && h > dist.(src) + slack then
                  hit a006
                    (Printf.sprintf "route %d -> %d takes %d hops, budget %d" src dst h (dist.(src) + slack)))
            | _ -> () (* st_bad_port / st_dead: charged at the entry level *));
            let l = Ftable.layer ft ~src ~dst in
            if l < 0 || l >= num_layers then
              hit a004
                (Printf.sprintf "route %d -> %d rides layer %d of a %d-layer table" src dst l num_layers)
          end)
        terminals;
      (* prepend in id order; the final List.rev yields destinations in
         terminal order and rules in id order within each *)
      flush ~dst findings Diag.a001_unreachable_dest a001;
      flush ~dst findings Diag.a002_forwarding_loop a002;
      flush ~dst findings Diag.a003_port_range a003;
      flush ~dst findings Diag.a004_layer_transition a004;
      flush ~dst findings Diag.a005_dead_entry a005;
      flush ~dst findings Diag.a006_nonminimal a006)
    terminals;
  List.rev !findings
