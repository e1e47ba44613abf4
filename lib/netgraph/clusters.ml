type system = {
  name : string;
  graph : Graph.t;
  description : string;
}

let scaled scale n = max 1 (n / scale)

(* A director ("big") switch is internally a 2-level Clos of 24-port chips:
   leaf chips expose 12 external ports and 12 uplinks spread over the spine
   chips. Returns the leaf-chip ids and a [next_port] function cycling over
   them, which callers use to attach terminals or trunk cables. *)
let director b ~name ~external_ports =
  if external_ports < 12 then invalid_arg "Clusters.director: too small";
  let leaf_chips = (external_ports + 11) / 12 in
  let spine_chips = max 1 (leaf_chips / 2) in
  let cables_per_pair = max 1 (12 / spine_chips) in
  let leaves = Array.init leaf_chips (fun i -> Builder.add_switch b ~name:(Printf.sprintf "%s_leaf%d" name i)) in
  let spines = Array.init spine_chips (fun i -> Builder.add_switch b ~name:(Printf.sprintf "%s_spine%d" name i)) in
  Array.iter
    (fun leaf ->
      Array.iter
        (fun spine ->
          for _ = 1 to cables_per_pair do
            let (_ : int * int) = Builder.add_link b leaf spine in
            ()
          done)
        spines)
    leaves;
  (* Terminals spread round-robin from the first leaf chip; trunk cables
     pack onto consecutive ports from the last chip backwards (patch
     panels put trunks on adjacent line boards), concentrating trunk
     traffic on few chips as on the real directors. *)
  let cursor = ref 0 in
  let next_port () =
    let leaf = leaves.(!cursor mod leaf_chips) in
    incr cursor;
    leaf
  in
  let trunk_cursor = ref 0 in
  let next_trunk_port () =
    let leaf = leaves.(leaf_chips - 1 - (!trunk_cursor / 12 mod leaf_chips)) in
    incr trunk_cursor;
    leaf
  in
  (leaves, next_port, next_trunk_port)

let attach_terminals b next_port ~prefix ~count =
  for i = 0 to count - 1 do
    let (_ : int) = Builder.add_terminal b ~name:(Printf.sprintf "%s%d" prefix i) ~switch:(next_port ()) in
    ()
  done

let trunk b next_port_a next_port_b ~cables =
  for _ = 1 to cables do
    let (_ : int * int) = Builder.add_link b (next_port_a ()) (next_port_b ()) in
    ()
  done

let odin ?(scale = 1) () =
  let nodes = scaled scale 128 in
  let b = Builder.create () in
  let _, port, _ = director b ~name:"odin" ~external_ports:144 in
  attach_terminals b port ~prefix:"n" ~count:nodes;
  {
    name = "Odin";
    graph = Builder.build b;
    description =
      Printf.sprintf "%d nodes, one 144-port director (pure 2-level Clos)" nodes;
  }

let deimos ?(scale = 1) () =
  let nodes = scaled scale 724 in
  let trunk_cables = max 1 (15 / scale) in
  let b = Builder.create () in
  let _, pa, ta = director b ~name:"d1" ~external_ports:288 in
  let _, pb, tb = director b ~name:"d2" ~external_ports:288 in
  let _, pc, tc = director b ~name:"d3" ~external_ports:288 in
  (* Chain d1 - d2 - d3, 15 cables per hop (paper Fig. 11: 30 links total). *)
  trunk b ta tb ~cables:trunk_cables;
  trunk b tb tc ~cables:trunk_cables;
  let third = nodes / 3 in
  attach_terminals b pa ~prefix:"a" ~count:(nodes - (2 * third));
  attach_terminals b pb ~prefix:"b" ~count:third;
  attach_terminals b pc ~prefix:"c" ~count:third;
  {
    name = "Deimos";
    graph = Builder.build b;
    description =
      Printf.sprintf "%d nodes, three 288-port directors chained by 2x%d trunks" nodes trunk_cables;
  }

let chic ?(scale = 1) () =
  let nodes = scaled scale 542 and service = if scale = 1 then 8 else 2 in
  let b = Builder.create () in
  let leaf_count = (nodes + 11) / 12 in
  let spine_count = 12 in
  let leaves = Array.init leaf_count (fun i -> Builder.add_switch b ~name:(Printf.sprintf "leaf%d" i)) in
  let spines = Array.init spine_count (fun i -> Builder.add_switch b ~name:(Printf.sprintf "spine%d" i)) in
  Array.iter
    (fun leaf ->
      Array.iter
        (fun spine ->
          let (_ : int * int) = Builder.add_link b leaf spine in
          ())
        spines)
    leaves;
  for i = 0 to nodes - 1 do
    let (_ : int) = Builder.add_terminal b ~name:(Printf.sprintf "n%d" i) ~switch:leaves.(i mod leaf_count) in
    ()
  done;
  (* Service nodes hang off dedicated switches that are double-homed into
     the spine level with redundant cables — the irregularity the paper
     points out in real installations. *)
  let svc_sw = Builder.add_switch b ~name:"svc0" and svc_sw2 = Builder.add_switch b ~name:"svc1" in
  for j = 0 to 3 do
    let (_ : int * int) = Builder.add_link b svc_sw spines.(j) in
    let (_ : int * int) = Builder.add_link b svc_sw2 spines.(spine_count - 1 - j) in
    ()
  done;
  let (_ : int * int) = Builder.add_link b svc_sw svc_sw2 in
  for i = 0 to service - 1 do
    let sw = if i mod 2 = 0 then svc_sw else svc_sw2 in
    let (_ : int) = Builder.add_terminal b ~name:(Printf.sprintf "svc%d" i) ~switch:sw in
    ()
  done;
  {
    name = "CHiC";
    graph = Builder.build b;
    description =
      Printf.sprintf "%d compute + %d service nodes, 2-level fat tree with double-homed service switches" nodes
        service;
  }

let juropa ?(scale = 1) () =
  let nodes = scaled scale 3288 in
  let b = Builder.create () in
  let per_leaf = 24 in
  let leaf_count = (nodes + per_leaf - 1) / per_leaf in
  let spine_count = max 4 (min 18 (leaf_count / 4)) in
  let leaves = Array.init leaf_count (fun i -> Builder.add_switch b ~name:(Printf.sprintf "leaf%d" i)) in
  let spines = Array.init spine_count (fun i -> Builder.add_switch b ~name:(Printf.sprintf "spine%d" i)) in
  (* Striped (sliding-window) uplinks: leaf i connects to 12 of the spines
     starting at spine (i mod spine_count) — a 2:1-oversubscribed fat tree
     that is not a clean XGFT, matching JUROPA's QNEM wiring style. *)
  let uplinks = min 12 spine_count in
  Array.iteri
    (fun i leaf ->
      for j = 0 to uplinks - 1 do
        let (_ : int * int) = Builder.add_link b leaf spines.((i + j) mod spine_count) in
        ()
      done)
    leaves;
  for i = 0 to nodes - 1 do
    let (_ : int) = Builder.add_terminal b ~name:(Printf.sprintf "n%d" i) ~switch:leaves.(i mod leaf_count) in
    ()
  done;
  {
    name = "JUROPA";
    graph = Builder.build b;
    description = Printf.sprintf "%d nodes, striped 2-level fat tree (%d leaves, %d spines)" nodes leaf_count spine_count;
  }

let ranger ?(scale = 1) () =
  let nodes = scaled scale 3936 in
  let b = Builder.create () in
  let per_chassis = 12 in
  let chassis_count = (nodes + per_chassis - 1) / per_chassis in
  let magnum_ports = max 24 (chassis_count * 4) in
  let _, pa, _ = director b ~name:"magnum1" ~external_ports:magnum_ports in
  let _, pb, _ = director b ~name:"magnum2" ~external_ports:magnum_ports in
  (* Each chassis switch splits its uplinks between the two Magnums; the
     Magnums have no direct trunk (Ranger's NEM wiring). *)
  for c = 0 to chassis_count - 1 do
    let ch = Builder.add_switch b ~name:(Printf.sprintf "chassis%d" c) in
    for _ = 1 to 4 do
      let (_ : int * int) = Builder.add_link b ch (pa ()) in
      let (_ : int * int) = Builder.add_link b ch (pb ()) in
      ()
    done;
    let first = c * per_chassis in
    let last = min nodes (first + per_chassis) - 1 in
    for i = first to last do
      let (_ : int) = Builder.add_terminal b ~name:(Printf.sprintf "n%d" i) ~switch:ch in
      ()
    done
  done;
  {
    name = "Ranger";
    graph = Builder.build b;
    description =
      Printf.sprintf "%d nodes, %d chassis double-homed to two Magnum directors" nodes chassis_count;
  }

let tsubame ?(scale = 1) () =
  let nodes = scaled scale 1430 in
  let islands = 6 in
  let trunk_cables = max 1 (12 / scale) in
  let b = Builder.create () in
  let edge =
    Array.init islands (fun i ->
        let _, port, tport = director b ~name:(Printf.sprintf "edge%d" i) ~external_ports:288 in
        (port, tport))
  in
  let _, _, core1 = director b ~name:"core1" ~external_ports:288 in
  let _, _, core2 = director b ~name:"core2" ~external_ports:288 in
  Array.iter
    (fun (_, tport) ->
      trunk b tport core1 ~cables:trunk_cables;
      trunk b tport core2 ~cables:trunk_cables)
    edge;
  let per_island = nodes / islands in
  let rest = nodes - (per_island * islands) in
  Array.iteri
    (fun i (port, _) ->
      let count = per_island + if i < rest then 1 else 0 in
      attach_terminals b port ~prefix:(Printf.sprintf "i%dn" i) ~count)
    edge;
  {
    name = "Tsubame";
    graph = Builder.build b;
    description =
      Printf.sprintf "%d nodes, %d director islands trunked through 2 core directors" nodes islands;
  }

let all ?(scale = 1) () =
  [ chic ~scale (); juropa ~scale (); odin ~scale (); ranger ~scale (); tsubame ~scale (); deimos ~scale () ]

let by_name ?(scale = 1) name =
  let systems : (string * (?scale:int -> unit -> system)) list =
    [ ("chic", chic); ("juropa", juropa); ("odin", odin); ("ranger", ranger); ("tsubame", tsubame); ("deimos", deimos) ]
  in
  Option.map
    (fun (make : ?scale:int -> unit -> system) -> make ~scale ())
    (List.assoc_opt (String.lowercase_ascii name) systems)
