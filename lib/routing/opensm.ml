let lid_of_node id = id + 1

let guid_prefix = 0x0002c90300000000L

let guid_of_node id = Int64.add guid_prefix (Int64.of_int id)

let port_of_channel g c =
  let src = (Graph.channel g c).Channel.src in
  let out = Graph.out_channels g src in
  let rec find i = if out.(i) = c then i + 1 else find (i + 1) in
  find 0

let lft_dump ft =
  let g = Ftable.graph ft in
  let buf = Buffer.create 4096 in
  let max_lid = lid_of_node (Graph.num_nodes g - 1) in
  Array.iter
    (fun sw ->
      let node = Graph.node g sw in
      Buffer.add_string buf
        (Printf.sprintf "Unicast lids [0x1-0x%X] of switch lid %d guid 0x%016Lx (%s):\n" max_lid
           (lid_of_node sw) (guid_of_node sw) node.Node.name);
      Array.iter
        (fun dst ->
          match Ftable.next ft ~node:sw ~dst with
          | None -> ()
          | Some c ->
            let target = Graph.node g dst in
            Buffer.add_string buf
              (Printf.sprintf "0x%04X %03d : (terminal '%s')\n" (lid_of_node dst) (port_of_channel g c)
                 target.Node.name))
        (Graph.terminals g);
      Buffer.add_char buf '\n')
    (Graph.switches g);
  Buffer.contents buf

let guid_table g =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "lid     guid               kind      name\n";
  Array.iter
    (fun (nd : Node.t) ->
      Buffer.add_string buf
        (Printf.sprintf "0x%04X  0x%016Lx  %-8s  %s\n" (lid_of_node nd.id) (guid_of_node nd.id)
           (Node.kind_to_string nd.kind) nd.name))
    (Graph.nodes g);
  Buffer.contents buf

let sl_dump ft =
  let g = Ftable.graph ft in
  if Ftable.num_layers ft > 16 then invalid_arg "Opensm.sl_dump: more than 16 layers";
  let terminals = Graph.terminals g in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "# service level (virtual lane) per source x destination terminal\n";
  Array.iter
    (fun src ->
      Buffer.add_string buf (Printf.sprintf "0x%04X " (lid_of_node src));
      Array.iter
        (fun dst ->
          if src = dst then Buffer.add_char buf '.'
          else begin
            let vl = Ftable.layer ft ~src ~dst in
            if vl > 15 then invalid_arg "Opensm.sl_dump: layer above 15";
            Buffer.add_char buf "0123456789abcdef".[vl]
          end)
        terminals;
      Buffer.add_char buf '\n')
    terminals;
  Buffer.contents buf

let save_all ~dir ft =
  let write name contents =
    let path = Filename.concat dir name in
    let oc = open_out path in
    Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc contents);
    path
  in
  [
    write "opensm-lfts.dump" (lft_dump ft);
    write "opensm-guids.dump" (guid_table (Ftable.graph ft));
    write "opensm-sl2vl.dump" (sl_dump ft);
  ]
