let channel_ref g c =
  (* (neighbour name, occurrence index among parallel cables) *)
  let ch = Graph.channel g c in
  let k = ref 0 in
  Array.iter
    (fun c' ->
      if c' < c && (Graph.channel g c').Channel.dst = ch.Channel.dst then incr k)
    (Graph.out_channels g ch.Channel.src);
  ((Graph.node g ch.Channel.dst).Node.name, !k)

let resolve_channel g ~node ~neighbor ~k =
  let found = ref (-1) in
  let seen = ref 0 in
  Array.iter
    (fun c ->
      let ch = Graph.channel g c in
      if (Graph.node g ch.Channel.dst).Node.name = neighbor then begin
        if !seen = k && !found < 0 then found := c;
        incr seen
      end)
    (Graph.out_channels g node);
  if !found < 0 then None else Some !found

let to_string ft =
  let g = Ftable.graph ft in
  let buf = Buffer.create 8192 in
  Buffer.add_string buf (Printf.sprintf "routing %s layers %d\n" (Ftable.algorithm ft) (Ftable.num_layers ft));
  Buffer.add_string buf (Serial.to_string g);
  Buffer.add_string buf "endtopology\n";
  let name v = (Graph.node g v).Node.name in
  Array.iter
    (fun (nd : Node.t) ->
      Array.iter
        (fun dst ->
          match Ftable.next ft ~node:nd.id ~dst with
          | None -> ()
          | Some c ->
            let via, k = channel_ref g c in
            Buffer.add_string buf (Printf.sprintf "entry %s %s %s %d\n" nd.name (name dst) via k))
        (Graph.terminals g))
    (Graph.nodes g);
  Array.iter
    (fun src ->
      Array.iter
        (fun dst ->
          if src <> dst then begin
            let vl = Ftable.layer ft ~src ~dst in
            if vl > 0 then Buffer.add_string buf (Printf.sprintf "lane %s %s %d\n" (name src) (name dst) vl)
          end)
        (Graph.terminals g))
    (Graph.terminals g);
  Buffer.contents buf

let of_string text =
  let lines = String.split_on_char '\n' text in
  let err lineno fmt = Format.kasprintf (fun s -> Error (Printf.sprintf "line %d: %s" lineno s)) fmt in
  match lines with
  | [] -> err 1 "empty input"
  | header :: rest -> (
    let header_words = List.filter (fun w -> w <> "") (String.split_on_char ' ' header) in
    match header_words with
    | [ "routing"; algorithm; "layers"; layers ] -> (
      match int_of_string_opt layers with
      | None -> err 1 "bad layer count in header"
      | Some num_layers when num_layers < 1 || num_layers > Ftable.max_layer_ids ->
        err 1 "layer count %d outside 1..%d" num_layers Ftable.max_layer_ids
      | Some num_layers -> (
        let rec split acc lineno = function
          | [] -> err lineno "missing 'endtopology'"
          | l :: tl when String.trim l = "endtopology" -> Ok (List.rev acc, tl, lineno + 1)
          | l :: tl -> split (l :: acc) (lineno + 1) tl
        in
        match split [] 2 rest with
        | Error msg -> Error msg
        | Ok (topo_lines, entry_lines, entries_start) -> (
          match Serial.of_string (String.concat "\n" topo_lines) with
          | Error msg -> Error msg
          | Ok g ->
            let ft = Ftable.create g ~algorithm in
            Ftable.set_num_layers ft num_layers;
            let by_name = Hashtbl.create (Graph.num_nodes g) in
            Array.iter (fun (nd : Node.t) -> Hashtbl.replace by_name nd.name nd.id) (Graph.nodes g);
            let rec go lineno = function
              | [] -> Ok ft
              | raw :: tl -> (
                let line = String.trim raw in
                if line = "" || line.[0] = '#' then go (lineno + 1) tl
                else
                  let words = List.filter (fun w -> w <> "") (String.split_on_char ' ' line) in
                  match words with
                  | [ "entry"; node; dst; via; k ] -> (
                    match
                      (Hashtbl.find_opt by_name node, Hashtbl.find_opt by_name dst, int_of_string_opt k)
                    with
                    | Some _, Some dst, _ when not (Graph.is_terminal g dst) ->
                      err lineno "entry destination %s is not a terminal" (Graph.node g dst).Node.name
                    | Some node, Some dst, Some k -> (
                      match resolve_channel g ~node ~neighbor:via ~k with
                      | None -> err lineno "no cable %d to %s" k via
                      | Some c ->
                        Ftable.set_next ft ~node ~dst ~channel:c;
                        go (lineno + 1) tl)
                    | None, _, _ | _, None, _ -> err lineno "unknown node in entry"
                    | _, _, None -> err lineno "bad cable index")
                  | [ "lane"; src; dst; vl ] -> (
                    match (Hashtbl.find_opt by_name src, Hashtbl.find_opt by_name dst, int_of_string_opt vl) with
                    | Some src, Some dst, _ when not (Graph.is_terminal g src && Graph.is_terminal g dst) ->
                      err lineno "lane %s -> %s: both ends must be terminals" (Graph.node g src).Node.name
                        (Graph.node g dst).Node.name
                    | Some src, Some dst, Some vl when vl >= 0 && vl < 256 ->
                      Ftable.set_layer ft ~src ~dst vl;
                      go (lineno + 1) tl
                    | None, _, _ | _, None, _ -> err lineno "unknown node in lane"
                    | _, _, _ -> err lineno "bad lane")
                  | _ -> err lineno "unrecognized directive %S" line)
            in
            go entries_start entry_lines)))
    | _ -> err 1 "bad header (want: routing <algorithm> layers <n>)")

let save path ft =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc (to_string ft))

let load path =
  match In_channel.with_open_text path In_channel.input_all with
  | text -> of_string text
  | exception Sys_error msg -> Error msg
