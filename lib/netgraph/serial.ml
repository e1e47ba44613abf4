let to_string g =
  let buf = Buffer.create 4096 in
  Array.iter
    (fun (nd : Node.t) ->
      if Node.is_switch nd then Buffer.add_string buf (Printf.sprintf "switch %s\n" nd.name))
    (Graph.nodes g);
  Array.iter
    (fun (nd : Node.t) ->
      if Node.is_terminal nd then begin
        let c = Graph.channel g (Graph.out_channels g nd.id).(0) in
        let sw = Graph.node g c.Channel.dst in
        Buffer.add_string buf (Printf.sprintf "terminal %s %s\n" nd.name sw.Node.name)
      end)
    (Graph.nodes g);
  (* Each cable appears as two paired channels; emit once, counting
     multiplicity between switch pairs. *)
  let counts = Hashtbl.create 256 in
  Array.iter
    (fun (c : Channel.t) ->
      let a = Graph.node g c.src and b = Graph.node g c.dst in
      if Node.is_switch a && Node.is_switch b then
        match Graph.reverse_channel g c.id with
        | Some r when r < c.id -> () (* counted on the partner *)
        | _ ->
          let key = (a.Node.name, b.Node.name) in
          Hashtbl.replace counts key (1 + Option.value ~default:0 (Hashtbl.find_opt counts key)))
    (Graph.channels g);
  let entries = Hashtbl.fold (fun k v acc -> (k, v) :: acc) counts [] in
  List.iter
    (fun ((a, b), n) -> Buffer.add_string buf (Printf.sprintf "link %s %s %d\n" a b n))
    (List.sort compare entries);
  Buffer.contents buf

let of_string text =
  let builder = Builder.create () in
  let names = Hashtbl.create 256 in
  let err line fmt = Format.kasprintf (fun s -> Error (Printf.sprintf "line %d: %s" line s)) fmt in
  let lines = String.split_on_char '\n' text in
  let rec go lineno = function
    | [] -> Ok (Builder.build builder)
    | raw :: rest -> (
      let line = String.trim raw in
      if line = "" || line.[0] = '#' then go (lineno + 1) rest
      else
        let words = List.filter (fun w -> w <> "") (String.split_on_char ' ' line) in
        match words with
        | [ "switch"; name ] ->
          if Hashtbl.mem names name then err lineno "duplicate node name %s" name
          else begin
            Hashtbl.replace names name (Builder.add_switch builder ~name);
            go (lineno + 1) rest
          end
        | [ "terminal"; name; sw ] -> (
          if Hashtbl.mem names name then err lineno "duplicate node name %s" name
          else
            match Hashtbl.find_opt names sw with
            | None -> err lineno "unknown switch %s" sw
            | Some swid ->
              Hashtbl.replace names name (Builder.add_terminal builder ~name ~switch:swid);
              go (lineno + 1) rest)
        | "link" :: a :: b :: mult -> (
          let mult =
            match mult with
            | [] -> Ok 1
            | [ m ] -> (
              match int_of_string_opt m with
              | Some v when v > Builder.max_multiplicity ->
                Error
                  (Printf.sprintf "multiplicity %d exceeds the limit of %d" v Builder.max_multiplicity)
              | Some v when v >= 1 -> Ok v
              | _ -> Error "bad multiplicity")
            | _ -> Error "bad multiplicity"
          in
          match (mult, Hashtbl.find_opt names a, Hashtbl.find_opt names b) with
          | Error msg, _, _ -> err lineno "%s" msg
          | _, None, _ -> err lineno "unknown node %s" a
          | _, _, None -> err lineno "unknown node %s" b
          | Ok m, Some ida, Some idb ->
            if ida = idb then err lineno "self link on %s" a
            else begin
              for _ = 1 to m do
                let (_ : int * int) = Builder.add_link builder ida idb in
                ()
              done;
              go (lineno + 1) rest
            end)
        | _ -> err lineno "unrecognized directive %S" line)
  in
  go 1 lines

let load path =
  match In_channel.with_open_text path In_channel.input_all with
  | text -> of_string text
  | exception Sys_error msg -> Error msg
