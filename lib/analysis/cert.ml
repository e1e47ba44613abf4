type t = {
  num_channels : int;
  layers : int array array;
}

let num_layers t = Array.length t.layers

type error =
  | Incomplete of string
  | Cycle of {
      layer : int;
      stuck : int;
    }

let error_to_string = function
  | Incomplete msg -> Printf.sprintf "nothing to certify: %s" msg
  | Cycle { layer; stuck } ->
    Printf.sprintf "layer %d: channel dependency cycle (%d channel(s) unsortable)" layer stuck

(* One topological numbering per layer, each by Kahn's algorithm over a
   throwaway CSR adjacency built straight from the store's dependencies —
   deliberately NOT Deadlock.Cdg: the certifier must not share code with
   the machinery it certifies. The loops read the route arena directly
   (the dependencies of a slice are the consecutive [buf.(i), buf.(i+1)]).
   Multi-edges are kept (indegree counts multiplicity); they change
   nothing about the order. *)
let generate store ~layer_of_path ~num_layers =
  if num_layers < 1 then invalid_arg "Cert.generate: num_layers < 1";
  if Array.length layer_of_path <> Route_store.capacity store then
    invalid_arg "Cert.generate: layer_of_path does not cover the store";
  let g = Route_store.graph store in
  let m = Graph.num_channels g in
  let buf = Route_store.buffer store
  and off = Route_store.offsets store
  and len = Route_store.lengths store in
  let failure = ref None in
  let layers =
    Array.init num_layers (fun l ->
        match !failure with
        | Some _ -> [||]
        | None ->
          let row = Array.make (m + 1) 0 in
          for pair = 0 to Array.length len - 1 do
            if len.(pair) >= 0 && layer_of_path.(pair) = l then
              for i = off.(pair) to off.(pair) + len.(pair) - 2 do
                row.(buf.(i) + 1) <- row.(buf.(i) + 1) + 1
              done
          done;
          for c = 0 to m - 1 do
            row.(c + 1) <- row.(c + 1) + row.(c)
          done;
          let col = Array.make row.(m) 0 in
          let cursor = Array.copy row in
          let indeg = Array.make m 0 in
          for pair = 0 to Array.length len - 1 do
            if len.(pair) >= 0 && layer_of_path.(pair) = l then
              for i = off.(pair) to off.(pair) + len.(pair) - 2 do
                let c1 = buf.(i) and c2 = buf.(i + 1) in
                col.(cursor.(c1)) <- c2;
                cursor.(c1) <- cursor.(c1) + 1;
                indeg.(c2) <- indeg.(c2) + 1
              done
          done;
          let pos = Array.make m 0 in
          let queue = Queue.create () in
          for c = 0 to m - 1 do
            if indeg.(c) = 0 then Queue.add c queue
          done;
          let k = ref 0 in
          while not (Queue.is_empty queue) do
            let c = Queue.take queue in
            pos.(c) <- !k;
            incr k;
            for s = row.(c) to cursor.(c) - 1 do
              let c2 = col.(s) in
              indeg.(c2) <- indeg.(c2) - 1;
              if indeg.(c2) = 0 then Queue.add c2 queue
            done
          done;
          if !k < m then begin
            failure := Some (Cycle { layer = l; stuck = m - !k });
            [||]
          end
          else pos)
  in
  match !failure with
  | Some e -> Error e
  | None -> Ok { num_channels = m; layers }

let artifacts_of_table ft =
  match Ftable.to_store ft with
  | Error _ as e -> e
  | Ok store -> Ok (store, Ftable.layers_of_store ft store)

(* Layers cover both the declared layer count and the highest layer any
   route uses. *)
let of_artifacts ft store ~layer_of_path =
  generate store ~layer_of_path
    ~num_layers:(max (Ftable.num_layers ft) (1 + Array.fold_left max 0 layer_of_path))

exception Violation of string

let check cert store ~layer_of_path =
  let m = Graph.num_channels (Route_store.graph store) in
  if cert.num_channels <> m then
    Error (Printf.sprintf "certificate covers %d channels, fabric has %d" cert.num_channels m)
  else if Array.length layer_of_path <> Route_store.capacity store then
    Error "layer assignment does not cover the store"
  else if Array.exists (fun pos -> Array.length pos <> m) cert.layers then
    Error "a layer's numbering does not cover every channel"
  else begin
    let k = Array.length cert.layers in
    let buf = Route_store.buffer store
    and off = Route_store.offsets store
    and len = Route_store.lengths store in
    try
      for pair = 0 to Array.length len - 1 do
        if len.(pair) >= 0 then begin
          let l = layer_of_path.(pair) in
          if l < 0 || l >= k then
            raise
              (Violation (Printf.sprintf "pair %d rides layer %d outside the certificate's %d" pair l k));
          let pos = cert.layers.(l) in
          for i = off.(pair) to off.(pair) + len.(pair) - 2 do
            let c1 = buf.(i) and c2 = buf.(i + 1) in
            if pos.(c1) >= pos.(c2) then
              raise
                (Violation
                   (Printf.sprintf "layer %d: dependency %d -> %d not ascending (%d >= %d)" l c1 c2
                      pos.(c1) pos.(c2)))
          done
        end
      done;
      Ok ()
    with Violation msg -> Error msg
  end

let to_string t =
  let buf = Buffer.create (16 * t.num_channels * Array.length t.layers) in
  Buffer.add_string buf
    (Printf.sprintf "certificate v1 channels %d layers %d\n" t.num_channels (Array.length t.layers));
  Array.iteri
    (fun l pos ->
      Buffer.add_string buf (Printf.sprintf "layer %d" l);
      Array.iter
        (fun p ->
          Buffer.add_char buf ' ';
          Buffer.add_string buf (string_of_int p))
        pos;
      Buffer.add_char buf '\n')
    t.layers;
  Buffer.add_string buf "end\n";
  Buffer.contents buf

let of_string text =
  let lines = String.split_on_char '\n' text in
  let words l = List.filter (fun w -> w <> "") (String.split_on_char ' ' l) in
  let significant =
    List.filter (fun l -> String.trim l <> "" && (String.trim l).[0] <> '#') lines |> List.map String.trim
  in
  match significant with
  | [] -> Error "empty certificate"
  | header :: rest -> (
    match words header with
    | [ "certificate"; "v1"; "channels"; m; "layers"; k ] -> (
      match (int_of_string_opt m, int_of_string_opt k) with
      | Some m, Some k when m >= 0 && k >= 1 -> (
        let layers = Array.make k [||] in
        let rec go seen = function
          | [] -> Error "missing 'end'"
          | "end" :: _ ->
            if seen <> k then Error (Printf.sprintf "expected %d layer lines, got %d" k seen)
            else if Array.exists (fun pos -> Array.length pos <> m) layers then
              Error "a layer line does not cover every channel"
            else Ok { num_channels = m; layers }
          | line :: tl -> (
            match words line with
            | "layer" :: l :: ps -> (
              match int_of_string_opt l with
              | Some l when l >= 0 && l < k -> (
                match List.map int_of_string_opt ps with
                | exception _ -> Error "unreadable layer line"
                | opts ->
                  if List.exists Option.is_none opts then Error (Printf.sprintf "layer %d: bad position" l)
                  else begin
                    layers.(l) <- Array.of_list (List.map Option.get opts);
                    go (seen + 1) tl
                  end)
              | _ -> Error "bad layer index")
            | _ -> Error (Printf.sprintf "unrecognized directive %S" line))
        in
        go 0 rest)
      | _ -> Error "bad channel or layer count in header")
    | _ -> Error "bad header (want: certificate v1 channels <m> layers <k>)")
