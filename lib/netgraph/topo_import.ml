type mode =
  | Strict
  | Lenient

type diag = {
  line : int;
  message : string;
}

type imported = {
  graph : Graph.t;
  diags : diag list;
  dropped_nodes : int;
}

type format =
  | Dot
  | Edge_list

let ( let* ) = Result.bind

(* ------------------------------------------------------------------ *)
(* Intermediate representation shared by both parsers                   *)
(* ------------------------------------------------------------------ *)

type node_rec = {
  name : string;
  mutable terminal : bool;
  node_line : int;
}

type edge_rec = {
  a : int;
  b : int;
  mult : int;
  edge_line : int;
}

(* Node names may not contain whitespace (the Serial format and the
   writers below are line-oriented); quoted DOT names often do. *)
let normalize_name s =
  String.map (fun c -> match c with ' ' | '\t' | '\n' | '\r' -> '_' | c -> c) s

type interner = {
  index : (string, int) Hashtbl.t;
  mutable rev_nodes : node_rec list;
  mutable count : int;
}

let interner () = { index = Hashtbl.create 64; rev_nodes = []; count = 0 }

let intern t ~line raw =
  let name = normalize_name raw in
  if name = "" then Error (Printf.sprintf "line %d: empty node name" line)
  else
    match Hashtbl.find_opt t.index name with
    | Some i -> Ok i
    | None ->
      let i = t.count in
      Hashtbl.replace t.index name i;
      t.rev_nodes <- { name; terminal = false; node_line = line } :: t.rev_nodes;
      t.count <- i + 1;
      Ok i

let interned_nodes t = Array.of_list (List.rev t.rev_nodes)

(* [finish] runs the shared back half of both parsers: self-loop and
   duplicate-statement policy, terminal validation, connectivity, and
   the Builder pass. *)
let finish ~mode ~terminals_per_switch ~pre_diags nodes edges =
  if terminals_per_switch < 0 then Error "terminals_per_switch must be >= 0"
  else if Array.length nodes = 0 then Error "no nodes in input"
  else begin
    let rev_diags = ref (List.rev pre_diags) in
    let diag line fmt =
      Format.kasprintf (fun message -> rev_diags := { line; message } :: !rev_diags) fmt
    in
    let err line fmt = Format.kasprintf (fun s -> Error (Printf.sprintf "line %d: %s" line s)) fmt in
    (* self loops *)
    let* edges =
      let rec go acc = function
        | [] -> Ok (List.rev acc)
        | e :: rest when e.a = e.b -> (
          match mode with
          | Strict -> err e.edge_line "self loop on %s" nodes.(e.a).name
          | Lenient ->
            diag e.edge_line "dropped self loop on %s" nodes.(e.a).name;
            go acc rest)
        | e :: rest -> go (e :: acc) rest
      in
      go [] edges
    in
    (* duplicate statements for the same unordered pair: error in strict
       mode, collapsed to the largest stated multiplicity in lenient *)
    let* edges =
      let seen = Hashtbl.create 64 in
      let key e = (min e.a e.b, max e.a e.b) in
      let rec go acc = function
        | [] -> Ok (List.rev acc)
        | e :: rest -> (
          match Hashtbl.find_opt seen (key e) with
          | None ->
            Hashtbl.replace seen (key e) e;
            go (e :: acc) rest
          | Some first -> (
            match mode with
            | Strict ->
              err e.edge_line "duplicate edge %s -- %s (first at line %d)" nodes.(e.a).name
                nodes.(e.b).name first.edge_line
            | Lenient ->
              diag e.edge_line "collapsed duplicate edge %s -- %s (first at line %d)"
                nodes.(e.a).name nodes.(e.b).name first.edge_line;
              let merged = { first with mult = max first.mult e.mult } in
              Hashtbl.replace seen (key e) merged;
              go
                (List.map (fun x -> if key x = key e then merged else x) acc)
                rest))
      in
      go [] edges
    in
    (* terminal validation: exactly one unit cable to a switch *)
    let incident = Array.make (Array.length nodes) [] in
    List.iter
      (fun e ->
        incident.(e.a) <- e :: incident.(e.a);
        incident.(e.b) <- e :: incident.(e.b))
      edges;
    let valid_terminal i =
      match incident.(i) with
      | [ e ] ->
        let partner = if e.a = i then e.b else e.a in
        e.mult = 1 && not nodes.(partner).terminal
      | _ -> false
    in
    let* () =
      let invalid =
        Array.to_list nodes
        |> List.mapi (fun i nd -> (i, nd))
        |> List.filter (fun (i, nd) -> nd.terminal && not (valid_terminal i))
      in
      match (invalid, mode) with
      | [], _ -> Ok ()
      | (i, nd) :: _, Strict ->
        err nd.node_line "terminal %s must have exactly one unit cable to a switch" nodes.(i).name
      | invalid, Lenient ->
        List.iter
          (fun (_, nd) ->
            diag nd.node_line "node %s marked terminal but not attached like one; kept as switch"
              nd.name;
            nd.terminal <- false)
          invalid;
        Ok ()
    in
    (* connectivity: keep the largest component in lenient mode *)
    let n = Array.length nodes in
    let dsu = Dsu.create n in
    List.iter (fun e -> ignore (Dsu.union dsu e.a e.b)) edges;
    let components = Dsu.count dsu in
    let* keep =
      if components = 1 then Ok (Array.make n true)
      else
        match mode with
        | Strict -> Error (Printf.sprintf "disconnected: %d components" components)
        | Lenient ->
          let size = Hashtbl.create 16 in
          for i = 0 to n - 1 do
            let r = Dsu.find dsu i in
            Hashtbl.replace size r (1 + Option.value ~default:0 (Hashtbl.find_opt size r))
          done;
          (* largest component; ties go to the earliest-declared node *)
          let best = ref (Dsu.find dsu 0) in
          for i = 1 to n - 1 do
            let r = Dsu.find dsu i in
            if Hashtbl.find size r > Hashtbl.find size !best then best := r
          done;
          let keep = Array.init n (fun i -> Dsu.find dsu i = !best) in
          let dropped = n - Hashtbl.find size !best in
          diag 0 "kept largest component (%d of %d nodes); dropped %d node(s) in %d smaller component(s)"
            (Hashtbl.find size !best) n dropped (components - 1);
          Ok keep
    in
    let dropped_nodes = Array.fold_left (fun acc k -> if k then acc else acc + 1) 0 keep in
    (* build *)
    let builder = Builder.create () in
    let ids = Array.make n (-1) in
    Array.iteri
      (fun i nd -> if keep.(i) && not nd.terminal then ids.(i) <- Builder.add_switch builder ~name:nd.name)
      nodes;
    let declared_terminals = ref 0 in
    Array.iteri
      (fun i nd ->
        if keep.(i) && nd.terminal then begin
          incr declared_terminals;
          match incident.(i) with
          | [ e ] ->
            let partner = if e.a = i then e.b else e.a in
            ids.(i) <- Builder.add_terminal builder ~name:nd.name ~switch:ids.(partner)
          | _ -> assert false
        end)
      nodes;
    List.iter
      (fun e ->
        if keep.(e.a) && not (nodes.(e.a).terminal || nodes.(e.b).terminal) then
          for _ = 1 to e.mult do
            ignore (Builder.add_link builder ids.(e.a) ids.(e.b))
          done)
      edges;
    (* a file with no terminals of its own gets synthetic ones so the
       fabric is immediately routable *)
    if !declared_terminals = 0 && terminals_per_switch > 0 then begin
      let taken = Hashtbl.create 64 in
      Array.iteri (fun i nd -> if keep.(i) then Hashtbl.replace taken nd.name ()) nodes;
      Array.iteri
        (fun i nd ->
          if keep.(i) && not nd.terminal then
            for k = 0 to terminals_per_switch - 1 do
              let base = Printf.sprintf "%s_h%d" nd.name k in
              let rec fresh name = if Hashtbl.mem taken name then fresh (name ^ "_") else name in
              let name = fresh base in
              Hashtbl.replace taken name ();
              ignore (Builder.add_terminal builder ~name ~switch:ids.(i))
            done)
        nodes
    end;
    Ok { graph = Builder.build builder; diags = List.rev !rev_diags; dropped_nodes }
  end

(* ------------------------------------------------------------------ *)
(* Edge-list parser                                                     *)
(* ------------------------------------------------------------------ *)

let parse_edge_list ?(mode = Strict) ?(terminals_per_switch = 1) text =
  let t = interner () in
  let err line fmt = Format.kasprintf (fun s -> Error (Printf.sprintf "line %d: %s" line s)) fmt in
  let lines = String.split_on_char '\n' text in
  let rec go lineno acc = function
    | [] -> Ok (List.rev acc)
    | raw :: rest -> (
      let line =
        match String.index_opt raw '#' with
        | Some i -> String.trim (String.sub raw 0 i)
        | None -> String.trim raw
      in
      if line = "" then go (lineno + 1) acc rest
      else
        let words = List.filter (fun w -> w <> "") (String.split_on_char ' ' (String.map (function '\t' -> ' ' | c -> c) line)) in
        match words with
        | [ a; b ] | [ a; b; _ ] -> (
          let* mult =
            match words with
            | [ _; _ ] -> Ok 1
            | [ _; _; m ] -> (
              match int_of_string_opt m with
              | Some v when v > Builder.max_multiplicity ->
                err lineno "multiplicity %d exceeds the limit of %d" v Builder.max_multiplicity
              | Some v when v >= 1 -> Ok v
              | _ -> err lineno "bad multiplicity %S" m)
            | _ -> assert false
          in
          let* ia = intern t ~line:lineno a in
          let* ib = intern t ~line:lineno b in
          go (lineno + 1) ({ a = ia; b = ib; mult; edge_line = lineno } :: acc) rest)
        | _ -> err lineno "want <a> <b> [mult], got %S" line)
  in
  let* edges = go 1 [] lines in
  finish ~mode ~terminals_per_switch ~pre_diags:[] (interned_nodes t) edges

(* ------------------------------------------------------------------ *)
(* DOT lexer                                                            *)
(* ------------------------------------------------------------------ *)

type token =
  | Lbrace
  | Rbrace
  | Lbracket
  | Rbracket
  | Semi
  | Comma
  | Equals
  | Undirected_edge
  | Directed_edge
  | Ident of string
  | Eof

let is_ident_char c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
  || c = '_' || c = '.' || c = '+' || c = '-'

(* One token plus the line it started on; lexing the whole input up
   front keeps the parser a plain list walk. *)
let lex text =
  let n = String.length text in
  let toks = ref [] in
  let line = ref 1 in
  let i = ref 0 in
  let error = ref None in
  let emit tok = toks := (tok, !line) :: !toks in
  (try
     while !i < n && !error = None do
       let c = text.[!i] in
       if c = '\n' then begin
         incr line;
         incr i
       end
       else if c = ' ' || c = '\t' || c = '\r' then incr i
       else if c = '#' then while !i < n && text.[!i] <> '\n' do incr i done
       else if c = '/' && !i + 1 < n && text.[!i + 1] = '/' then
         while !i < n && text.[!i] <> '\n' do incr i done
       else if c = '/' && !i + 1 < n && text.[!i + 1] = '*' then begin
         let start_line = !line in
         i := !i + 2;
         let closed = ref false in
         while !i < n && not !closed do
           if text.[!i] = '\n' then incr line;
           if !i + 1 < n && text.[!i] = '*' && text.[!i + 1] = '/' then begin
             closed := true;
             i := !i + 2
           end
           else incr i
         done;
         if not !closed then error := Some (Printf.sprintf "line %d: unterminated comment" start_line)
       end
       else if c = '"' then begin
         let start_line = !line in
         let buf = Buffer.create 16 in
         incr i;
         let closed = ref false in
         while !i < n && not !closed do
           let c = text.[!i] in
           if c = '\\' && !i + 1 < n then begin
             Buffer.add_char buf text.[!i + 1];
             i := !i + 2
           end
           else if c = '"' then begin
             closed := true;
             incr i
           end
           else begin
             if c = '\n' then incr line;
             Buffer.add_char buf c;
             incr i
           end
         done;
         if !closed then begin
           let saved = !line in
           line := start_line;
           emit (Ident (Buffer.contents buf));
           line := saved
         end
         else error := Some (Printf.sprintf "line %d: unterminated string" start_line)
       end
       else if c = '-' && !i + 1 < n && text.[!i + 1] = '-' then begin
         emit Undirected_edge;
         i := !i + 2
       end
       else if c = '-' && !i + 1 < n && text.[!i + 1] = '>' then begin
         emit Directed_edge;
         i := !i + 2
       end
       else if is_ident_char c then begin
         let start = !i in
         while !i < n && is_ident_char text.[!i] do incr i done;
         emit (Ident (String.sub text start (!i - start)))
       end
       else begin
         (match c with
         | '{' -> emit Lbrace
         | '}' -> emit Rbrace
         | '[' -> emit Lbracket
         | ']' -> emit Rbracket
         | ';' -> emit Semi
         | ',' -> emit Comma
         | '=' -> emit Equals
         | c -> error := Some (Printf.sprintf "line %d: unexpected character %C" !line c));
         incr i
       end
     done
   with _ -> error := Some "lexer error");
  match !error with
  | Some e -> Error e
  | None -> Ok (List.rev ((Eof, !line) :: !toks))

(* ------------------------------------------------------------------ *)
(* DOT parser                                                           *)
(* ------------------------------------------------------------------ *)

let token_text = function
  | Lbrace -> "{"
  | Rbrace -> "}"
  | Lbracket -> "["
  | Rbracket -> "]"
  | Semi -> ";"
  | Comma -> ","
  | Equals -> "="
  | Undirected_edge -> "--"
  | Directed_edge -> "->"
  | Ident s -> Printf.sprintf "%S" s
  | Eof -> "end of input"

let parse_dot ?(mode = Strict) ?(terminals_per_switch = 1) text =
  let* toks = lex text in
  let toks = ref toks in
  let peek () = List.hd !toks in
  let advance () = toks := List.tl !toks in
  let next () =
    let t = peek () in
    advance ();
    t
  in
  let err line fmt = Format.kasprintf (fun s -> Error (Printf.sprintf "line %d: %s" line s)) fmt in
  let unexpected (tok, line) where = err line "unexpected %s %s" (token_text tok) where in
  let expect_ident where =
    match next () with
    | Ident s, line -> Ok (s, line)
    | (tok, line) -> err line "expected a name %s, got %s" where (token_text tok)
  in
  (* [attrs] is an assoc of lowercased keys; later lists override *)
  let rec parse_attr_lists acc =
    match peek () with
    | Lbracket, _ ->
      advance ();
      let rec items acc =
        match peek () with
        | Rbracket, _ ->
          advance ();
          Ok acc
        | (Comma | Semi), _ ->
          advance ();
          items acc
        | Ident key, _ -> (
          advance ();
          match peek () with
          | Equals, _ ->
            advance ();
            let* value, _ = expect_ident "as attribute value" in
            items ((String.lowercase_ascii key, value) :: acc)
          | _ -> items ((String.lowercase_ascii key, "true") :: acc))
        | (tok, line) -> err line "unexpected %s in attribute list" (token_text tok)
      in
      let* acc = items acc in
      parse_attr_lists acc
    | _ -> Ok acc
  in
  let intr = interner () in
  let edges = ref [] in
  (* digraph edges are paired into cables after parsing *)
  let directed = ref false in
  let* () =
    match next () with
    | Ident kw, line -> (
      let kw, line =
        if String.lowercase_ascii kw = "strict" then
          match next () with
          | Ident kw2, line2 -> (kw2, line2)
          | (tok, l) -> (token_text tok, l)
        else (kw, line)
      in
      match String.lowercase_ascii kw with
      | "graph" -> Ok ()
      | "digraph" ->
        directed := true;
        Ok ()
      | _ -> err line "expected \"graph\" or \"digraph\", got %S" kw)
    | (tok, line) -> err line "expected \"graph\" or \"digraph\", got %s" (token_text tok)
  in
  let* () =
    (* optional graph name *)
    (match peek () with
    | Ident _, _ -> advance ()
    | _ -> ());
    match next () with
    | Lbrace, _ -> Ok ()
    | (tok, line) -> err line "expected '{', got %s" (token_text tok)
  in
  let rec statements () =
    match next () with
    | Rbrace, _ -> Ok ()
    | Semi, _ -> statements ()
    | Eof, line -> err line "unexpected end of input (missing '}')"
    | Ident raw, line -> (
      let lower = String.lowercase_ascii raw in
      match (lower, peek ()) with
      | "subgraph", _ -> err line "subgraph is not supported"
      | ("node" | "edge" | "graph"), (Lbracket, _) ->
        (* default-attribute statement: parsed and ignored *)
        let* (_ : (string * string) list) = parse_attr_lists [] in
        statements ()
      | _, (Equals, _) ->
        (* top-level attribute assignment, e.g. overlap=false *)
        advance ();
        let* (_, _) = expect_ident "as attribute value" in
        statements ()
      | _ -> (
        let* first = intern intr ~line raw in
        (* edge chain: a -- b -- c *)
        let rec chain acc =
          match peek () with
          | Undirected_edge, op_line | Directed_edge, op_line -> (
            let op = fst (peek ()) in
            let want = if !directed then Directed_edge else Undirected_edge in
            if op <> want then
              err op_line "%s edge operator in a %s" (token_text op)
                (if !directed then "digraph (use ->)" else "graph (use --)")
            else begin
              advance ();
              let* name, nline = expect_ident "after edge operator" in
              let* id = intern intr ~line:nline name in
              chain (id :: acc)
            end)
          | _ -> Ok (List.rev acc)
        in
        let* chain_ids = chain [ first ] in
        let* attrs = parse_attr_lists [] in
        let* mult =
          match List.assoc_opt "mult" attrs with
          | None -> Ok 1
          | Some v -> (
            match int_of_string_opt v with
            | Some m when m > Builder.max_multiplicity ->
              err line "mult attribute %d exceeds the limit of %d" m Builder.max_multiplicity
            | Some m when m >= 1 -> Ok m
            | _ -> err line "bad mult attribute %S" v)
        in
        (match chain_ids with
        | [ node ] ->
          (* node statement; [kind=terminal] marks a terminal *)
          (match List.assoc_opt "kind" attrs with
          | Some v when String.lowercase_ascii v = "terminal" ->
            (List.nth (List.rev intr.rev_nodes) node).terminal <- true
          | _ -> ())
        | _ ->
          let rec pairs = function
            | a :: (b :: _ as rest) ->
              edges := { a; b; mult; edge_line = line } :: !edges;
              pairs rest
            | _ -> ()
          in
          pairs chain_ids);
        statements ()))
    | (tok, line) -> unexpected (tok, line) "at statement start"
  in
  let* () = statements () in
  let* () =
    match next () with
    | Eof, _ -> Ok ()
    | (tok, line) -> err line "trailing input after '}': %s" (token_text tok)
  in
  let nodes = interned_nodes intr in
  let edges = List.rev !edges in
  (* pair digraph arcs into bidirectional cables *)
  let* edges, pre_diags =
    if not !directed then Ok (edges, [])
    else begin
      let fwd = Hashtbl.create 64 in
      (* per unordered pair: (mult a->b, mult b->a, first line) with a < b *)
      let exception Dup of string in
      try
        List.iter
          (fun e ->
            let a = min e.a e.b and b = max e.a e.b in
            let forward = e.a <= e.b in
            let f, r, l =
              Option.value ~default:(0, 0, e.edge_line) (Hashtbl.find_opt fwd (a, b))
            in
            if (forward && f > 0) || ((not forward) && r > 0) then begin
              if mode = Strict then
                raise
                  (Dup
                     (Printf.sprintf "line %d: duplicate edge %s -> %s (first at line %d)"
                        e.edge_line nodes.(e.a).name nodes.(e.b).name l))
            end;
            let f = if forward then max f e.mult else f in
            let r = if forward then r else max r e.mult in
            Hashtbl.replace fwd (a, b) (f, r, min l e.edge_line))
          edges;
        let cables = ref [] and diags = ref [] in
        let ordered = Hashtbl.fold (fun k v acc -> (k, v) :: acc) fwd [] in
        let ordered = List.sort (fun ((_, _), (_, _, l1)) ((_, _), (_, _, l2)) -> compare l1 l2) ordered in
        List.iter
          (fun ((a, b), (f, r, l)) ->
            if f <> r && mode = Strict then
              raise
                (Dup
                   (Printf.sprintf
                      "line %d: unpaired directed edge between %s and %s (%d forward, %d reverse)" l
                      nodes.(a).name nodes.(b).name f r))
            else begin
              if f <> r then
                diags :=
                  {
                    line = l;
                    message =
                      Printf.sprintf "paired unbalanced directed edges %s/%s as %d cable(s)"
                        nodes.(a).name nodes.(b).name (max f r);
                  }
                  :: !diags;
              cables := { a; b; mult = max f r; edge_line = l } :: !cables
            end)
          ordered;
        Ok (List.rev !cables, List.rev !diags)
      with Dup msg -> Error msg
    end
  in
  finish ~mode ~terminals_per_switch ~pre_diags nodes edges

(* ------------------------------------------------------------------ *)
(* Writers                                                              *)
(* ------------------------------------------------------------------ *)

let quote name = Printf.sprintf "%S" name

(* cables as ((name a, name b), multiplicity) with [a <= b], sorted by
   name — canonical across node-id permutations, so writer output is
   stable under an import round trip *)
let cables g =
  let counts = Hashtbl.create 256 in
  Array.iter
    (fun (c : Channel.t) ->
      match Graph.reverse_channel g c.Channel.id with
      | Some r when r < c.Channel.id -> ()
      | _ ->
        let key = (min c.Channel.src c.Channel.dst, max c.Channel.src c.Channel.dst) in
        Hashtbl.replace counts key (1 + Option.value ~default:0 (Hashtbl.find_opt counts key)))
    (Graph.channels g);
  Hashtbl.fold
    (fun (a, b) mult acc ->
      let na = (Graph.node g a).Node.name and nb = (Graph.node g b).Node.name in
      let pair = if na <= nb then (na, nb) else (nb, na) in
      ((pair, (a, b)), mult) :: acc)
    counts []
  |> List.sort compare

let write_dot g =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "graph imported {\n";
  Array.iter
    (fun (nd : Node.t) ->
      if Node.is_terminal nd then
        Buffer.add_string buf (Printf.sprintf "  %s [kind=terminal];\n" (quote nd.Node.name))
      else Buffer.add_string buf (Printf.sprintf "  %s;\n" (quote nd.Node.name)))
    (Graph.nodes g);
  List.iter
    (fun (((na, nb), _), mult) ->
      if mult = 1 then Buffer.add_string buf (Printf.sprintf "  %s -- %s;\n" (quote na) (quote nb))
      else
        Buffer.add_string buf (Printf.sprintf "  %s -- %s [mult=%d];\n" (quote na) (quote nb) mult))
    (cables g);
  Buffer.add_string buf "}\n";
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Files                                                                *)
(* ------------------------------------------------------------------ *)

let find_substring s sub =
  let sl = String.length s and subl = String.length sub in
  let rec go i =
    if i + subl > sl then None
    else if String.sub s i subl = sub then Some i
    else go (i + 1)
  in
  go 0

let sniff ?path contents =
  let by_extension =
    match path with
    | Some p when Filename.check_suffix p ".dot" || Filename.check_suffix p ".gv" -> Some Dot
    | Some p when Filename.check_suffix p ".edges" || Filename.check_suffix p ".edgelist" ->
      Some Edge_list
    | _ -> None
  in
  match by_extension with
  | Some f -> f
  | None ->
    (* first interesting word decides *)
    let words =
      String.split_on_char '\n' contents
      |> List.concat_map (fun l ->
             let l = match String.index_opt l '#' with Some i -> String.sub l 0 i | None -> l in
             let l =
               match find_substring l "//" with Some i -> String.sub l 0 i | None -> l
             in
             String.split_on_char ' ' (String.map (function '\t' -> ' ' | c -> c) l))
      |> List.filter (fun w -> String.trim w <> "")
    in
    (match words with
    | w :: _ when List.mem (String.lowercase_ascii w) [ "strict"; "graph"; "digraph" ] -> Dot
    | _ -> Edge_list)

let load ?(mode = Strict) ?format ?terminals_per_switch path =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error msg -> Error msg
  | contents -> (
    let format = match format with Some f -> f | None -> sniff ~path contents in
    match format with
    | Dot -> parse_dot ~mode ?terminals_per_switch contents
    | Edge_list -> parse_edge_list ~mode ?terminals_per_switch contents)
