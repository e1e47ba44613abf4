type t = {
  graph : Graph.t;
  coords : Coords.t option;
  description : string;
}

let grammar_lines =
  [
    "ring:<switches>[:<terminals_per_switch>]";
    "torus:<d1>x<d2>[x...][:<terminals_per_switch>]";
    "mesh:<d1>x<d2>[x...][:<terminals_per_switch>]";
    "hypercube:<dim>[:<terminals_per_switch>]";
    "tree:<k>,<n>[:<endpoints>]";
    "xgft:<m1>,..,<mh>/<w1>,..,<wh>[:<endpoints>]";
    "kautz:<b>,<n>[:<endpoints>]";
    "dragonfly:<a>,<p>,<h>[:<groups>]";
    "hyperx:<d1>x<d2>[x...][:<terminals_per_switch>]";
    "random:<switches>,<radix>,<terminals>,<links>[:<seed>]";
    "jellyfish:<switches>,<ports>,<net_ports>[:<seed>]";
    "xpander:<degree>,<lift>[,<terminals_per_switch>][:<seed>]";
    "cluster:<chic|juropa|odin|ranger|tsubame|deimos>[:<scale>]";
    "file:<path>";
    "dot:<path>[:<terminals_per_switch>]";
    "edgelist:<path>[:<terminals_per_switch>]";
  ]

(* Kind names for the did-you-mean suggestion on unknown specs. *)
let known_kinds =
  [
    "ring"; "torus"; "mesh"; "hypercube"; "tree"; "xgft"; "kautz"; "dragonfly"; "hyperx";
    "random"; "jellyfish"; "xpander"; "cluster"; "file"; "dot"; "edgelist";
  ]

let levenshtein a b =
  let la = String.length a and lb = String.length b in
  let prev = Array.init (lb + 1) Fun.id in
  let cur = Array.make (lb + 1) 0 in
  for i = 1 to la do
    cur.(0) <- i;
    for j = 1 to lb do
      let cost = if a.[i - 1] = b.[j - 1] then 0 else 1 in
      cur.(j) <- min (min (cur.(j - 1) + 1) (prev.(j) + 1)) (prev.(j - 1) + cost)
    done;
    Array.blit cur 0 prev 0 (lb + 1)
  done;
  prev.(lb)

let suggestion token =
  let scored = List.map (fun k -> (levenshtein token k, k)) known_kinds in
  let sorted = List.sort compare scored in
  match sorted with
  | (d, k) :: _ when d <= 3 && d < String.length k -> Printf.sprintf " (did you mean %S?)" k
  | _ -> ""

let unknown_kind token =
  Error
    (Printf.sprintf "unknown topology kind %S%s; known kinds: %s" token (suggestion token)
       (String.concat ", " known_kinds))

let int_of s = match int_of_string_opt (String.trim s) with Some v -> Ok v | None -> Error (Printf.sprintf "not a number: %S" s)

let ints_of sep s =
  let parts = String.split_on_char sep s in
  List.fold_right
    (fun part acc ->
      match (acc, int_of part) with
      | Ok rest, Ok v -> Ok (v :: rest)
      | (Error _ as e), _ -> e
      | _, Error e -> Error e)
    parts (Ok [])

let ( let* ) r f = Result.bind r f

let parse spec =
  let parts = String.split_on_char ':' spec in
  match parts with
  | [] | [ "" ] -> Error "empty topology spec"
  | kind :: args -> (
    let arg n = List.nth_opt args n in
    let opt_int n default =
      match arg n with
      | None | Some "" -> Ok default
      | Some s -> int_of s
    in
    let wrap ?coords description graph = Ok { graph; coords; description } in
    try
      match String.lowercase_ascii kind with
      | "ring" ->
        let* switches = match arg 0 with Some s -> int_of s | None -> Error "ring: missing switch count" in
        let* terminals = opt_int 1 1 in
        wrap
          (Printf.sprintf "ring of %d switches, %d terminals each" switches terminals)
          (Topo_ring.make ~switches ~terminals_per_switch:terminals)
      | ("torus" | "mesh") as which ->
        let* dims = match arg 0 with Some s -> ints_of 'x' s | None -> Error (which ^ ": missing dims") in
        let dims = Array.of_list dims in
        let* terminals = opt_int 1 1 in
        let graph, coords =
          if which = "torus" then Topo_torus.torus ~dims ~terminals_per_switch:terminals
          else Topo_torus.mesh ~dims ~terminals_per_switch:terminals
        in
        let dim_text = String.concat "x" (Array.to_list (Array.map string_of_int dims)) in
        wrap ~coords (Printf.sprintf "%s %s, %d terminals/switch" which dim_text terminals) graph
      | "hypercube" ->
        let* dim = match arg 0 with Some s -> int_of s | None -> Error "hypercube: missing dimension" in
        let* terminals = opt_int 1 1 in
        let graph, coords = Topo_hypercube.make ~dim ~terminals_per_switch:terminals in
        wrap ~coords (Printf.sprintf "%d-cube, %d terminals/switch" dim terminals) graph
      | "tree" -> (
        let* kn = match arg 0 with Some s -> ints_of ',' s | None -> Error "tree: missing k,n" in
        match kn with
        | [ k; n ] ->
          let* endpoints = opt_int 1 (-1) in
          let endpoints = if endpoints < 0 then None else Some endpoints in
          wrap
            (Printf.sprintf "%d-ary %d-tree" k n)
            (Topo_tree.make ~k ~n ?endpoints ())
        | _ -> Error "tree: want k,n")
      | "xgft" -> (
        match arg 0 with
        | None -> Error "xgft: missing m/w lists"
        | Some lists -> (
          match String.split_on_char '/' lists with
          | [ ms; ws ] ->
            let* ms = ints_of ',' ms in
            let* ws = ints_of ',' ws in
            let ms = Array.of_list ms and ws = Array.of_list ws in
            let* endpoints = opt_int 1 (Topo_xgft.num_leaves ~ms * 12) in
            wrap
              (Printf.sprintf "XGFT(%d), %d endpoints" (Array.length ms) endpoints)
              (Topo_xgft.make ~ms ~ws ~endpoints)
          | _ -> Error "xgft: want m1,../w1,.."))
      | "kautz" -> (
        let* bn = match arg 0 with Some s -> ints_of ',' s | None -> Error "kautz: missing b,n" in
        match bn with
        | [ b; n ] ->
          (* checked before the default endpoint count is computed from it *)
          if n < 1 then Error (Printf.sprintf "kautz: n %d must be at least 1" n)
          else
            let* endpoints = opt_int 1 (Topo_kautz.num_switches ~b ~n * 12) in
            wrap
              (Printf.sprintf "Kautz(%d,%d), %d endpoints" b n endpoints)
              (Topo_kautz.make ~b ~n ~endpoints)
        | _ -> Error "kautz: want b,n")
      | "hyperx" ->
        let* dims = match arg 0 with Some s -> ints_of 'x' s | None -> Error "hyperx: missing dims" in
        let dims = Array.of_list dims in
        let* terminals = opt_int 1 1 in
        let graph, coords = Topo_hyperx.make ~dims ~terminals_per_switch:terminals in
        let dim_text = String.concat "x" (Array.to_list (Array.map string_of_int dims)) in
        wrap ~coords (Printf.sprintf "hyperx %s, %d terminals/switch" dim_text terminals) graph
      | "dragonfly" -> (
        let* aph = match arg 0 with Some s -> ints_of ',' s | None -> Error "dragonfly: missing a,p,h" in
        match aph with
        | [ a; p; h ] ->
          let* groups = opt_int 1 ((a * h) + 1) in
          wrap
            (Printf.sprintf "dragonfly(a=%d,p=%d,h=%d), %d groups" a p h groups)
            (Topo_dragonfly.make ~a ~p ~h ~groups ())
        | _ -> Error "dragonfly: want a,p,h")
      | "random" -> (
        let* params = match arg 0 with Some s -> ints_of ',' s | None -> Error "random: missing parameters" in
        match params with
        | [ switches; radix; terminals; links ] ->
          let* seed = opt_int 1 1 in
          let rng = Rng.create seed in
          wrap
            (Printf.sprintf "random fabric: %d switches x %d ports, %d terminals, %d links (seed %d)"
               switches radix terminals links seed)
            (Topo_random.make ~switches ~switch_radix:radix ~terminals ~inter_links:links ~rng)
        | _ -> Error "random: want switches,radix,terminals,links")
      | "cluster" -> (
        match arg 0 with
        | None -> Error "cluster: missing system name"
        | Some name -> (
          let* scale = opt_int 1 1 in
          if scale < 1 then
            Error (Printf.sprintf "cluster: scale %S must be at least 1" (Option.get (arg 1)))
          else
            match Clusters.by_name ~scale name with
            | None -> Error (Printf.sprintf "unknown system %S" name)
            | Some s -> wrap s.Clusters.description s.Clusters.graph))
      | "jellyfish" -> (
        let* params = match arg 0 with Some s -> ints_of ',' s | None -> Error "jellyfish: missing parameters" in
        match params with
        | [ switches; ports; net_ports ] ->
          let* seed = opt_int 1 1 in
          let rng = Rng.create seed in
          wrap
            (Printf.sprintf "jellyfish: %d switches x %d ports (%d network), seed %d"
               switches ports net_ports seed)
            (Topo_jellyfish.make ~switches ~ports ~net_ports ~rng)
        | _ -> Error "jellyfish: want switches,ports,net_ports")
      | "xpander" -> (
        let* params = match arg 0 with Some s -> ints_of ',' s | None -> Error "xpander: missing parameters" in
        match params with
        | [ net_degree; lift ] | [ net_degree; lift; _ ] ->
          let terminals = match params with [ _; _; t ] -> Some t | _ -> None in
          let* seed = opt_int 1 1 in
          let rng = Rng.create seed in
          wrap
            (Printf.sprintf "xpander: degree %d, lift %d (%d switches), seed %d"
               net_degree lift ((net_degree + 1) * lift) seed)
            (Topo_xpander.make ~net_degree ~lift ?terminals_per_switch:terminals ~rng ())
        | _ -> Error "xpander: want degree,lift[,terminals_per_switch]")
      | "file" -> (
        match arg 0 with
        | None -> Error "file: missing path"
        | Some path ->
          let* graph = Serial.load path in
          wrap (Printf.sprintf "loaded from %s" path) graph)
      | ("dot" | "edgelist") as which -> (
        match arg 0 with
        | None -> Error (which ^ ": missing path")
        | Some path ->
          let format = if which = "dot" then Topo_import.Dot else Topo_import.Edge_list in
          let* terminals = opt_int 1 1 in
          let* imported =
            Topo_import.load ~mode:Topo_import.Lenient ~format ~terminals_per_switch:terminals path
          in
          let repairs =
            match List.length imported.Topo_import.diags with
            | 0 -> ""
            | n -> Printf.sprintf ", %d repair%s" n (if n = 1 then "" else "s")
          in
          wrap
            (Printf.sprintf "imported %s from %s%s" which path repairs)
            imported.Topo_import.graph)
      | other -> unknown_kind other
    with Invalid_argument msg -> Error msg)
