(* Shared helpers for the test suites: string search, qcheck glue, and
   the topology/table generators the property suites have in common. *)

let contains haystack needle =
  let hl = String.length haystack and nl = String.length needle in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  nl = 0 || go 0

(* qcheck-alcotest glue. [count] is explicit: each suite owns its budget
   (test_properties defaults to 40 trials, test_parallel — whose trials
   spawn domains — to 8). *)
let qtest ~count name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let seed_gen = QCheck2.Gen.int_range 0 100_000

(* The fabric mix of the parallel-pipeline suites: ring, torus, XGFT,
   dragonfly — sizes jittered by the seed. *)
let fabric seed =
  match seed mod 4 with
  | 0 -> ("ring", Topo_ring.make ~switches:(6 + (seed mod 5)) ~terminals_per_switch:2)
  | 1 ->
    ( "torus",
      fst (Topo_torus.torus ~dims:[| 3 + (seed mod 3); 3 + (seed / 3 mod 3) |] ~terminals_per_switch:2) )
  | 2 ->
    let ms = [| 2 + (seed mod 2); 3 |] and ws = [| 1; 2 |] in
    ("xgft", Topo_xgft.make ~ms ~ws ~endpoints:(2 * Topo_xgft.num_leaves ~ms))
  | _ -> ("dragonfly", Topo_dragonfly.make ~a:(3 + (seed mod 2)) ~p:2 ~h:2 ())

(* The small irregular fabric most property tests run on. *)
let random_graph ?(switches = 8) ?(switch_radix = 10) ?(terminals = 16) ?(inter_links = 14) rng =
  Topo_random.make ~switches ~switch_radix ~terminals ~inter_links ~rng

(* A route store holding path [i] under pair id [i]. *)
let of_paths g paths =
  let t = Deadlock.Route_store.create g ~capacity:(Array.length paths) in
  Array.iteri (fun i p -> Deadlock.Route_store.set_path t ~pair:i p) paths;
  t

(* [iter_deps store ~pair f] calls [f c1 c2] on each consecutive channel
   pair of the pair's path: its CDG dependencies. *)
let iter_deps store ~pair f =
  for i = 0 to Deadlock.Route_store.length store ~pair - 2 do
    f (Deadlock.Route_store.get store ~pair i) (Deadlock.Route_store.get store ~pair (i + 1))
  done

(* The CDG of [paths], path [i] under pair id [i]. *)
let cdg_of_paths g paths = Deadlock.Cdg.of_store (of_paths g paths)

(* Successors of channel [c] and the route weight of edge (c1, c2) (0 if
   absent), read through the CDG's slot interface. *)
let cdg_iter_successors cdg c f =
  let lo, hi = Deadlock.Cdg.slot_range cdg c in
  for sl = lo to hi - 1 do
    f (Deadlock.Cdg.slot_col cdg sl)
  done

let cdg_edge_count cdg ~c1 ~c2 =
  let lo, hi = Deadlock.Cdg.slot_range cdg c1 in
  let n = ref 0 in
  for sl = lo to hi - 1 do
    if Deadlock.Cdg.slot_col cdg sl = c2 then n := Deadlock.Cdg.slot_count cdg sl
  done;
  !n

(* Kahn's check of every layer's CDG over [paths] (path [i] under pair
   id [i]), by the test-only reference. *)
let layers_acyclic g ~paths ~layer_of_path ~num_layers =
  if Array.length paths <> Array.length layer_of_path then invalid_arg "layers_acyclic: length mismatch";
  Oracles.Acyclic_ref.layers_acyclic_store (of_paths g paths) ~layer_of_path ~num_layers

let same_tables a b = (Routing.Ftable.diff a b).Routing.Ftable.entries_changed = 0

(* DFSSSP with its two stages chosen: SSSP under [kernel], then the
   offline layer assignment by the shipped SCC engine ([`Scc], the
   default) or the one-cycle-at-a-time oracle [Oracles.Dfs_ref] ([`Dfs]),
   each over the table's route classes and written into the table as
   [Dfsssp.assign_layers] writes it. The kernel/engine parity cases route
   through here. *)
let dfsssp ?kernel ?(engine = `Scc) ?(max_layers = 8) g =
  match Routing.Sssp.route ?kernel g with
  | Error msg -> Error msg
  | Ok ft -> (
    match engine with
    | `Scc -> Result.map_error Dfsssp.error_to_string (Dfsssp.assign_layers ~max_layers ft)
    | `Dfs -> (
      let cls = Result.get_ok (Routing.Ftable.to_classes ft) in
      match
        Oracles.Dfs_ref.assign_store cls.Routing.Ftable.store ~max_layers
          ~heuristic:Deadlock.Heuristic.Weakest
      with
      | Error msg -> Error (Dfsssp.error_to_string (Dfsssp.Layers_exhausted msg))
      | Ok o ->
        Routing.Ftable.set_class_layers ft cls o.Deadlock.Layers.layer_of_path;
        Routing.Ftable.set_num_layers ft o.Deadlock.Layers.layers_used;
        Ok ft))

(* The virtual layer count alone (the quantity of the paper's Figs.
   9/10): Algorithm 2's own count, refused where it runs out. *)
let layers_required ?variant ?heuristic ?max_layers g =
  Result.map Routing.Ftable.num_layers (Dfsssp.route ?variant ?heuristic ?max_layers g)

(* Algorithm 2 under every cycle-breaking heuristic, keeping the table
   with the fewest layers (the first heuristic wins a tie) and its
   heuristic: APP is NP-complete, so no single heuristic dominates
   (paper Section IV). *)
let route_min_layers ?(max_layers = 8) g =
  let runs = List.map (fun h -> (h, Dfsssp.route ~heuristic:h ~max_layers g)) Deadlock.Heuristic.all in
  let keep best (h, run) =
    match (best, run) with
    | Ok (b, _), Ok ft when Routing.Ftable.num_layers b <= Routing.Ftable.num_layers ft -> best
    | Ok _, Error _ -> best
    | _, Ok ft -> Ok (ft, h)
    | Error _, Error e -> Error e
  in
  List.fold_left keep (Error (Dfsssp.Routing_failed "no heuristic available")) runs

(* ------------------------------------------------------------------ *)
(* Helpers over the shipped interfaces that no shipped code needs       *)
(* ------------------------------------------------------------------ *)

let write_file path text = Out_channel.with_open_text path (fun oc -> output_string oc text)

let read_file path = In_channel.with_open_text path In_channel.input_all

let num_enabled_channels g =
  let n = ref 0 in
  for c = 0 to Graph.num_channels g - 1 do
    if Graph.channel_enabled g c then incr n
  done;
  !n

(* Path predicates: the node a path starts/ends at, head-to-tail
   chaining, no repeated node, and the CDG edges it induces. *)
let path_source g p =
  if Array.length p = 0 then invalid_arg "path_source: empty path";
  (Graph.channel g p.(0)).Channel.src

let path_target g p =
  if Array.length p = 0 then invalid_arg "path_target: empty path";
  (Graph.channel g p.(Array.length p - 1)).Channel.dst

let path_is_consistent g p =
  let ok = ref true in
  for i = 0 to Array.length p - 2 do
    if (Graph.channel g p.(i)).Channel.dst <> (Graph.channel g p.(i + 1)).Channel.src then ok := false
  done;
  !ok

let path_is_simple g p =
  path_is_consistent g p
  &&
  let seq = Path.node_sequence g p in
  List.length (List.sort_uniq compare (Array.to_list seq)) = Array.length seq

let path_dependencies p = List.init (max 0 (Array.length p - 1)) (fun i -> (p.(i), p.(i + 1)))

let cluster ?scale name = Option.get (Clusters.by_name ?scale name)

(* Size formulas of the generated families: k-ary n-tree switches, XGFT
   switches (sum over levels of m_(i+1)..m_h * w_1..w_i), dragonfly
   switches (default a*h + 1 groups of a), HyperX cables. *)
let rec pow b e = if e = 0 then 1 else b * pow b (e - 1)

let tree_switches ~k ~n = n * pow k (n - 1)

let xgft_switches ~ms ~ws =
  let h = Array.length ms in
  let prod a lo hi = Array.fold_left ( * ) 1 (Array.sub a lo (max 0 (hi - lo + 1))) in
  List.fold_left ( + ) 0 (List.init (h + 1) (fun i -> prod ms i (h - 1) * prod ws 0 (i - 1)))

let dragonfly_switches ~a ~h ?(groups = (a * h) + 1) () = groups * a

let hyperx_cables ~dims =
  let total = Array.fold_left ( * ) 1 dims in
  Array.fold_left (fun acc k -> acc + (total / k * (k * (k - 1) / 2))) 0 dims

(* [Topo_import.load] over [text] written to a temporary file named
   with [suffix]; [format] forces a format as [load]'s does. *)
let import ?mode ?format ?terminals_per_switch ?(suffix = ".txt") text =
  let path = Filename.temp_file "import" suffix in
  write_file path text;
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () -> Topo_import.load ?mode ?format ?terminals_per_switch path)

let parse_dot ?mode ?terminals_per_switch text = import ?mode ~format:Topo_import.Dot ?terminals_per_switch text

let parse_edge_list ?mode ?terminals_per_switch text =
  import ?mode ~format:Topo_import.Edge_list ?terminals_per_switch text

(* The edge-list form of [g]'s switch-to-switch cables, one line per
   switch pair sorted by name, parallel cables as a multiplicity. *)
let write_edge_list g =
  let counts = Hashtbl.create 64 in
  Array.iter
    (fun (c : Channel.t) ->
      let a = c.Channel.src and b = c.Channel.dst in
      if a < b && Graph.is_switch g a && Graph.is_switch g b then
        Hashtbl.replace counts (a, b) (1 + Option.value ~default:0 (Hashtbl.find_opt counts (a, b))))
    (Graph.channels g);
  let name v = (Graph.node g v).Node.name in
  Hashtbl.fold
    (fun (a, b) mult acc ->
      let na = name a and nb = name b in
      ((min na nb, max na nb), mult) :: acc)
    counts []
  |> List.sort compare
  |> List.map (fun ((na, nb), mult) ->
         if mult = 1 then Printf.sprintf "%s %s\n" na nb else Printf.sprintf "%s %s %d\n" na nb mult)
  |> String.concat ""

(* A timer's summary over its retained samples ([None] before the first). *)
let timer_summary t =
  let xs = Obs.Timer.samples t in
  if Array.length xs = 0 then None else Some (Obs.Stat.summarize xs)

(* Number of items a registry snapshot holds. *)
let registry_size r = match Obs.Registry.to_json r with Obs.Json.Obj kv -> List.length kv | _ -> 0

(* ------------------------------------------------------------------ *)
(* APP (paper Section III-A): the cover conditions, a cover search by   *)
(* enumeration, and Theorem 1's reduction from graph k-colorability     *)
(* ------------------------------------------------------------------ *)

(* Kahn's check that the union of the selected paths' edges is acyclic. *)
let app_induces_acyclic (gen : Deadlock.App.generator) indices =
  let edges = List.sort_uniq compare (List.concat_map (fun i -> path_dependencies gen.paths.(i)) indices) in
  let indeg = Array.make gen.num_nodes 0 in
  List.iter (fun (_, b) -> indeg.(b) <- indeg.(b) + 1) edges;
  let queue = Queue.create () in
  Array.iteri (fun v d -> if d = 0 then Queue.add v queue) indeg;
  let seen = ref 0 in
  while not (Queue.is_empty queue) do
    let v = Queue.take queue in
    incr seen;
    List.iter
      (fun (a, b) ->
        if a = v then begin
          indeg.(b) <- indeg.(b) - 1;
          if indeg.(b) = 0 then Queue.add b queue
        end)
      edges
  done;
  !seen = gen.num_nodes

(* The paper's cover conditions: every class in [0, k) non-empty, every
   path assigned, every class acyclic. *)
let app_is_cover (gen : Deadlock.App.generator) ~assignment ~k =
  Array.length assignment = Array.length gen.paths
  && k >= 1
  && Array.for_all (fun c -> c >= 0 && c < k) assignment
  && List.for_all
       (fun c ->
         let members = List.filter (fun i -> assignment.(i) = c) (List.init (Array.length assignment) Fun.id) in
         members <> [] && app_induces_acyclic gen members)
       (List.init k Fun.id)

(* A k-cover, if one exists, by enumerating the partitions of the paths
   into k classes (restricted growth strings: path i opens at most class
   max-so-far + 1) — exponential, for test-sized instances. *)
let app_find_cover (gen : Deadlock.App.generator) ~k =
  let n = Array.length gen.paths in
  let a = Array.make n 0 in
  let rec go i used =
    if i = n then if used = k && app_is_cover gen ~assignment:a ~k then Some (Array.copy a) else None
    else
      let rec try_class c =
        if c > min used (k - 1) then None
        else begin
          a.(i) <- c;
          match go (i + 1) (max used (c + 1)) with
          | Some _ as found -> found
          | None -> try_class (c + 1)
        end
      in
      try_class 0
  in
  if k < 1 || k > n then None else go 0 0

(* The reduction: for each vertex v with neighbours w_1 < ... < w_m, the
   path <v> -> (v,w_1) -> (w_1,v) -> ... -> (v,w_m) -> (w_m,v) over
   D-nodes <v> and ordered-pair nodes (x,y) per edge. Two paths p_v, p_w
   induce a 2-cycle iff (v,w) is an edge and are node-disjoint otherwise,
   so G is k-colorable iff the generator has a k-cover. Edges are
   undirected; duplicates and self-loops are rejected. *)
let app_of_coloring ~num_vertices ~edges : Deadlock.App.generator =
  List.iter
    (fun (a, b) ->
      if a = b then invalid_arg "app_of_coloring: self loop";
      if a < 0 || b < 0 || a >= num_vertices || b >= num_vertices then
        invalid_arg "app_of_coloring: vertex out of range")
    edges;
  let keys = List.map (fun (a, b) -> (min a b, max a b)) edges in
  if List.length (List.sort_uniq compare keys) <> List.length keys then
    invalid_arg "app_of_coloring: duplicate edge";
  let pair_id = Hashtbl.create 16 in
  List.iteri
    (fun i (a, b) ->
      Hashtbl.replace pair_id (a, b) (num_vertices + (2 * i));
      Hashtbl.replace pair_id (b, a) (num_vertices + (2 * i) + 1))
    edges;
  let neighbours v =
    List.sort compare (List.filter_map (fun (a, b) -> if a = v then Some b else if b = v then Some a else None) edges)
  in
  let paths =
    Array.init num_vertices (fun v ->
        let pair w = [ Hashtbl.find pair_id (v, w); Hashtbl.find pair_id (w, v) ] in
        let tail = List.concat_map pair (neighbours v) in
        Array.of_list (v :: tail))
  in
  { num_nodes = num_vertices + (2 * List.length edges); paths }

(* Exact chromatic number by backtracking; [None] above [max_k]. *)
let app_chromatic_number_exact ~num_vertices ~edges ~max_k =
  let adj = Array.make num_vertices [] in
  List.iter
    (fun (a, b) ->
      adj.(a) <- b :: adj.(a);
      adj.(b) <- a :: adj.(b))
    edges;
  let color = Array.make num_vertices (-1) in
  let rec colorable v k =
    if v = num_vertices then true
    else begin
      (* symmetry breaking: vertex v uses at most one fresh color *)
      let used = 1 + Array.fold_left max (-1) (Array.sub color 0 v) in
      let rec try_color c =
        if c >= min k (used + 1) then false
        else if List.exists (fun w -> color.(w) = c) adj.(v) then try_color (c + 1)
        else begin
          color.(v) <- c;
          colorable (v + 1) k
          || begin
               color.(v) <- -1;
               try_color (c + 1)
             end
        end
      in
      try_color 0
    end
  in
  let rec go k = if k > max_k then None else if colorable 0 k then Some k else go (k + 1) in
  if num_vertices = 0 then Some 0 else go 1

(* Theorem 1's "<=" direction: vertex v's color is the class of path p_v. *)
let app_coloring_of_cover ~num_vertices ~assignment =
  if Array.length assignment <> num_vertices then invalid_arg "app_coloring_of_cover: one path per vertex expected";
  Array.copy assignment

let app_is_proper_coloring ~edges color = List.for_all (fun (a, b) -> color.(a) <> color.(b)) edges

let lines text = List.filter (fun l -> l <> "") (String.split_on_char '\n' text)

(* An Ftable_io artifact parsed by [Ftable_io.load] from a temporary file. *)
let ftable_of_string text =
  let path = Filename.temp_file "ftable" ".txt" in
  write_file path text;
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> Routing.Ftable_io.load path)

(* The files [write dir] writes into a fresh temporary directory, read
   back in order; the directory is removed afterwards. *)
let written_files write =
  let dir = Filename.temp_file "written" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let paths = write dir in
  let texts = List.map read_file paths in
  List.iter Sys.remove paths;
  Unix.rmdir dir;
  texts

(* The three OpenSM dumps of [ft] (LFTs, GUID inventory, SL table), as
   [Opensm.save_all] writes them. *)
let opensm_dumps ft =
  match written_files (fun dir -> Routing.Opensm.save_all ~dir ft) with
  | [ lfts; guids; sls ] -> (lfts, guids, sls)
  | _ -> failwith "opensm_dumps: expected three files"

(* Up*/Down*'s orientation as [Updown.route] picks it: the root is the
   first switch of least eccentricity, and channel (u -> v) is up iff
   (BFS depth of v, v) < (BFS depth of u, u). *)
let updown_orientation g =
  let ecc s = Array.fold_left (fun acc d -> if d = max_int then max_int else max acc d) 0 (Graph.bfs_dist g s) in
  let best =
    Array.fold_left
      (fun best s -> match best with Some (_, e) when e <= ecc s -> best | _ -> Some (s, ecc s))
      None (Graph.switches g)
  in
  match best with
  | None -> Error "updown: no switches"
  | Some (_, e) when e = max_int -> Error "updown: disconnected fabric"
  | Some (root, _) ->
    let rank = Graph.bfs_dist g root in
    let key v = (rank.(v), v) in
    Ok (root, Array.map (fun (c : Channel.t) -> key c.Channel.dst < key c.Channel.src) (Graph.channels g))

let has_rule findings id = List.exists (fun (f : Analysis.Diag.finding) -> f.rule.id = id) findings

(* ------------------------------------------------------------------ *)
(* Readers of the analyzer's artifacts: a certificate or witness text  *)
(* as [Cert.to_string]/[Witness.to_string] write it, and a witness as  *)
(* one JSON object                                                      *)
(* ------------------------------------------------------------------ *)

let cert_of_string text =
  let open Analysis.Cert in
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

let witness_of_string s =
  let open Analysis.Witness in
  let lines =
    String.split_on_char '\n' s
    |> List.map String.trim
    |> List.filter (fun l -> l <> "" && l.[0] <> '#')
  in
  let ints_of l = List.map int_of_string l in
  try
    match lines with
    | header :: rest -> (
      let kind, m, n =
        match String.split_on_char ' ' header |> List.filter (fun t -> t <> "") with
        | [ "witness"; "v1"; "kind"; "layer"; "channels"; m; "length"; n; "layer"; l ] ->
          (Layer_cycle { layer = int_of_string l }, int_of_string m, int_of_string n)
        | [ "witness"; "v1"; "kind"; "core"; "channels"; m; "length"; n; "min-layers"; k ] ->
          (Topology_core { min_layers = int_of_string k }, int_of_string m, int_of_string n)
        | _ -> failwith "bad header"
      in
      if n < 2 then Error "witness: cycle length below 2"
      else begin
        let cycle = ref [||] in
        let srcs = Array.make n 0 and dsts = Array.make n 0 in
        let seen_dep = Array.make n false in
        let finished = ref false in
        List.iter
          (fun line ->
            if not !finished then
              match String.split_on_char ' ' line |> List.filter (fun t -> t <> "") with
              | "cycle" :: ids ->
                let a = Array.of_list (ints_of ids) in
                if Array.length a <> n then failwith "cycle length mismatch";
                cycle := a
              | [ "dep"; p; src; dst ] ->
                let p = int_of_string p in
                if p < 0 || p >= n then failwith "dep position out of range";
                if seen_dep.(p) then failwith "duplicate dep position";
                seen_dep.(p) <- true;
                srcs.(p) <- int_of_string src;
                dsts.(p) <- int_of_string dst
              | [ "end" ] -> finished := true
              | _ -> failwith "unrecognized line")
          rest;
        if not !finished then Error "witness: missing end line"
        else if Array.length !cycle <> n then Error "witness: missing cycle line"
        else if not (Array.for_all (fun b -> b) seen_dep) then
          Error "witness: missing dep line(s)"
        else Ok { kind; num_channels = m; cycle = !cycle; srcs; dsts }
      end)
    | [] -> Error "witness: empty input"
  with
  | Failure msg -> Error (Printf.sprintf "witness: %s" msg)

let witness_to_json w =
  let open Analysis.Witness in
  let num i = Obs.Json.Num (float_of_int i) in
  let kind, bound =
    match w.kind with
    | Layer_cycle { layer } -> ("layer-cycle", ("layer", num layer))
    | Topology_core { min_layers } -> ("topology-core", ("min_layers", num min_layers))
  in
  Obs.Json.Obj
    [
      ("kind", Obs.Json.Str kind);
      bound;
      ("channels", num w.num_channels);
      ("cycle", Obs.Json.List (Array.to_list (Array.map num w.cycle)));
      ( "deps",
        Obs.Json.List
          (List.init (Array.length w.cycle) (fun p ->
               Obs.Json.Obj [ ("src", num w.srcs.(p)); ("dst", num w.dsts.(p)) ])) );
    ]

(* Joint deadlock freedom of a multipath routing, judged by the trusted
   checker on all planes' per-pair routes in one store (pair id
   [plane * nt^2 + src index * nt + dst index]) under each route's own
   layer. *)
let multipath_deadlock_free mp =
  let planes = Dfsssp.Multipath.planes mp in
  let g = Routing.Ftable.graph planes.(0) in
  let ts = Graph.terminals g in
  let nt = Array.length ts in
  let store = Deadlock.Route_store.create g ~capacity:(Array.length planes * nt * nt) in
  let layer_of_path = Array.make (Deadlock.Route_store.capacity store) (-1) in
  Array.iteri
    (fun plane ft ->
      Array.iteri
        (fun si src ->
          Array.iteri
            (fun di dst ->
              match Routing.Ftable.path ft ~src ~dst with
              | Some p when src <> dst ->
                let pair = (plane * nt * nt) + (si * nt) + di in
                Deadlock.Route_store.set_path store ~pair p;
                layer_of_path.(pair) <- Routing.Ftable.layer ft ~src ~dst
              | _ -> ())
            ts)
        ts)
    planes;
  let routes = Analysis.Cert.Routes.of_store store ~layer_of_path in
  match Analysis.Cert.of_routes planes.(0) routes with
  | Error _ -> false
  | Ok cert -> Result.is_ok (Analysis.Cert.check_routes cert routes)

(* ------------------------------------------------------------------ *)
(* Harness output                                                       *)
(* ------------------------------------------------------------------ *)

(* A result cell as the harness renders it. *)
let cell_text =
  Harness.Report.(
    function
    | Str s -> s
    | Int i -> string_of_int i
    | Flt f -> Printf.sprintf "%.4f" f
    | Pct f -> Printf.sprintf "%+.1f%%" (100.0 *. f)
    | Time s ->
      if s < 1e-3 then Printf.sprintf "%.1fus" (s *. 1e6)
      else if s < 1.0 then Printf.sprintf "%.2fms" (s *. 1e3)
      else Printf.sprintf "%.2fs" s
    | Missing -> "-")

(* The CSV [Report.save_csv] writes for [t]. *)
let csv_of t = String.concat "" (written_files (fun dir -> [ Harness.Report.save_csv ~dir t ]))

(* What [f] prints to stdout. *)
let capture_stdout f =
  let path = Filename.temp_file "stdout" ".txt" in
  flush stdout;
  let saved = Unix.dup Unix.stdout in
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  Unix.dup2 fd Unix.stdout;
  Unix.close fd;
  Fun.protect
    ~finally:(fun () ->
      flush stdout;
      Unix.dup2 saved Unix.stdout;
      Unix.close saved)
    f;
  let text = read_file path in
  Sys.remove path;
  text

(* One service frame on the wire: a 4-byte big-endian length, then the
   payload. *)
let frame payload =
  let n = String.length payload in
  let b = Bytes.create (4 + n) in
  Bytes.set_int32_be b 0 (Int32.of_int n);
  Bytes.blit_string payload 0 b 4 n;
  b

(* ------------------------------------------------------------------ *)
(* Simulator                                                            *)
(* ------------------------------------------------------------------ *)

(* [Netsim.run]'s default configuration: 1 GB/s links, 1 us hops, 4 KiB
   MTU, 4 credits, 8 lanes. *)
let netsim_default =
  { Simulator.Netsim.bandwidth = 1e9; latency = 1e-6; mtu = 4096; credits = 4; num_vls = 8; max_events = 50_000_000 }

(* [flows] random (src, dst) pairs over [ranks], src <> dst. *)
let uniform_random rng ~flows ranks =
  let n = Array.length ranks in
  if n < 2 then invalid_arg "uniform_random: need at least 2 ranks";
  Array.init flows (fun _ ->
      let a = Rng.int rng n in
      let rec other () =
        let b = Rng.int rng n in
        if b = a then other () else b
      in
      (ranks.(a), ranks.(other ())))
