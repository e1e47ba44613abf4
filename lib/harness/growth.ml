type stage = {
  label : string;
  graph : Graph.t;
}

(* Rebuild [g] inside [builder], returning the switch remap. *)
let import builder g =
  let remap = Array.make (Graph.num_nodes g) (-1) in
  Array.iter
    (fun (nd : Node.t) ->
      if Node.is_switch nd then remap.(nd.id) <- Builder.add_switch builder ~name:nd.name)
    (Graph.nodes g);
  Array.iter
    (fun (nd : Node.t) ->
      if Node.is_terminal nd then begin
        let attach = (Graph.channel g (Graph.out_channels g nd.id).(0)).Channel.dst in
        remap.(nd.id) <- Builder.add_terminal builder ~name:nd.name ~switch:remap.(attach)
      end)
    (Graph.nodes g);
  Array.iter
    (fun (c : Channel.t) ->
      match Graph.reverse_channel g c.id with
      | Some r when r < c.id -> ()
      | _ ->
        if Graph.is_switch g c.src && Graph.is_switch g c.dst then begin
          let (_ : int * int) = Builder.add_link builder remap.(c.src) remap.(c.dst) in
          ()
        end)
    (Graph.channels g);
  remap

let leaf_switches g =
  Array.of_list
    (List.filter
       (fun sw ->
         Array.exists
           (fun c -> Graph.is_terminal g (Graph.channel g c).Channel.dst)
           (Graph.out_channels g sw))
       (Array.to_list (Graph.switches g)))

let stages () =
  (* stage 1: a clean 2-level fat tree island *)
  let island () = Topo_xgft.make ~ms:[| 4; 4 |] ~ws:[| 2; 2 |] ~endpoints:48 in
  let s1 = island () in
  (* stage 2: second island, 2 trunk cables between leaf switches *)
  let build_s2 () =
    let b = Builder.create () in
    let g1 = island () in
    let r1 = import b g1 in
    let g2 = island () in
    (* rename second island to avoid clashes: rebuild with a prefix *)
    let rename = Hashtbl.create 64 in
    Array.iter
      (fun (nd : Node.t) -> Hashtbl.replace rename nd.id ("b_" ^ nd.name))
      (Graph.nodes g2);
    let remap2 = Array.make (Graph.num_nodes g2) (-1) in
    Array.iter
      (fun (nd : Node.t) ->
        if Node.is_switch nd then
          remap2.(nd.id) <- Builder.add_switch b ~name:(Hashtbl.find rename nd.id))
      (Graph.nodes g2);
    Array.iter
      (fun (nd : Node.t) ->
        if Node.is_terminal nd then begin
          let attach = (Graph.channel g2 (Graph.out_channels g2 nd.id).(0)).Channel.dst in
          remap2.(nd.id) <- Builder.add_terminal b ~name:(Hashtbl.find rename nd.id) ~switch:remap2.(attach)
        end)
      (Graph.nodes g2);
    Array.iter
      (fun (c : Channel.t) ->
        match Graph.reverse_channel g2 c.id with
        | Some r when r < c.id -> ()
        | _ ->
          if Graph.is_switch g2 c.src && Graph.is_switch g2 c.dst then begin
            let (_ : int * int) = Builder.add_link b remap2.(c.src) remap2.(c.dst) in
            ()
          end)
      (Graph.channels g2);
    let leaves1 = leaf_switches g1 and leaves2 = leaf_switches g2 in
    let (_ : int * int) = Builder.add_link b r1.(leaves1.(0)) remap2.(leaves2.(0)) in
    let (_ : int * int) = Builder.add_link b r1.(leaves1.(1)) remap2.(leaves2.(1)) in
    (b, r1, g1)
  in
  let s2 =
    let b, _, _ = build_s2 () in
    Builder.build b
  in
  (* stage 3: + doubly-homed service switch into island A's spines *)
  let add_service b r1 g1 =
    let levels = Result.get_ok (Routing.Ftree.levels g1) in
    let spines =
      Array.of_list
        (List.filter (fun sw -> levels.(sw) = 2) (Array.to_list (Graph.switches g1)))
    in
    let svc = Builder.add_switch b ~name:"svc" in
    let (_ : int * int) = Builder.add_link b svc r1.(spines.(0)) in
    let (_ : int * int) = Builder.add_link b svc r1.(spines.(1)) in
    for i = 0 to 3 do
      let (_ : int) = Builder.add_terminal b ~name:(Printf.sprintf "svc_n%d" i) ~switch:svc in
      ()
    done;
    svc
  in
  let s3 =
    let b, r1, g1 = build_s2 () in
    let (_ : int) = add_service b r1 g1 in
    Builder.build b
  in
  (* stage 4: + legacy ring segment hanging off the service switch *)
  let s4 =
    let b, r1, g1 = build_s2 () in
    let svc = add_service b r1 g1 in
    let ring = Array.init 3 (fun i -> Builder.add_switch b ~name:(Printf.sprintf "ring%d" i)) in
    for i = 0 to 2 do
      let (_ : int * int) = Builder.add_link b ring.(i) ring.((i + 1) mod 3) in
      let (_ : int) = Builder.add_terminal b ~name:(Printf.sprintf "ring_n%d" i) ~switch:ring.(i) in
      ()
    done;
    let (_ : int * int) = Builder.add_link b svc ring.(0) in
    Builder.build b
  in
  [
    { label = "clean fat tree"; graph = s1 };
    { label = "+ second island (2 trunks)"; graph = s2 };
    { label = "+ service switch"; graph = s3 };
    { label = "+ legacy ring"; graph = s4 };
  ]

let sweep ?(patterns = 30) ?(seed = 43) () =
  let rows =
    List.map
      (fun stage ->
        let g = stage.graph in
        let status name =
          match Runs.run_named name g with
          | Error _ -> Report.Str "refused"
          | Ok ft ->
            if Result.is_ok (Analysis.Analyzer.certify ft) then Report.Str "ok" else Report.Str "UNSAFE"
        in
        let ebb name =
          match Runs.run_named name g with
          | Error _ -> Report.Missing
          | Ok ft ->
            let rng = Rng.create seed in
            Report.Flt
              (Simulator.Congestion.effective_bisection_bandwidth ~patterns ~rng ft)
                .Simulator.Congestion.samples
                .Simulator.Metrics.mean
        in
        let vls =
          match Runs.run_named "dfsssp" g with
          | Error _ -> Report.Missing
          | Ok ft -> Report.Int (Ftable.num_layers ft)
        in
        [
          Report.Str stage.label;
          Report.Int (Graph.num_terminals g);
          status "ftree";
          status "minhop";
          ebb "minhop";
          ebb "dfsssp";
          vls;
        ])
      (stages ())
  in
  {
    Report.title = "Growth: a fat tree accretes extensions (the paper's introduction, staged)";
    columns = [ "stage"; "nodes"; "ftree"; "minhop"; "minhop eBB"; "dfsssp eBB"; "dfsssp VLs" ];
    rows;
    notes = [ "UNSAFE = routes but with a cyclic dependency graph" ];
  }
