(* Fabric subcommands: generate, inspect, degrade, convert, diff and
   import fabrics, and run the topology-zoo battery — the jobs an
   operator (or a test pipeline) does around the subnet manager. *)

open Cmdliner

(* info *)
let info_cmd =
  let run (spec : Cli.spec) =
    let t = spec.Cli.topo in
    let g = t.Harness.Topospec.graph in
    Format.printf "%s@." t.Harness.Topospec.description;
    Format.printf "%a@." Netgraph.Graph.pp_stats g;
    Format.printf "connected: %b@." (Netgraph.Graph.connected g);
    (match Netgraph.Graph.validate g with
    | Ok () -> Format.printf "valid: yes@."
    | Error msg -> Format.printf "valid: NO (%s)@." msg);
    let switches = Netgraph.Graph.switches g in
    if Array.length switches > 0 then begin
      let degrees = Array.map (fun sw -> Netgraph.Graph.degree g sw) switches in
      Array.sort compare degrees;
      Format.printf "switch degree: min=%d median=%d max=%d@." degrees.(0)
        degrees.(Array.length degrees / 2)
        degrees.(Array.length degrees - 1)
    end;
    if Netgraph.Graph.connected g && Netgraph.Graph.num_nodes g <= 2000 then
      Format.printf "diameter: %d@." (Netgraph.Graph.diameter g);
    0
  in
  Cmd.v (Cmd.info "info" ~doc:"describe a fabric") Term.(const run $ Cli.spec)

(* convert *)
let convert_cmd =
  let run (spec : Cli.spec) out dot =
    let g = spec.Cli.topo.Harness.Topospec.graph in
    Cli.write_fabric ~out ~dot g;
    if out = None && dot = None then print_string (Netgraph.Serial.to_string g);
    0
  in
  Cmd.v
    (Cmd.info "convert" ~doc:"generate a fabric and write it out (stdout text format by default)")
    Term.(const run $ Cli.spec $ Cli.out $ Cli.dot)

(* degrade *)
let degrade_cmd =
  let run (spec : Cli.spec) cables seed out =
    let rng = Netgraph.Rng.create seed in
    let g', removed = Netgraph.Degrade.remove_cables spec.Cli.topo.Harness.Topospec.graph ~rng ~count:cables in
    Format.printf "removed %d cable(s) (connectivity preserved)@." removed;
    Format.printf "%a@." Netgraph.Graph.pp_stats g';
    Cli.write_fabric ~out ~dot:None g';
    0
  in
  let cables = Arg.(value & opt Cli.nonneg_int 1 & info [ "cables" ] ~docv:"N" ~doc:"Cables to remove.") in
  Cmd.v
    (Cmd.info "degrade" ~doc:"remove random cables while preserving connectivity")
    Term.(const run $ Cli.spec $ cables $ Cli.seed $ Cli.out)

(* diff *)
let diff_cmd =
  let run (a : Cli.spec) (b : Cli.spec) =
    let set_of (s : Cli.spec) =
      let tbl = Hashtbl.create 256 in
      List.iter
        (fun l -> if l <> "" then Hashtbl.replace tbl l ())
        (String.split_on_char '\n' (Netgraph.Serial.to_string s.Cli.topo.Harness.Topospec.graph));
      tbl
    in
    let sa = set_of a and sb = set_of b in
    let only_in name here there =
      let shown = ref 0 in
      Hashtbl.iter
        (fun l () ->
          if not (Hashtbl.mem there l) then begin
            if !shown < 50 then Format.printf "%s %s@." name l;
            incr shown
          end)
        here;
      !shown
    in
    let a_only = only_in "-" sa sb in
    let b_only = only_in "+" sb sa in
    Format.printf "@.%d line(s) only in first, %d only in second@." a_only b_only;
    if a_only = 0 && b_only = 0 then 0 else 1
  in
  Cmd.v
    (Cmd.info "diff" ~doc:"structural diff of two fabrics (canonical text form)")
    Term.(const run $ Cli.spec_at 0 ~docv:"SPEC_A" $ Cli.spec_at 1 ~docv:"SPEC_B")

(* import: foreign topology files -> validated fabrics *)
let import_cmd =
  let run path format strict terminals out dot =
    let mode = if strict then Netgraph.Topo_import.Strict else Netgraph.Topo_import.Lenient in
    match Netgraph.Topo_import.load ~mode ?format ~terminals_per_switch:terminals path with
    | Error msg ->
      prerr_endline (Printf.sprintf "%s: %s" path msg);
      2
    | Ok imported ->
      let g = imported.Netgraph.Topo_import.graph in
      List.iter
        (fun (d : Netgraph.Topo_import.diag) ->
          Format.printf "repair (line %d): %s@." d.Netgraph.Topo_import.line
            d.Netgraph.Topo_import.message)
        imported.Netgraph.Topo_import.diags;
      if imported.Netgraph.Topo_import.dropped_nodes > 0 then
        Format.printf "dropped %d node(s) outside the largest component@."
          imported.Netgraph.Topo_import.dropped_nodes;
      Format.printf "%a@." Netgraph.Graph.pp_stats g;
      (match Netgraph.Graph.validate g with
      | Ok () -> Format.printf "valid: yes@."
      | Error msg -> Format.printf "valid: NO (%s)@." msg);
      Cli.write_fabric ~out ~dot g;
      0
  in
  let path = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  let format =
    Arg.(
      value
      & opt
          (enum
             [
               ("auto", None);
               ("dot", Some Netgraph.Topo_import.Dot);
               ("edgelist", Some Netgraph.Topo_import.Edge_list);
             ])
          None
      & info [ "format" ] ~docv:"FMT" ~doc:"Input format: auto (sniff), dot or edgelist.")
  in
  let strict =
    Arg.(
      value
      & flag
      & info [ "strict" ]
          ~doc:"Reject files needing repair (duplicates, self loops, disconnection) instead of fixing them.")
  in
  let terminals =
    Arg.(
      value
      & opt Cli.nonneg_int 1
      & info [ "terminals" ] ~docv:"N"
          ~doc:"Synthetic terminals per switch when the file declares none.")
  in
  Cmd.v
    (Cmd.info "import"
       ~doc:"import a DOT or edge-list topology file, repairing or rejecting quirks")
    Term.(const run $ path $ format $ strict $ terminals $ Cli.out $ Cli.dot)

(* zoo: corpus + generator conformance battery *)
let zoo_cmd =
  let run dir extra_specs generators_only =
    let corpus =
      if generators_only then Some []
      else
        let dir = if dir = None then Harness.Zoo.find_corpus_dir () else dir in
        Option.map (fun dir -> Harness.Zoo.corpus_specs ~dir) dir
    in
    match corpus with
    | None ->
      prerr_endline "no corpus directory found (looked for examples/zoo); use --dir";
      2
    | Some corpus ->
      let subjects = Harness.Zoo.run ~specs:(corpus @ Harness.Zoo.generator_specs @ extra_specs) () in
      Format.printf "%a" Harness.Zoo.pp_summary subjects;
      if Harness.Zoo.failures subjects = [] then 0 else 1
  in
  let dir =
    Arg.(value & opt (some dir) None & info [ "dir" ] ~docv:"DIR" ~doc:"Corpus directory (default: examples/zoo).")
  in
  let extra =
    Arg.(value & opt_all string [] & info [ "spec" ] ~docv:"SPEC" ~doc:"Additional topology spec to include.")
  in
  let generators_only =
    Arg.(value & flag & info [ "generators-only" ] ~doc:"Skip the file corpus; only the seeded generator samples.")
  in
  Cmd.v
    (Cmd.info "zoo"
       ~doc:
         "run the topology-zoo conformance battery: every corpus file and generator sample \
          through the full registry, certifier, existence bounds and kernel parity")
    Term.(const run $ dir $ extra $ generators_only)
