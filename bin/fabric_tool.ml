(* fabric_tool: the one front end. Every job — routing, simulation,
   certification, the paper's experiments, fabric utilities and the
   live manager — is a subcommand over the shared flag vocabulary of
   Cli. *)

let () =
  let doc = "deadlock-free oblivious routing (DFSSSP): route, simulate, certify and manage fabrics" in
  exit
    (Cmdliner.Cmd.eval'
       (Cmdliner.Cmd.group
          (Cmdliner.Cmd.info "fabric_tool" ~version:"1.0.0" ~doc)
          [
            Routing_cmds.route_cmd;
            Routing_cmds.simulate_cmd;
            Routing_cmds.analyze_cmd;
            Routing_cmds.experiment_cmd;
            Fabric_cmds.info_cmd;
            Fabric_cmds.convert_cmd;
            Fabric_cmds.degrade_cmd;
            Fabric_cmds.diff_cmd;
            Fabric_cmds.import_cmd;
            Fabric_cmds.zoo_cmd;
            Manager_cmds.manage_cmd;
            Manager_cmds.soak_cmd;
            Manager_cmds.serve_cmd;
            Manager_cmds.client_cmd;
          ]))
