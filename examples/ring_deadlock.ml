(* The paper's Fig. 2, live: on a 5-switch ring where every node sends to
   the node two hops clockwise, SSSP routes every message clockwise and
   the buffer dependency cycle wedges the network. The packet-level
   simulator reproduces the deadlock; DFSSSP's virtual-lane assignment
   dissolves it on the same fabric with the same routes.

   Run with:  dune exec examples/ring_deadlock.exe *)

open Netgraph

let describe_cdg name ft =
  let cyclic = Result.is_error (Analysis.Analyzer.certify ft) in
  Format.printf "  %-8s channel dependency graph %s@." name
    (if cyclic then "has a cycle (deadlock possible)" else "is acyclic per lane (deadlock-free)")

(* In packet time a flow's bytes are its packets and one packet crosses
   one wire per time unit. *)
let simulate name ft ~num_vls ~flows =
  let config = { Simulator.Netsim.packet_config with num_vls } in
  match Simulator.Netsim.run ~config ft ~flows with
  | Simulator.Netsim.Completed { makespan; packets; _ } ->
    Format.printf "  %-8s completed: %d packets in %.0f packet times@." name packets makespan
  | Simulator.Netsim.Deadlocked { time; delivered; stuck } ->
    Format.printf "  %-8s DEADLOCK at packet time %.0f (%d delivered, %d stuck)@." name time delivered stuck
  | Simulator.Netsim.Out_of_events { delivered } ->
    Format.printf "  %-8s out of events (%d delivered)@." name delivered

let () =
  let ring = Topo_ring.make ~switches:5 ~terminals_per_switch:1 in
  Format.printf "fabric: 5-switch ring, one node per switch@.";
  let terminals = Graph.terminals ring in
  (* each node sends a burst to the node two hops clockwise *)
  let flows = Array.init 5 (fun i -> (terminals.(i), terminals.((i + 2) mod 5), 100)) in
  Format.printf "pattern: every node sends 100 packets 2 hops clockwise@.@.";

  Format.printf "static analysis:@.";
  let sssp =
    match Routing.Sssp.route ring with
    | Ok ft -> ft
    | Error e -> failwith e
  in
  describe_cdg "SSSP" sssp;
  let dfsssp =
    match Dfsssp.route ring with
    | Ok ft -> ft
    | Error e -> failwith (Dfsssp.error_to_string e)
  in
  describe_cdg "DFSSSP" dfsssp;
  Format.printf "  DFSSSP uses %d virtual lanes@.@." (Routing.Ftable.num_layers dfsssp);

  Format.printf "packet-level simulation (2 credits per lane):@.";
  simulate "SSSP" sssp ~num_vls:1 ~flows;
  simulate "DFSSSP" dfsssp ~num_vls:8 ~flows;
  Format.printf "@.same routes, same fabric - only the lane assignment differs.@."
