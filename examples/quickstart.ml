(* Quickstart: build a small irregular fabric, route it deadlock-free with
   DFSSSP, inspect the result, and verify the deadlock-freedom guarantee.

   Run with:  dune exec examples/quickstart.exe *)

open Netgraph

let () =
  (* 1. Describe the fabric. A 4x4 torus of 36-port switches with two
     compute nodes each — a topology plain SSSP cannot route safely. *)
  let fabric, _coords = Topo_torus.torus ~dims:[| 4; 4 |] ~terminals_per_switch:2 in
  Format.printf "fabric: %a@." Graph.pp_stats fabric;

  (* 2. Route it. [Dfsssp.route] computes globally balanced minimal routes
     and partitions them over virtual lanes so no buffer cycle exists. *)
  match Dfsssp.route ~max_layers:8 fabric with
  | Error e ->
    prerr_endline (Dfsssp.error_to_string e);
    exit 1
  | Ok tables ->
    Format.printf "routing computed by %s, using %d virtual lane(s)@."
      (Routing.Ftable.algorithm tables) (Routing.Ftable.num_layers tables);

    (* 3. Look one route up: first hop and assigned lane for a pair. *)
    let terminals = Graph.terminals fabric in
    let src = terminals.(0) and dst = terminals.(11) in
    (match Routing.Ftable.path tables ~src ~dst with
    | Some path ->
      Format.printf "route %s -> %s: %d hops on virtual lane %d@."
        (Graph.node fabric src).Node.name (Graph.node fabric dst).Node.name (Path.length path)
        (Routing.Ftable.layer tables ~src ~dst)
    | None -> assert false);

    (* 4. Verify end to end: route completeness, minimality, and per-lane
       channel-dependency-graph acyclicity (Dally & Seitz's condition). *)
    (match Dfsssp.Verify.report tables with
    | Ok r -> Format.printf "verification: %a@." Dfsssp.Verify.pp_report r
    | Error e ->
      prerr_endline e;
      exit 1);

    (* 5. Contrast with plain SSSP: same routes, but the single-lane
       dependency graph is cyclic — a deadlock waiting to happen. *)
    (match Routing.Sssp.route fabric with
    | Ok sssp ->
      Format.printf "plain SSSP on the same fabric deadlock-free? %b@."
        (Result.is_ok (Analysis.Analyzer.certify sssp))
    | Error _ -> ())
