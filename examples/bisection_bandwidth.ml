(* Compare the effective bisection bandwidth of every routing algorithm on
   a real-system stand-in — the per-system slice of the paper's Fig. 4 —
   and show where the deadlock-free algorithms pay (Up*/Down*'s root
   bottleneck, LASH's unbalanced paths) and where DFSSSP does not.

   Run with:  dune exec examples/bisection_bandwidth.exe -- [system] [scale]
   where [system] is one of chic|juropa|odin|ranger|tsubame|deimos
   (default deimos) and [scale] divides the machine size (default 4). *)

open Netgraph

let () =
  let system_name = if Array.length Sys.argv > 1 then Sys.argv.(1) else "deimos" in
  let scale = if Array.length Sys.argv > 2 then int_of_string Sys.argv.(2) else 4 in
  match Clusters.by_name ~scale system_name with
  | None ->
    Printf.eprintf "unknown system %S (want chic|juropa|odin|ranger|tsubame|deimos)\n" system_name;
    exit 2
  | Some system ->
    Format.printf "%s: %s@." system.Clusters.name system.Clusters.description;
    Format.printf "fabric: %a@.@." Graph.pp_stats system.Clusters.graph;
    Format.printf "%-14s  %8s  %8s  %6s  %s@." "algorithm" "eBB" "worst" "VLs" "notes";
    List.iter
      (fun (alg : Dfsssp.Registry.algorithm) ->
        match alg.Dfsssp.Registry.run system.Clusters.graph with
        | Error msg -> Format.printf "%-14s  %8s  %8s  %6s  refused: %s@." alg.name "-" "-" "-" msg
        | Ok ft ->
          let rng = Rng.create 2024 in
          let ebb =
            Simulator.Congestion.effective_bisection_bandwidth ~patterns:100 ~rng ft
          in
          let deadlock_free = Result.is_ok (Analysis.Analyzer.certify ft) in
          Format.printf "%-14s  %8.4f  %8.4f  %6d  %s@." alg.name
            ebb.Simulator.Congestion.samples.Obs.Stat.mean
            ebb.Simulator.Congestion.worst_pair (Routing.Ftable.num_layers ft)
            (if deadlock_free then "deadlock-free" else "NOT deadlock-free"))
      (Dfsssp.Registry.all ());
    Format.printf "@.eBB = mean share of wire speed over 100 random bisection pairings (1.0 = no congestion)@."
