(* Tour of the cycle-breaking heuristics (paper Section IV): generate a
   batch of random irregular fabrics and compare how many virtual lanes
   each heuristic needs, plus the online-vs-offline assignment variants —
   ending with the APP lower bound on a tiny instance, computed exactly.

   Run with:  dune exec examples/heuristics_tour.exe -- [trials] *)

open Netgraph

let () =
  let trials = if Array.length Sys.argv > 1 then int_of_string Sys.argv.(1) else 10 in
  Format.printf "random fabrics: 16 switches x 16 ports, 64 nodes, 30 inter-switch cables@.@.";
  Format.printf "%-12s  %4s  %6s  %4s@." "heuristic" "min" "avg" "max";
  List.iter
    (fun h ->
      let samples = ref [] in
      for t = 0 to trials - 1 do
        let rng = Rng.create (7000 + t) in
        let g = Topo_random.make ~switches:16 ~switch_radix:16 ~terminals:64 ~inter_links:30 ~rng in
        match Dfsssp.route ~heuristic:h ~max_layers:32 g with
        | Ok ft -> samples := float_of_int (Routing.Ftable.num_layers ft) :: !samples
        | Error _ -> ()
      done;
      let s = Obs.Stat.summarize (Array.of_list !samples) in
      Format.printf "%-12s  %4.0f  %6.2f  %4.0f@." (Deadlock.Heuristic.to_string h)
        s.Obs.Stat.min s.Obs.Stat.mean s.Obs.Stat.max)
    Deadlock.Heuristic.all;

  Format.printf "@.online vs offline assignment (same fabrics, weakest edge):@.";
  Format.printf "%-12s  %4s  %6s  %4s   %s@." "variant" "min" "avg" "max" "avg runtime";
  List.iter
    (fun (label, variant) ->
      let samples = ref [] and time = ref 0.0 in
      for t = 0 to trials - 1 do
        let rng = Rng.create (7000 + t) in
        let g = Topo_random.make ~switches:16 ~switch_radix:16 ~terminals:64 ~inter_links:30 ~rng in
        let t0 = Sys.time () in
        (match Dfsssp.route ~variant ~max_layers:32 g with
        | Ok ft -> samples := float_of_int (Routing.Ftable.num_layers ft) :: !samples
        | Error _ -> ());
        time := !time +. Sys.time () -. t0
      done;
      let s = Obs.Stat.summarize (Array.of_list !samples) in
      Format.printf "%-12s  %4.0f  %6.2f  %4.0f   %.1f ms@." label s.Obs.Stat.min
        s.Obs.Stat.mean s.Obs.Stat.max
        (1000.0 *. !time /. float_of_int trials))
    [ ("offline", Dfsssp.Offline); ("online", Dfsssp.Online) ];

  (* The exact view, possible only at toy scale because APP is
     NP-complete (paper Theorem 1): heuristics vs the true optimum. *)
  Format.printf "@.exact APP optimum on the paper's Fig. 3 instance:@.";
  let gen = Deadlock.App.fig3_example in
  (match Deadlock.App.min_cover_exact gen with
  | Some k -> Format.printf "  minimum number of acyclic classes: %d@." k
  | None -> assert false);
  Format.printf "  (computed by exhaustive search - the general problem is NP-complete)@."
