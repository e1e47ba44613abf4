(* The end-to-end benchmark (see README.md in this directory):

     main.exe --daemon PATH --workload NAME --seed N --seconds S --trace 0|1

   runs one workload, checks its outputs, and prints the metrics; the
   last line of stdout is one JSON object. run.sh builds and calls it. *)

let workloads = [ "bringup-fattree"; "bringup-jellyfish"; "serve-churn" ]

(* Every per-layer metric, with its unit. A workload that does not
   exercise a layer reports it as 0 and says so. *)
let per_layer =
  [
    ("netgraph.generate_ms", "ms");
    ("routing.sssp_ms", "ms");
    ("dfsssp.assign_layers_ms", "ms");
    ("analysis.existence_ms", "ms");
    ("analysis.certify_ms", "ms");
    ("dfsssp.verify_ms", "ms");
    ("fabric.snapshot_ms", "ms");
    ("routing.to_store_ms", "ms");
    ("deadlock.assign_store_ms", "ms");
    ("deadlock.cycles_broken", "count");
    ("routing.pairs", "count");
    ("gc.minor_collections", "count");
    ("gc.major_collections", "count");
    ("gc.allocated_mb", "MB");
    ("stage_coverage", "ratio");
    ("fabric.incremental_apply_ms", "ms");
    ("fabric.incremental_count", "count");
    ("fabric.full_apply_ms", "ms");
    ("fabric.full_count", "count");
    ("fabric.repair_ms", "ms");
    ("fabric.swap_proof_ms", "ms");
    ("fabric.incremental_repairs", "count");
    ("fabric.full_recomputes", "count");
    ("fabric.fallbacks", "count");
    ("fabric.repaired_fraction", "ratio");
    ("fabric.repair_ms_mean", "ms");
    ("fabric.verify_ms_mean", "ms");
    ("service.apply_ms", "ms");
    ("service.route_serve_ms", "ms");
    ("service.event_wait_ms", "ms");
    ("service.busy_replies", "count");
    ("service.route_errors", "count");
    ("service.queue_peak", "count");
    ("gen.query_p50_ms", "ms");
    ("gen.query_p99_ms", "ms");
    ("gen.late_p99_ms", "ms");
    ("fabric.served_layers_mean", "count");
  ]

(* Order [measured] as [per_layer], filling what the workload did not
   measure with 0. *)
let complete measured =
  let missing = ref [] in
  let out =
    List.map
      (fun (name, unit_) ->
        match List.find_opt (fun m -> m.Kit.name = name) measured with
        | Some m -> m
        | None ->
          missing := name :: !missing;
          Kit.metric name unit_ 0.0)
      per_layer
  in
  if !missing <> [] then
    Printf.printf "not exercised by this workload (reported as 0): %s\n"
      (String.concat " " (List.rev !missing));
  out

(* The run's hard deadline: kill any daemon and exit without a result. *)
let watchdog_s = 170.0

let usage () =
  prerr_endline
    "usage: main.exe --daemon PATH --workload (bringup-fattree|bringup-jellyfish|serve-churn) \
     --seed N --seconds S --trace 0|1";
  exit 2

let () =
  match Array.to_list Sys.argv with
  | [ _; "--setup-probe"; spec ] -> exit (Bringup.probe spec)
  | [ _; "--host-probe"; seconds ] -> exit (Churn.probe_main (float_of_string seconds))
  | _ :: args ->
    let rec parse acc = function
      | key :: value :: rest when String.length key > 2 && String.sub key 0 2 = "--" ->
        parse ((String.sub key 2 (String.length key - 2), value) :: acc) rest
      | [] -> acc
      | _ -> usage ()
    in
    let opts = parse [] args in
    let get k = match List.assoc_opt k opts with Some v -> v | None -> usage () in
    let int k = match int_of_string_opt (get k) with Some n -> n | None -> usage () in
    let workload = get "workload" and seed = int "seed" and seconds = float_of_int (int "seconds") in
    let trace = int "trace" = 1 in
    let daemon = get "daemon" in
    if not (List.mem workload workloads) then usage ();
    if seconds <= 0.0 then usage ();
    let self = Sys.executable_name in
    at_exit Churn.kill_all;
    let on_signal _ =
      Churn.kill_all ();
      Unix._exit 130
    in
    Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal);
    Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal);
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
    let started = Kit.now () in
    ignore
      (Thread.create
         (fun () ->
           while Kit.now () -. started < watchdog_s do
             Unix.sleepf 0.5
           done;
           prerr_endline "e2ebench: run deadline passed; stopping";
           Churn.kill_all ();
           Unix._exit 3)
         ());
    Printf.printf "workload=%s seed=%d seconds=%.0f trace=%d\n%!" workload seed seconds
      (if trace then 1 else 0);
    let ops, e2e, layers =
      match workload with
      | "bringup-fattree" -> Bringup.run ~self ~spec:"tree:8,3" ~seed ~seconds ~trace
      | "bringup-jellyfish" ->
        Bringup.run ~self ~spec:(Printf.sprintf "jellyfish:64,16,8:%d" seed) ~seed ~seconds ~trace
      | _ -> Churn.run ~self ~daemon ~seed ~seconds ~trace
    in
    if e2e = [] then begin
      List.iter (fun p -> prerr_endline ("e2ebench: " ^ p)) (List.rev ops.Kit.problems);
      exit 1
    end;
    Kit.print_result ~ops (if trace then complete layers else e2e)
  | [] -> usage ()
