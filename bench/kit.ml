(* The shared harness of the gated benches (cdg, routing, break,
   analysis, service): timing disciplines, the carried-baseline reader,
   the workload store every Algorithm 2 bench breaks, and one gate
   vocabulary with one JSON form and one exit rule. *)

open Netgraph

(* ---- timing ---- *)

(* Interleaved best-of-[rounds] for variants compared against each
   other: each round runs every thunk once, so all of them sample the
   same noise (GC phase, neighbours on a shared box) instead of one
   sampling a calm window the others never see. With [compact] (the
   default) each round starts from a compacted heap, so no variant pays
   another's major-GC debt. Returns, per thunk, the best wall time in ms
   and that round's result. *)
let time_race ?(rounds = 4) ?(compact = true) thunks =
  let best = Array.make (Array.length thunks) None in
  for _ = 1 to rounds do
    if compact then Gc.compact ();
    Array.iteri
      (fun i f ->
        let t0 = Unix.gettimeofday () in
        let r = f () in
        let ms = 1000.0 *. (Unix.gettimeofday () -. t0) in
        match best.(i) with Some (b, _) when b <= ms -> () | _ -> best.(i) <- Some (ms, r))
      thunks
  done;
  Array.map Option.get best

(* Best of three runs of one thunk, in ms, with its result. *)
let time_best ?(compact = false) f = (time_race ~rounds:3 ~compact [| f |]).(0)

(* Total seconds recorded so far by the default registry's timer [name]
   (0 if it never fired): read before and after a run for its stage
   split. *)
let timer_sum name =
  match Obs.Registry.find_timer (Obs.Registry.default ()) name with
  | Some t -> Obs.Timer.sum_s t
  | None -> 0.0

(* The previous run's JSON at [path], if it exists and parses: the
   benches that gate against a carried baseline read it before they
   overwrite it. *)
let read_baseline path =
  if not (Sys.file_exists path) then None
  else Result.to_option (Obs.Json.of_string (In_channel.with_open_text path In_channel.input_all))

(* ---- workloads ---- *)

(* [n] terminals sampled at an even stride across the terminal range. *)
let strided_dsts g n =
  let terminals = Graph.terminals g in
  let nt = Array.length terminals in
  let n = min n nt in
  Array.init n (fun i -> terminals.(i * nt / n))

(* Every terminal's route toward each of [dsts] in [ft], as a route
   store with pair id [src_index * |dsts| + dst_slot]. *)
let pair_store ~name ft ~dsts =
  let g = Routing.Ftable.graph ft in
  let terminals = Graph.terminals g in
  let nd = Array.length dsts in
  let store = Deadlock.Route_store.create g ~capacity:(Array.length terminals * nd) in
  Array.iteri
    (fun si src ->
      Array.iteri
        (fun j dst ->
          if src <> dst then
            match Routing.Ftable.path ft ~src ~dst with
            | Some p -> Deadlock.Route_store.set_path store ~pair:((si * nd) + j) p
            | None -> failwith (Printf.sprintf "%s: no route %d -> %d" name src dst))
        dsts)
    terminals;
  store

(* ---- gates ---- *)

type status =
  | Pass
  | Fail
  | Skipped of string  (** why the gate could not be judged on this run *)

type gate = {
  name : string;
  target : string;
  status : status;
}

let gate name ~target ok = { name; target; status = (if ok then Pass else Fail) }

(* A gate on parallel speedup is judged only with at least [min]
   hardware domains: below that, the "parallel" run is the sequential
   one again and a pass would say nothing. *)
let parallel_gate name ~target ~available ~min ok =
  if available < min then
    {
      name;
      target;
      status =
        Skipped
          (Printf.sprintf "%d hardware domain%s available (gate needs >= %d)" available
             (if available = 1 then "" else "s")
             min);
    }
  else gate name ~target ok

let status_to_string = function Pass -> "pass" | Fail -> "fail" | Skipped why -> "skipped: " ^ why

(* Exit 1 iff some gate failed: a skipped gate never fails a run. *)
let exit_code gates = if List.exists (fun g -> g.status = Fail) gates then 1 else 0

let json_int i = Obs.Json.Num (float_of_int i)

(* Writes bench_results/<benchmark>.json: the benchmark's name, its
   [fields], then one [gates] object ({name: {target, status}}). *)
let write_json ~benchmark fields gates =
  let open Obs.Json in
  let gates_json =
    Obj
      (List.map
         (fun g -> (g.name, Obj [ ("target", Str g.target); ("status", Str (status_to_string g.status)) ]))
         gates)
  in
  let doc = Obj ((("benchmark", Str benchmark) :: fields) @ [ ("gates", gates_json) ]) in
  if not (Sys.file_exists "bench_results") then Unix.mkdir "bench_results" 0o755;
  Out_channel.with_open_text (Printf.sprintf "bench_results/%s.json" benchmark) (fun oc ->
      Out_channel.output_string oc (to_string doc);
      Out_channel.output_char oc '\n')

(* Prints one line per gate and exits by [exit_code]. *)
let finish gates =
  List.iter
    (fun g ->
      Printf.printf "gate %s (%s): %s\n" g.name g.target
        (match g.status with Pass -> "PASS" | Fail -> "FAIL" | Skipped why -> "SKIPPED (" ^ why ^ ")"))
    gates;
  exit (exit_code gates)
