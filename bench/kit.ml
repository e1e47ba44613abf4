(* The shared harness of the gated benches (cdg, routing, break,
   analysis, service): timing disciplines, a host-speed reference
   kernel, the carried-baseline reader,
   the workload store every Algorithm 2 bench breaks, and one gate
   vocabulary with one JSON form and one exit rule. *)

open Netgraph

(* ---- timing ---- *)

(* Interleaved best-of-N for variants compared against each other:
   each round runs every thunk once, so all of them sample the same
   noise (GC phase, neighbours on a shared box) instead of one sampling
   a calm window the others never see. With [compact] (the default)
   each round starts from a compacted heap, so no variant pays
   another's major-GC debt. The race runs at least [min_rounds] rounds,
   and more until every thunk's rounds add up to [floor_ms]: a 10 ms
   variant is then sampled for as long as a 1 s one is by [min_rounds],
   which a fixed round count cannot do. Returns, per thunk, the best
   wall time in ms and that round's result, the rounds run, and the
   race's own accounting: each thunk's summed and last round times, as
   its clock measured them for the floor. *)
type 'a race = {
  best : (float * 'a) array;
  rounds : int;
  spent_ms : float array;
  last_ms : float array;
}

let time_race_floor ?(min_rounds = 3) ?(compact = true) ~floor_ms thunks =
  let n = Array.length thunks in
  let best = Array.make n None and spent = Array.make n 0.0 and last = Array.make n 0.0 in
  let rounds = ref 0 in
  while !rounds < min_rounds || Array.exists (fun ms -> ms < floor_ms) spent do
    if compact then Gc.compact ();
    Array.iteri
      (fun i f ->
        let t0 = Unix.gettimeofday () in
        let r = f () in
        let ms = 1000.0 *. (Unix.gettimeofday () -. t0) in
        spent.(i) <- spent.(i) +. ms;
        last.(i) <- ms;
        match best.(i) with Some (b, _) when b <= ms -> () | _ -> best.(i) <- Some (ms, r))
      thunks;
    incr rounds
  done;
  { best = Array.map Option.get best; rounds = !rounds; spent_ms = spent; last_ms = last }

(* The race for exactly [rounds] rounds. *)
let time_race ?(rounds = 4) ?compact thunks =
  (time_race_floor ~min_rounds:rounds ?compact ~floor_ms:0.0 thunks).best

(* Best of three runs of one thunk, in ms, with its result. *)
let time_best ?(compact = false) f = (time_race ~rounds:3 ~compact [| f |]).(0)

(* Host speed: a fixed kernel shaped like the serving path, touching
   no repository code and allocating nothing in its timed loop. Two
   threads pass a one-byte message back and forth over a Unix socket
   pair [ref_trips] times, and the answering side chases [ref_reads]
   dependent reads through an 8 MB permutation table per message: a
   request, some memory-bound work, a reply. On a shared 2-vCPU VM the
   thread wake-ups are what slows down between runs (service qps fell
   from 58k to 25k while a read-only kernel moved 6%; this kernel's
   time rose 7.5 -> 22 ms with it). A bench that gates against a number
   carried over from an earlier run records this kernel's time beside
   it, and scales the carried number by the ratio of the two reference
   times, so a slower or busier host does not read as a regression. *)
let ref_words = 1 lsl 20

let ref_trips = 1000

let ref_reads = 500

let ref_table = lazy (Array.init ref_words (fun i -> (i * 0x9E3779B1) land (ref_words - 1)))

let chase t j0 =
  let j = ref j0 and acc = ref 0 in
  for _ = 1 to ref_reads do
    j := t.((!j + !acc) land (ref_words - 1));
    acc := !acc + (!j land 15)
  done;
  !j + !acc

let host_ref_once () =
  let t = Lazy.force ref_table in
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let answer () =
    let buf = Bytes.create 1 and j = ref 0 in
    for _ = 1 to ref_trips do
      ignore (Unix.read b buf 0 1);
      j := chase t !j;
      ignore (Unix.write b buf 0 1)
    done;
    ignore (Sys.opaque_identity !j)
  in
  let answerer = Thread.create answer () in
  let buf = Bytes.create 1 in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to ref_trips do
    ignore (Unix.write a buf 0 1);
    ignore (Unix.read a buf 0 1)
  done;
  let ms = 1000.0 *. (Unix.gettimeofday () -. t0) in
  Thread.join answerer;
  Unix.close a;
  Unix.close b;
  ms

let median_of ~samples once =
  let xs = Array.init samples (fun _ -> once ()) in
  Array.sort Float.compare xs;
  xs.(samples / 2)

(* The median of [samples] runs of the reference kernel, in ms. *)
let host_ref_ms ?(samples = 7) () = median_of ~samples host_ref_once

(* CPU speed, for gates on CPU-bound stages: the answering side's
   [ref_trips] chases alone, with no socket and no second thread. Over
   four runs the socket kernel above read 7.2-16.1 ms while a sequential
   SSSP sum held at 32-36 ms: thread wake-ups swing far more between
   runs than the compute a shortest-path sweep waits on. *)
let cpu_ref_once () =
  let t = Lazy.force ref_table in
  let t0 = Unix.gettimeofday () in
  let j = ref 0 in
  for _ = 1 to ref_trips do
    j := chase t !j
  done;
  let ms = 1000.0 *. (Unix.gettimeofday () -. t0) in
  ignore (Sys.opaque_identity !j);
  ms

(* The median of [samples] runs of the CPU reference kernel, in ms. *)
let cpu_ref_ms ?(samples = 7) () = median_of ~samples cpu_ref_once

(* [baseline] (a rate, higher is better) recorded on a host whose
   reference took [baseline_ref_ms], as expected on a host whose
   reference takes [ref_ms]. *)
let scale_rate baseline ~baseline_ref_ms ~ref_ms = baseline *. baseline_ref_ms /. ref_ms

(* The same for a time (lower is better): it grows with the reference. *)
let scale_time baseline ~baseline_ref_ms ~ref_ms = baseline *. ref_ms /. baseline_ref_ms

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
