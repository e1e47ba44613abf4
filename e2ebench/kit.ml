(* Shared helpers: sample statistics, the benchmark's own span recorder,
   process memory, and the one-line JSON result every run ends with. *)

let now = Unix.gettimeofday

(* Nearest-rank percentile, so every reported value is a measured sample. *)
let percentile p xs = if Array.length xs = 0 then 0.0 else Obs.Stat.percentile p xs

let median xs = percentile 0.5 xs

let mean xs = if Array.length xs = 0 then 0.0 else Obs.Stat.mean xs

let ms_of_s s = 1000.0 *. s

(* Time [f] in milliseconds. *)
let timed f =
  let t0 = now () in
  let r = f () in
  (r, ms_of_s (now () -. t0))

(* Host-speed reference. Shared 2-vCPU virtual machines have slow
   phases lasting minutes in which every timing rises 30-150%, so raw
   times from runs minutes apart differ by more than any change worth
   measuring. Each run therefore also times a fixed reference kernel —
   dependent random reads over a 16 MB table and an in-place sort, no
   allocation, no repository code — interleaved with or alongside the
   work it measures, and every reported time is scaled by
   [nominal_ref_ms / median reference time] of the samples taken around
   it: the time the run would have read on a host where the reference
   takes [nominal_ref_ms], about what it takes on a quiet 2-vCPU VM. The
   raw times and the factors are printed too. *)
module Host = struct
  let nominal_ref_ms = 15.0
  let words = 1 lsl 21
  let table = lazy (Array.init words (fun i -> (i * 2654435761) land (words - 1)))
  let sort_buf = lazy (Array.make 50_000 0)

  (* Time the reference kernel once, in ms. *)
  let sample () =
    let t = Lazy.force table and b = Lazy.force sort_buf in
    let t0 = now () in
    let j = ref 0 and acc = ref 0 in
    for _ = 1 to 200_000 do
      j := t.((!j + !acc) land (words - 1));
      acc := !acc + (!j land 7)
    done;
    for i = 0 to Array.length b - 1 do
      b.(i) <- t.((i * 37) land (words - 1)) + !acc
    done;
    Array.sort Int.compare b;
    ms_of_s (now () -. t0)

  let factor samples =
    let m = median samples in
    if m > 0.0 then nominal_ref_ms /. m else 1.0
end

(* A growable sample vector. *)
module Samples = struct
  type t = {
    mutable data : float array;
    mutable len : int;
  }

  let create () = { data = Array.make 64 0.0; len = 0 }

  let add t x =
    if t.len = Array.length t.data then begin
      let d = Array.make (2 * t.len) 0.0 in
      Array.blit t.data 0 d 0 t.len;
      t.data <- d
    end;
    t.data.(t.len) <- x;
    t.len <- t.len + 1

  let to_array t = Array.sub t.data 0 t.len
end

(* Spans recorded by the benchmark around each public call into a layer:
   name -> durations in ms. Kept in memory, summarised at the end. *)
module Spans = struct
  type t = (string, Samples.t) Hashtbl.t

  let create () : t = Hashtbl.create 16

  let add (t : t) name ms =
    let s =
      match Hashtbl.find_opt t name with
      | Some s -> s
      | None ->
        let s = Samples.create () in
        Hashtbl.replace t name s;
        s
    in
    Samples.add s ms

  let record t name f =
    let r, ms = timed f in
    add t name ms;
    r

  let samples (t : t) name =
    match Hashtbl.find_opt t name with
    | Some s -> Samples.to_array s
    | None -> [||]

  let median t name = median (samples t name)
end

(* Peak resident set (VmHWM) of a process, in MB; [pid] defaults to self. *)
let peak_rss_mb ?pid () =
  let path =
    match pid with
    | None -> "/proc/self/status"
    | Some p -> Printf.sprintf "/proc/%d/status" p
  in
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error _ -> 0.0
  | text ->
    List.fold_left
      (fun acc line ->
        match String.split_on_char ':' line with
        | [ "VmHWM"; v ] -> (
          match String.split_on_char ' ' (String.trim v) with
          | kb :: _ -> ( try float_of_string kb /. 1024.0 with Failure _ -> acc)
          | [] -> acc)
        | _ -> acc)
      0.0 (String.split_on_char '\n' text)

(* Operation accounting shared by every workload. *)
type ops = {
  mutable attempted : int;
  mutable failed : int;
  mutable problems : string list; (* newest first, first few kept *)
}

let ops () = { attempted = 0; failed = 0; problems = [] }

let attempt ops = ops.attempted <- ops.attempted + 1

let fail ops msg =
  ops.failed <- ops.failed + 1;
  if List.length ops.problems < 8 then ops.problems <- msg :: ops.problems

(* [check ops ok msg] counts one attempted operation, failed unless [ok]. *)
let check ops ok msg =
  attempt ops;
  if not ok then fail ops msg

type metric = {
  name : string;
  value : float;
  unit_ : string;
  raw : float; (* before host-speed scaling *)
}

(* [metric ~scale name unit_ raw]: a time is passed with its host-speed
   factor ([Host.factor]); counts and ratios without. *)
let metric ?(scale = 1.0) name unit_ raw = { name; value = raw *. scale; unit_; raw }

(* A statistic [stat] of samples that were scaled one by one. *)
let scaled_metric name unit_ stat ~raw ~scaled = { name; value = stat scaled; unit_; raw = stat raw }

(* Shortest text that reads back as the same float: full precision, and
   no exponent or trailing ".0" games that a JSON parser could reject. *)
let json_number x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else if Float.is_finite x then Printf.sprintf "%.17g" x
  else "0"

(* Human-readable lines go first; the JSON object is the last line. *)
let print_result ~ops metrics =
  Printf.printf "ops_attempted=%d ops_failed=%d\n" ops.attempted ops.failed;
  List.iter (fun p -> Printf.printf "problem: %s\n" p) (List.rev ops.problems);
  List.iter
    (fun m ->
      if m.raw = m.value then Printf.printf "%-32s %.4f %s\n" m.name m.value m.unit_
      else Printf.printf "%-32s %.4f %s (raw %.4f)\n" m.name m.value m.unit_ m.raw)
    metrics;
  let body =
    String.concat ","
      (List.map
         (fun m ->
           Printf.sprintf "%S:{\"value\":%s,\"unit\":%S}" m.name (json_number m.value) m.unit_)
         metrics)
  in
  Printf.printf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}\n%!"
    (ops.failed = 0) (max 1 ops.attempted) ops.failed body
