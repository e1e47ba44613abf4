(* The observability layer (DESIGN.md section 13): deterministic
   statistics, contention-free counters and timers, JSON wire format,
   span nesting, registry snapshots — and the acceptance path: tracing an
   entire fabric-manager run into parseable JSON-lines. *)

let check = Alcotest.check

let feq = Alcotest.float 1e-9

(* ------------------------------------------------------------------ *)
(* Stat: one deterministic ordering                                     *)
(* ------------------------------------------------------------------ *)

let stat_basic () =
  let s = Obs.Stat.summarize [| 3.0; 1.0; 4.0; 2.0 |] in
  check Alcotest.int "n" 4 s.Obs.Stat.n;
  check feq "min" 1.0 s.Obs.Stat.min;
  check feq "max" 4.0 s.Obs.Stat.max;
  check feq "mean" 2.5 s.Obs.Stat.mean;
  check feq "median" 2.0 s.Obs.Stat.median;
  check feq "p75" 3.0 (Obs.Stat.percentile 0.75 [| 3.0; 1.0; 4.0; 2.0 |])

(* The regression behind the Float.compare fix: with polymorphic compare
   the sort order of a NaN-bearing sample depended on element positions,
   so percentile/summarize changed with input order. Float.compare is a
   total order (NaN first): any permutation must summarize identically. *)
let stat_nan_deterministic () =
  let base = [| 5.0; Float.nan; 1.0; 3.0; 2.0; 4.0 |] in
  let rotations =
    List.init (Array.length base) (fun k ->
        Array.init (Array.length base) (fun i -> base.((i + k) mod Array.length base)))
  in
  let reference = Obs.Stat.summarize base in
  List.iter
    (fun xs ->
      let s = Obs.Stat.summarize xs in
      (* NaN sorts first, so min is NaN for every ordering... *)
      check Alcotest.bool "min is nan" true (Float.is_nan s.Obs.Stat.min);
      (* ...and max/median come off the same sorted array every time. *)
      check feq "max" reference.Obs.Stat.max s.Obs.Stat.max;
      check feq "median" reference.Obs.Stat.median s.Obs.Stat.median;
      List.iter
        (fun p -> check feq "percentile" (Obs.Stat.percentile p base) (Obs.Stat.percentile p xs))
        [ 0.3; 0.5; 0.9; 1.0 ])
    rotations

let stat_errors () =
  Alcotest.check_raises "empty" (Invalid_argument "Obs.Stat.summarize: empty sample") (fun () ->
      ignore (Obs.Stat.summarize [||]));
  Alcotest.check_raises "bad p" (Invalid_argument "Obs.Stat.percentile: p out of range") (fun () ->
      ignore (Obs.Stat.percentile 1.5 [| 1.0 |]));
  (* a NaN percentile must not slip through the range check *)
  Alcotest.check_raises "nan p" (Invalid_argument "Obs.Stat.percentile: p out of range") (fun () ->
      ignore (Obs.Stat.percentile Float.nan [| 1.0 |]))

(* ------------------------------------------------------------------ *)
(* Counters                                                             *)
(* ------------------------------------------------------------------ *)

let counter_basic () =
  let c = Obs.Counter.create ~slots:4 "test.counter" in
  Obs.Counter.incr c;
  Obs.Counter.incr ~slot:2 ~n:5 c;
  Obs.Counter.incr ~slot:3 c;
  check Alcotest.int "sum" 7 (Obs.Counter.value c);
  check Alcotest.int "slot 0" 1 (Obs.Counter.slot_value c 0);
  check Alcotest.int "slot 2" 5 (Obs.Counter.slot_value c 2);
  (* out-of-range slots clamp instead of crashing a worker *)
  Obs.Counter.incr ~slot:(-7) c;
  Obs.Counter.incr ~slot:99 ~n:2 c;
  check Alcotest.int "clamped low" 2 (Obs.Counter.slot_value c 0);
  check Alcotest.int "clamped high" 3 (Obs.Counter.slot_value c 3);
  Obs.Counter.set c 42;
  check Alcotest.int "gauge set" 42 (Obs.Counter.slot_value c 0);
  Obs.Counter.reset c;
  check Alcotest.int "reset" 0 (Obs.Counter.value c)

let counter_parallel () =
  (* 4 domains hammering distinct slots: no update may be lost *)
  let c = Obs.Counter.create ~slots:4 "test.parallel" in
  let per = 10_000 in
  let worker slot =
    Domain.spawn (fun () ->
        for _ = 1 to per do
          Obs.Counter.incr ~slot c
        done)
  in
  let ds = List.init 4 worker in
  List.iter Domain.join ds;
  check Alcotest.int "total" (4 * per) (Obs.Counter.value c);
  List.iter (fun slot -> check Alcotest.int "slot" per (Obs.Counter.slot_value c slot)) [ 0; 1; 2; 3 ]

(* ------------------------------------------------------------------ *)
(* Timers                                                               *)
(* ------------------------------------------------------------------ *)

let timer_basic () =
  let t = Obs.Timer.create ~slots:2 ~capacity:8 "test.timer" in
  Obs.Timer.add t 0.25;
  Obs.Timer.add ~slot:1 t 0.75;
  check Alcotest.int "count" 2 (Obs.Timer.count t);
  check feq "sum" 1.0 (Obs.Timer.sum_s t);
  check Alcotest.int "slot count" 1 (Obs.Timer.slot_count t 1);
  (match Testutil.timer_summary t with
  | None -> Alcotest.fail "summary expected"
  | Some s ->
    check Alcotest.int "summary n" 2 s.Obs.Stat.n;
    check feq "summary mean" 0.5 s.Obs.Stat.mean);
  (* the ring is bounded: overflow keeps the newest [capacity] samples *)
  for _ = 1 to 20 do
    Obs.Timer.add t 0.1
  done;
  check Alcotest.bool "ring bounded" true (Array.length (Obs.Timer.samples t) <= 16);
  check Alcotest.int "count keeps going" 22 (Obs.Timer.count t)

let timer_records_on_raise () =
  let t = Obs.Timer.create "test.raise" in
  (try Obs.Timer.time t (fun () -> failwith "boom") with Failure _ -> ());
  check Alcotest.int "raised call counted" 1 (Obs.Timer.count t)

(* ------------------------------------------------------------------ *)
(* The stage hook: a timed stage that ends is a pause point             *)
(* ------------------------------------------------------------------ *)

(* One stage: [Timer.time] on a throwaway timer. *)
let stage = Obs.Timer.create "test.stage"

let end_stage () = Obs.Timer.time stage ignore

let pause_noop_without_hook () =
  end_stage ();
  let runs = ref 0 in
  Obs.Timer.with_stage_hook (Some (fun () -> incr runs)) end_stage;
  end_stage ();
  Alcotest.(check int) "runs only while installed" 1 !runs

let pause_time_not_add () =
  let runs = ref 0 in
  Obs.Timer.with_stage_hook
    (Some (fun () -> incr runs))
    (fun () ->
      Obs.Timer.add stage 0.5;
      Alcotest.(check int) "add runs no hook" 0 !runs;
      check Alcotest.int "time returns the stage's value" 7 (Obs.Timer.time stage (fun () -> 7));
      Alcotest.(check int) "time runs the hook" 1 !runs;
      (try Obs.Timer.time stage (fun () -> failwith "boom") with Failure _ -> ());
      Alcotest.(check int) "a stage that raises ends without a pause" 1 !runs)

(* The calling domain is slot 0 of every pool, so only tasks on spawned
   workers end stages; slot 0 holds its index until a worker has ended
   one, so the check does not depend on scheduling. *)
let pause_not_run_by_pool_workers () =
  let main = Domain.self () in
  let runs = Atomic.make 0 and worker_stages = Atomic.make 0 in
  Obs.Timer.with_stage_hook
    (Some (fun () -> Atomic.incr runs))
    (fun () ->
      Parallel.Pool.with_pool ~domains:2
        (fun _ -> ())
        (fun pool ->
          Parallel.Pool.run pool ~n:2 ~grain:1 (fun () _ ->
              if Domain.self () <> main then begin
                end_stage ();
                Atomic.incr worker_stages
              end
              else begin
                let until = Unix.gettimeofday () +. 10.0 in
                while Atomic.get worker_stages = 0 && Unix.gettimeofday () < until do
                  Domain.cpu_relax ()
                done
              end)));
  Alcotest.(check bool) "a worker ended a stage" true (Atomic.get worker_stages > 0);
  Alcotest.(check int) "the installing domain's hook never ran" 0 (Atomic.get runs)

(* Slot 0 is the installing domain itself: [Pool.run] suspends its hook
   there, so a stage inside a parallel region never pauses — the inline
   path of a one-domain pool included — and the hook is back afterwards. *)
let pause_suspended_on_slot0 () =
  let main = Domain.self () in
  let runs = ref 0 and slot0_stages = ref 0 in
  Obs.Timer.with_stage_hook
    (Some (fun () -> incr runs))
    (fun () ->
      List.iter
        (fun domains ->
          Parallel.Pool.with_pool ~domains
            (fun _ -> ())
            (fun pool ->
              Parallel.Pool.run pool ~n:4 ~grain:1 (fun () _ ->
                  if Domain.self () = main then begin
                    end_stage ();
                    incr slot0_stages
                  end)))
        [ 2; 1 ];
      Alcotest.(check bool) "slot 0 ended stages" true (!slot0_stages > 0);
      Alcotest.(check int) "no pause inside a parallel region" 0 !runs;
      end_stage ();
      Alcotest.(check int) "the hook is restored after the run" 1 !runs)

let pause_hook_restored () =
  let log = ref [] in
  let hook name = Some (fun () -> log := name :: !log) in
  Obs.Timer.with_stage_hook (hook "outer") (fun () ->
      Obs.Timer.with_stage_hook (hook "inner") end_stage;
      end_stage ();
      (match
         Obs.Timer.with_stage_hook (hook "raising") (fun () ->
             end_stage ();
             failwith "boom")
       with
      | () -> Alcotest.fail "the exception was swallowed"
      | exception Failure _ -> ());
      end_stage ());
  end_stage ();
  Alcotest.(check (list string)) "hooks in order" [ "inner"; "outer"; "raising"; "outer" ] (List.rev !log)

let pause_inside_hook_ignored () =
  let runs = ref 0 in
  Obs.Timer.with_stage_hook
    (Some
       (fun () ->
         incr runs;
         end_stage ()))
    (fun () ->
      end_stage ();
      end_stage ());
  Alcotest.(check int) "each outer stage ran the hook once" 2 !runs

(* No two pauses without a stage started between them: an outer stage
   that ends right after its last inner one does not pause again, and a
   stage timed inside the hook is not a start. *)
let pause_once_for_nested_ends () =
  let runs = ref 0 in
  Obs.Timer.with_stage_hook
    (Some
       (fun () ->
         incr runs;
         end_stage ()))
    (fun () ->
      Obs.Timer.time stage (fun () -> Obs.Timer.time stage end_stage);
      Alcotest.(check int) "three nested ends pause once" 1 !runs;
      Obs.Timer.time stage (fun () ->
          end_stage ();
          end_stage ());
      Alcotest.(check int) "each started inner stage pauses, the outer one not" 3 !runs;
      end_stage ();
      Alcotest.(check int) "a fresh stage pauses" 4 !runs)

(* ------------------------------------------------------------------ *)
(* JSON wire format                                                     *)
(* ------------------------------------------------------------------ *)

let json_roundtrip () =
  let doc =
    Obs.Json.Obj
      [
        ("name", Obs.Json.Str "sssp.route \"fast\"\npath");
        ("count", Obs.Json.Num 42.0);
        ("ratio", Obs.Json.Num 0.125);
        ("ok", Obs.Json.Bool true);
        ("none", Obs.Json.Null);
        ("xs", Obs.Json.List [ Obs.Json.Num 1.0; Obs.Json.Num 2.0 ]);
      ]
  in
  match Obs.Json.of_string (Obs.Json.to_string doc) with
  | Error msg -> Alcotest.failf "reparse failed: %s" msg
  | Ok doc' ->
    check Alcotest.bool "fixpoint" true (doc = doc');
    check (Alcotest.option Alcotest.int) "member" (Some 42) Obs.Json.(member "count" doc' |> Option.get |> to_int)
      |> ignore

let json_special_floats () =
  (* NaN/infinity have no JSON encoding: they become null, and the result
     must still parse *)
  let s = Obs.Json.to_string (Obs.Json.List [ Obs.Json.Num Float.nan; Obs.Json.Num Float.infinity ]) in
  check Alcotest.string "nulls" "[null,null]" s;
  check Alcotest.bool "parses" true (Result.is_ok (Obs.Json.of_string s))

let json_errors () =
  check Alcotest.bool "trailing garbage" true (Result.is_error (Obs.Json.of_string "{} junk"));
  check Alcotest.bool "unterminated" true (Result.is_error (Obs.Json.of_string "{\"a\": [1, 2"));
  check Alcotest.bool "bare word" true (Result.is_error (Obs.Json.of_string "nope"))

let json_unicode () =
  match Obs.Json.of_string {|"aé\n\t\"b\""|} with
  | Error msg -> Alcotest.failf "parse failed: %s" msg
  | Ok (Obs.Json.Str s) -> check Alcotest.string "decoded" "a\xc3\xa9\n\t\"b\"" s
  | Ok _ -> Alcotest.fail "expected a string"

let json_depth_bomb () =
  (* A nesting bomb must be rejected by the depth cap, not by blowing the
     stack: the parser now frames a network protocol (DESIGN.md §14). *)
  let bomb = String.make 100_000 '[' in
  (match Obs.Json.of_string bomb with
  | Ok _ -> Alcotest.fail "bomb parsed"
  | Error msg -> check Alcotest.bool "mentions nesting" true (String.length msg > 0));
  (* ... while documents within the default cap still parse. *)
  let deep n = String.make n '[' ^ "0" ^ String.make n ']' in
  check Alcotest.bool "depth 400 ok" true (Result.is_ok (Obs.Json.of_string (deep 400)));
  (* The cap is tunable per call site. *)
  check Alcotest.bool "shallow cap rejects" true
    (Result.is_error (Obs.Json.of_string ~max_depth:3 (deep 5)));
  check Alcotest.bool "shallow cap admits" true
    (Result.is_ok (Obs.Json.of_string ~max_depth:3 (deep 3)));
  (* Objects count toward the same budget. *)
  let deep_obj n =
    String.concat "" (List.init n (fun _ -> "{\"k\":"))
    ^ "null"
    ^ String.make n '}'
  in
  check Alcotest.bool "object bomb rejected" true
    (Result.is_error (Obs.Json.of_string ~max_depth:10 (deep_obj 12)))

(* Wire-hardening property (satellite of the controller service): every
   tree the encoder can emit losslessly — integral [Num]s, since
   [%.12g] is the codec's precision contract — survives a round trip
   through the hostile-input parser. *)
let json_roundtrip_prop =
  let gen =
    let open QCheck2.Gen in
    let scalar =
      oneof
        [
          return Obs.Json.Null;
          map (fun b -> Obs.Json.Bool b) bool;
          map (fun i -> Obs.Json.Num (float_of_int i)) (int_range (-1_000_000_000) 1_000_000_000);
          map (fun s -> Obs.Json.Str s) (string_size ~gen:printable (int_range 0 16));
        ]
    in
    let key = string_size ~gen:(char_range 'a' 'z') (int_range 0 6) in
    sized
    @@ fix (fun self n ->
           if n <= 0 then scalar
           else
             frequency
               [
                 (3, scalar);
                 (1, map (fun l -> Obs.Json.List l) (list_size (int_range 0 4) (self (n / 2))));
                 ( 1,
                   map
                     (fun kvs -> Obs.Json.Obj kvs)
                     (list_size (int_range 0 4) (pair key (self (n / 2)))) );
               ])
  in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:500 ~name:"encode/decode fixpoint" gen (fun doc ->
         match Obs.Json.of_string (Obs.Json.to_string doc) with
         | Ok doc' -> doc = doc'
         | Error _ -> false))

(* ------------------------------------------------------------------ *)
(* Trace spans                                                          *)
(* ------------------------------------------------------------------ *)

let parse_lines buf =
  String.split_on_char '\n' (Buffer.contents buf)
  |> List.filter (fun l -> l <> "")
  |> List.map (fun l ->
         match Obs.Json.of_string l with
         | Ok j -> j
         | Error msg -> Alcotest.failf "bad span line %S: %s" l msg)

(* A timed stage is its span: [Timer.time] on local timers, with no
   span-opening call anywhere. *)
let trace_nesting () =
  let buf = Buffer.create 512 in
  let outer = Obs.Timer.create "outer" and inner = Obs.Timer.create "inner" in
  let r =
    Obs.Control.with_enabled true (fun () ->
        Obs.Trace.with_sink (Obs.Trace.buffer_sink buf) (fun () ->
            Obs.Timer.time outer (fun () ->
                Obs.Timer.time inner ~attrs:(fun k -> [ ("k", Obs.Trace.Int k) ]) (fun () -> 7))))
  in
  check Alcotest.int "time returns the stage's value" 7 r;
  check Alcotest.int "outer recorded" 1 (Obs.Timer.count outer);
  check Alcotest.int "inner recorded" 1 (Obs.Timer.count inner);
  match parse_lines buf with
  | [ inner_j; outer_j ] ->
    (* innermost ends (and is emitted) first *)
    check (Alcotest.option Alcotest.string) "inner name" (Some "inner")
      Obs.Json.(member "name" inner_j |> Option.get |> to_str);
    check (Alcotest.option Alcotest.string) "outer name" (Some "outer")
      Obs.Json.(member "name" outer_j |> Option.get |> to_str);
    let id j = Obs.Json.(member "id" j |> Option.get |> to_int) in
    check (Alcotest.option Alcotest.int) "parent link" (id outer_j)
      Obs.Json.(member "parent" inner_j |> Option.get |> to_int);
    check Alcotest.bool "outer is a root" true (Obs.Json.member "parent" outer_j = Some Obs.Json.Null);
    check (Alcotest.option Alcotest.int) "attr from the result" (Some 7)
      Obs.Json.(member "attrs" inner_j |> Option.get |> member "k" |> Option.get |> to_int);
    let dur_ms j = Obs.Json.(member "dur_ms" j |> Option.get |> to_float |> Option.get) in
    check (Alcotest.float 1e-9) "the span's duration is the timer's sample"
      (1000.0 *. (Obs.Timer.samples inner).(0)) (dur_ms inner_j)
  | lines -> Alcotest.failf "expected 2 spans, got %d" (List.length lines)

let trace_disabled_is_silent () =
  let buf = Buffer.create 64 in
  let quiet = Obs.Timer.create "quiet" in
  (* a sink without the switch: nothing may be emitted, and attribute
     functions may never run *)
  Obs.Control.with_enabled false (fun () ->
      Obs.Trace.with_sink (Obs.Trace.buffer_sink buf) (fun () ->
          Obs.Timer.time quiet ~attrs:(fun () -> Alcotest.fail "attrs forced while disabled") ignore));
  check Alcotest.string "no output" "" (Buffer.contents buf);
  (* and the switch without a sink is equally silent *)
  Obs.Control.with_enabled true (fun () ->
      Obs.Timer.time quiet ~attrs:(fun () -> Alcotest.fail "attrs forced without a sink") ignore);
  check Alcotest.int "the timer still records" 2 (Obs.Timer.count quiet)

let trace_error_attr () =
  let buf = Buffer.create 256 in
  let doomed = Obs.Timer.create "doomed" in
  (try
     Obs.Control.with_enabled true (fun () ->
         Obs.Trace.with_sink (Obs.Trace.buffer_sink buf) (fun () ->
             Obs.Timer.time doomed
               ~attrs:(fun () -> Alcotest.fail "attrs of a stage that raised")
               (fun () -> failwith "expected")))
   with Failure _ -> ());
  check Alcotest.int "a stage that raised is recorded" 1 (Obs.Timer.count doomed);
  match parse_lines buf with
  | [ span ] ->
    check Alcotest.bool "error attr present" true
      (Obs.Json.(member "attrs" span |> Option.get |> member "error") <> None)
  | lines -> Alcotest.failf "expected 1 span, got %d" (List.length lines)

(* ------------------------------------------------------------------ *)
(* Registry snapshots                                                   *)
(* ------------------------------------------------------------------ *)

let registry_snapshot () =
  let r = Obs.Registry.create () in
  let c = Obs.Registry.counter ~registry:r ~desc:"a counter" "snap.counter" in
  let t = Obs.Registry.timer ~registry:r "snap.timer" in
  Obs.Counter.incr ~n:3 c;
  Obs.Timer.add t 0.5;
  let json = Obs.Registry.to_json r in
  check (Alcotest.option Alcotest.int) "counter value" (Some 3)
    Obs.Json.(member "snap.counter" json |> Option.get |> member "value" |> Option.get |> to_int);
  check (Alcotest.option Alcotest.int) "timer count" (Some 1)
    Obs.Json.(member "snap.timer" json |> Option.get |> member "count" |> Option.get |> to_int);
  check Alcotest.bool "reparses" true (Result.is_ok (Obs.Json.of_string (Obs.Json.to_string (Obs.Registry.to_json r))));
  (* registering the same name again replaces, not duplicates *)
  let c2 = Obs.Registry.counter ~registry:r "snap.counter" in
  Obs.Counter.incr c2;
  check Alcotest.int "replaced" 2 (Testutil.registry_size r);
  (match Obs.Registry.find_counter r "snap.counter" with
  | Some found -> check Alcotest.int "fresh cell" 1 (Obs.Counter.value found)
  | None -> Alcotest.fail "lookup failed");
  Obs.Registry.reset r;
  check Alcotest.int "reset finds zero" 0
    (Option.get (Obs.Registry.find_counter r "snap.counter") |> Obs.Counter.value)

(* A counter and a timer cannot share a name: replacing one by the other
   would drop it from every snapshot. The existence analysis used to
   register both of its instruments as "analysis.existence". *)
let registry_kinds_disjoint () =
  let r = Obs.Registry.create () in
  let c = Obs.Registry.counter ~registry:r "same.name" in
  Alcotest.check_raises "timer over a counter"
    (Invalid_argument "Obs.Registry.register: \"same.name\" is already registered as another kind") (fun () ->
      ignore (Obs.Registry.timer ~registry:r "same.name"));
  Obs.Counter.incr c;
  check (Alcotest.option Alcotest.int) "the counter stays" (Some 1)
    (Option.map Obs.Counter.value (Obs.Registry.find_counter r "same.name"));
  ignore (Obs.Registry.timer ~registry:r "other.name");
  Alcotest.check_raises "counter over a timer"
    (Invalid_argument "Obs.Registry.register: \"other.name\" is already registered as another kind") (fun () ->
      ignore (Obs.Registry.counter ~registry:r "other.name"));
  check Alcotest.int "two items" 2 (Testutil.registry_size r);
  (* both existence instruments show up in the process snapshot *)
  let d = Obs.Registry.default () in
  let runs () =
    Option.fold ~none:(-1) ~some:Obs.Counter.value (Obs.Registry.find_counter d "analysis.existence_runs")
  in
  let timed () =
    Option.fold ~none:(-1) ~some:Obs.Timer.count (Obs.Registry.find_timer d "analysis.existence")
  in
  let runs0 = runs () and timed0 = timed () in
  ignore (Analysis.Existence.analyze (Topo_ring.make ~switches:4 ~terminals_per_switch:1));
  check Alcotest.int "existence runs counted" (runs0 + 1) (runs ());
  check Alcotest.int "existence runs timed" (timed0 + 1) (timed ());
  let json = Obs.Registry.to_json d in
  List.iter
    (fun name ->
      check Alcotest.bool (name ^ " in the snapshot") true (Option.is_some (Obs.Json.member name json)))
    [ "analysis.existence_runs"; "analysis.existence" ]

(* ------------------------------------------------------------------ *)
(* Acceptance: tracing the fabric manage path                           *)
(* ------------------------------------------------------------------ *)

(* Timer counts of a registry snapshot, by name. *)
let timer_counts registry =
  match Obs.Registry.to_json registry with
  | Obs.Json.Obj items ->
    List.filter_map
      (fun (name, j) ->
        match (Obs.Json.member "kind" j, Option.bind (Obs.Json.member "count" j) Obs.Json.to_int) with
        | Some (Obs.Json.Str "timer"), Some n -> Some (name, n)
        | _ -> None)
      items
  | _ -> []

(* Enabled tracing on a full fabric-manager run must emit valid
   JSON-lines spans covering the repair/verify/swap pipeline, with the
   routing and layer spans nested under manager spans. Every span is a
   timed stage: its name is a registry timer, its duration a sample that
   timer recorded, and each timer that ended a stage emitted one span
   per sample. *)
let fabric_manage_path_traced () =
  let g = fst (Topo_torus.torus ~dims:[| 3; 3 |] ~terminals_per_switch:2) in
  let rng = Rng.create 7 in
  let schedule = Fabric.Schedule.generate g ~rng ~events:5 ~switch_removals:1 ~drains:1 () in
  let buf = Buffer.create 8192 in
  let json_sink = Obs.Trace.buffer_sink buf in
  let records = ref [] in
  let sink =
    {
      Obs.Trace.emit =
        (fun sp ->
          records := sp :: !records;
          json_sink.Obs.Trace.emit sp);
      flush = json_sink.Obs.Trace.flush;
    }
  in
  let default = Obs.Registry.default () in
  let before = timer_counts default in
  let mgr_metrics =
    Obs.Control.with_enabled true (fun () ->
        Obs.Trace.with_sink sink (fun () ->
            match Fabric.Manager.create g with
            | Error msg -> Alcotest.failf "manager refused: %s" msg
            | Ok mgr ->
              let _ = List.map (Fabric.Manager.apply mgr) schedule in
              check Alcotest.bool "converged" true (Fabric.Manager.converged mgr);
              Fabric.Manager.metrics mgr))
  in
  let spans = parse_lines buf in
  check Alcotest.bool "spans emitted" true (List.length spans > 5);
  let names =
    List.filter_map (fun j -> Obs.Json.(member "name" j |> Option.get |> to_str)) spans
  in
  List.iter
    (fun expected ->
      check Alcotest.bool (expected ^ " span present") true (List.mem expected names))
    [ "fabric.apply"; "fabric.repair"; "fabric.verify"; "sssp.route_destinations"; "layers.assign" ];
  (* every span carries the flat record shape the sink promises *)
  List.iter
    (fun j ->
      List.iter
        (fun field -> check Alcotest.bool ("field " ^ field) true (Obs.Json.member field j <> None))
        [ "id"; "parent"; "name"; "ts"; "dur_ms" ])
    spans;
  (* parent links resolve within the emitted set *)
  let ids = List.filter_map (fun j -> Obs.Json.(member "id" j |> Option.get |> to_int)) spans in
  List.iter
    (fun j ->
      match Obs.Json.member "parent" j with
      | Some Obs.Json.Null | None -> ()
      | Some p -> (
        match Obs.Json.to_int p with
        | Some pid -> check Alcotest.bool "parent resolves" true (List.mem pid ids)
        | None -> Alcotest.fail "non-integer parent"))
    spans;
  (* A span is a timer: its name is registered, its duration is a
     sample the timer recorded, and the timers that ended stages during
     the run emitted one span per sample. *)
  let records = List.rev !records in
  let timer_of name =
    match Obs.Registry.find_timer mgr_metrics.Fabric.Metrics.registry name with
    | Some t -> Some t
    | None -> Obs.Registry.find_timer default name
  in
  List.iter
    (fun (sp : Obs.Trace.span) ->
      match timer_of sp.name with
      | None -> Alcotest.failf "span %s is not a registry timer" sp.name
      | Some t ->
        check Alcotest.bool (sp.name ^ ": duration is a recorded sample") true
          (Array.exists (fun x -> x = sp.dur_s) (Obs.Timer.samples t)))
    records;
  let spans_named name = List.length (List.filter (fun (sp : Obs.Trace.span) -> sp.name = name) records) in
  List.iter
    (fun (name, n) ->
      let n0 = Option.value ~default:0 (List.assoc_opt name before) in
      (* pool.slot_busy is added per slot by the pool, not timed *)
      if name <> "pool.slot_busy" then
        check Alcotest.int (name ^ ": one span per stage end") (n - n0) (spans_named name))
    (timer_counts default @ timer_counts mgr_metrics.Fabric.Metrics.registry);
  (* children sum to no more than their parent (1 us slack) *)
  List.iter
    (fun (sp : Obs.Trace.span) ->
      let children =
        List.fold_left
          (fun acc (c : Obs.Trace.span) -> if c.parent = Some sp.id then acc +. c.dur_s else acc)
          0.0 records
      in
      check Alcotest.bool (sp.name ^ ": children within the span") true (children <= sp.dur_s +. 1e-6))
    records;
  (* the swap's stages nest under the event's fabric.apply *)
  let by_id = Hashtbl.create 64 in
  List.iter (fun (sp : Obs.Trace.span) -> Hashtbl.replace by_id sp.id sp) records;
  let rec under_apply (sp : Obs.Trace.span) =
    match Option.bind sp.parent (Hashtbl.find_opt by_id) with
    | None -> false
    | Some p -> p.name = "fabric.apply" || under_apply p
  in
  List.iter
    (fun name ->
      check Alcotest.bool (name ^ " nested under fabric.apply") true
        (List.exists (fun (sp : Obs.Trace.span) -> sp.name = name && under_apply sp) records))
    [
      "fabric.repair";
      "fabric.verify";
      "dfsssp.class_walk";
      "analysis.existence";
      "analysis.certify";
      "analysis.certify_walk";
      "analysis.certify_generate";
      "analysis.certify_check";
      "epoch.swap_stats";
      "epoch.snapshot_expand";
    ];
  (* the migrated manager metrics saw the same run the spans did *)
  check Alcotest.bool "events counted" true (Fabric.Metrics.events_seen mgr_metrics = 5);
  check Alcotest.bool "verify timed" true (Obs.Timer.sum_s mgr_metrics.Fabric.Metrics.verify > 0.0);
  (* and the combined registry snapshot is valid JSON *)
  check Alcotest.bool "manager registry parses" true
    (Result.is_ok (Obs.Json.of_string (Obs.Json.to_string (Fabric.Metrics.to_json mgr_metrics))))

let () =
  Alcotest.run "obs"
    [
      ( "stat",
        [
          Alcotest.test_case "summarize/percentile" `Quick stat_basic;
          Alcotest.test_case "NaN ordering regression" `Quick stat_nan_deterministic;
          Alcotest.test_case "errors" `Quick stat_errors;
        ] );
      ( "counter",
        [
          Alcotest.test_case "slots and clamping" `Quick counter_basic;
          Alcotest.test_case "parallel increments" `Quick counter_parallel;
        ] );
      ( "timer",
        [
          Alcotest.test_case "accumulate and summarize" `Quick timer_basic;
          Alcotest.test_case "records on raise" `Quick timer_records_on_raise;
        ] );
      ( "pause",
        [
          Alcotest.test_case "no-op without a hook" `Quick pause_noop_without_hook;
          Alcotest.test_case "Timer.time runs the hook, Timer.add does not" `Quick pause_time_not_add;
          Alcotest.test_case "pool workers never run the hook" `Quick pause_not_run_by_pool_workers;
          Alcotest.test_case "no pause on slot 0 of a pool run" `Quick pause_suspended_on_slot0;
          Alcotest.test_case "previous hook restored after nesting and exceptions" `Quick
            pause_hook_restored;
          Alcotest.test_case "a pause inside the hook is ignored" `Quick pause_inside_hook_ignored;
          Alcotest.test_case "nested stage ends pause once" `Quick pause_once_for_nested_ends;
        ] );
      ( "json",
        [
          Alcotest.test_case "roundtrip" `Quick json_roundtrip;
          Alcotest.test_case "special floats" `Quick json_special_floats;
          Alcotest.test_case "errors" `Quick json_errors;
          Alcotest.test_case "unicode escapes" `Quick json_unicode;
          Alcotest.test_case "depth bomb rejected" `Quick json_depth_bomb;
          json_roundtrip_prop;
        ] );
      ( "trace",
        [
          Alcotest.test_case "nesting and attrs" `Quick trace_nesting;
          Alcotest.test_case "disabled is silent" `Quick trace_disabled_is_silent;
          Alcotest.test_case "error attribute" `Quick trace_error_attr;
        ] );
      ( "registry",
        [
          Alcotest.test_case "snapshot" `Quick registry_snapshot;
          Alcotest.test_case "a counter and a timer never share a name" `Quick registry_kinds_disjoint;
        ] );
      ("fabric", [ Alcotest.test_case "manage path traced" `Quick fabric_manage_path_traced ]);
    ]
