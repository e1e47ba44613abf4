(* Monotonic counters with per-slot cells. A counter created with
   [slots = k] gives every worker slot its own cell, so domains on
   different slots never contend on the same atomic; cells are strided
   across cache lines to keep neighbouring slots from false sharing.
   [value] folds the cells at read time — snapshots are advisory, not
   linearizable, which is all telemetry needs. *)

let stride = 8 (* ints per cell: one 64-byte cache line apart *)

type t = {
  name : string;
  desc : string;
  slots : int;
  cells : int Atomic.t array; (* length slots * stride; cell i lives at i * stride *)
}

let create ?(slots = 1) ?(desc = "") name =
  if slots < 1 then invalid_arg "Obs.Counter.create: slots < 1";
  { name; desc; slots; cells = Array.init (slots * stride) (fun _ -> Atomic.make 0) }

let name t = t.name

(* Out-of-range slots clamp to the last cell, so callers with more
   workers than cells degrade to sharing rather than crashing. *)
let cell t slot = t.cells.(min (max slot 0) (t.slots - 1) * stride)

let incr ?(slot = 0) ?(n = 1) t = ignore (Atomic.fetch_and_add (cell t slot) n)

(* Gauge-style assignment (epoch numbers, high-water marks): writes slot
   0; only meaningful on single-writer counters. *)
let set ?(slot = 0) t v = Atomic.set (cell t slot) v

let slot_value t slot = Atomic.get (cell t slot)

let value t =
  let sum = ref 0 in
  for i = 0 to t.slots - 1 do
    sum := !sum + Atomic.get t.cells.(i * stride)
  done;
  !sum

let reset t =
  for i = 0 to t.slots - 1 do
    Atomic.set t.cells.(i * stride) 0
  done

let to_json t =
  let base =
    [ ("kind", Json.Str "counter"); ("value", Json.Num (float_of_int (value t))) ]
  in
  let per_slot =
    if t.slots <= 1 then []
    else
      [
        ( "per_slot",
          Json.List (List.init t.slots (fun i -> Json.Num (float_of_int (slot_value t i)))) );
      ]
  in
  let desc = if t.desc = "" then [] else [ ("desc", Json.Str t.desc) ] in
  Json.Obj (base @ per_slot @ desc)
