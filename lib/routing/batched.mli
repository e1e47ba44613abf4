(** Batched-snapshot destination loop: the one per-destination loop of
    every routing engine (SSSP, MinHop, Up*/Down*, FTree, DOR —
    DESIGN.md section 12). It owns the engine's shared balancing state
    (SSSP channel weights, MinHop/Up*Down* port loads; empty for FTree
    and DOR) and decides, per batch of destinations, where a destination
    reads that state and where its contributions land:

    - a {e fan-out} batch reads a copy of the state taken at the batch
      start, on the pool's domains; each slot's contributions go into
      its own sparse delta, merged in slot order at the batch end;
    - an {e inline} batch of more than one destination reads the live
      state on the caller; contributions go into slot 0's delta, merged
      at the batch end;
    - an inline batch of one destination adds straight into the state.
      That is the sequential recurrence, with no delta and no merge.

    With [batch = 1] the loop is observably identical to the sequential
    per-destination recurrence (a snapshot of one destination's worth of
    state is always current). For any fixed [batch], the result is
    independent of the pool size: destinations only read the frozen
    state, contributions are per-destination sums merged with
    commutative addition, and forwarding entries live in
    per-destination table columns. *)

(** [set_auto_sizing false] disables pool-aware sizing process-wide:
    every batched run fans out over the full pool regardless of
    hardware, batch width, or work size. Results are identical either
    way; the switch exists so determinism tests exercise the real
    fan-out path even on single-domain machines. Default: enabled. *)
val set_auto_sizing : bool -> unit

(** The least work, in batch destinations times the engine's per-item
    cost (the channel count for the routing engines), that pool-aware
    sizing fans out: a smaller batch runs inline on the caller (16384). *)
val inline_threshold : int

(** How one destination sees the balancing state. A destination must
    never read an entry it has already added to: an inline batch of one
    destination adds into [reads] itself, the other modes do not, and
    results are identical across modes only under that condition. *)
type view = {
  reads : int array;
      (** the state as of the batch start: the live array, or a copy
          for a fan-out batch *)
  add : int -> int -> unit;
      (** [add i x] contributes [x > 0] to entry [i] of the state *)
  top : int;
      (** the largest state entry at the batch start: bounds [reads]
          until the destination adds *)
}

(** A pool of worker slots, each holding an engine scratch of type ['s]
    and the driver's per-slot delta. Graph-independent: the delta grows
    to each run's state. *)
type 's slot

type 's pool = 's slot Parallel.Pool.t

(** [create_pool ?domains scratch] is {!Parallel.Pool.create} with one
    [scratch slot] per slot. Release it with {!Parallel.Pool.shutdown}. *)
val create_pool : ?domains:int -> (int -> 's) -> 's pool

(** [with_pool ?domains scratch f] is [f (create_pool ?domains scratch)]
    with a guaranteed shutdown. A pool of size 1 spawns nothing. *)
val with_pool : ?domains:int -> (int -> 's) -> ('s pool -> 'a) -> 'a

(** [run ?snapshot_timer ~cost ~pool ~batch ~state ~dsts dest] routes
    every destination in [dsts], in batches of [batch] (clamped to
    [>= 1]), with [dest scratch view dst] on some slot's scratch. A
    destination's [Error] stops the loop after the current batch, and the
    error returned is the one of the lowest destination index, as a
    sequential scan would find it; the state keeps the contributions of
    every destination run. Exceptions from [dest] propagate.

    With auto sizing on, the run fans out only when the pool has more
    than one slot, the batch more than one destination, and a batch
    enough work ([batch x cost], with [cost] the per-destination work
    proxy — typically the channel count) to amortise the dispatch;
    otherwise it runs inline on the caller with identical results.
    [snapshot_timer] times the state copies a fan-out batch takes. *)
val run :
  ?snapshot_timer:Obs.Timer.t ->
  cost:int ->
  pool:'s pool ->
  batch:int ->
  state:int array ->
  dsts:int array ->
  ('s -> view -> int -> (unit, string) result) ->
  (unit, string) result
