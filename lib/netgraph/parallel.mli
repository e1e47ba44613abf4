(** Fork-join helpers over OCaml 5 domains for the embarrassingly parallel
    parts of the pipeline — effective-bisection-bandwidth sampling
    (independent random matchings) and per-component cycle breaking
    (independent strongly connected components). Work functions must be pure with respect
    to shared state: they may read the immutable fabric and routing
    tables, and must not touch shared mutable structures.

    A parallel region is never a pause point: {!Pool.run} runs with the
    calling domain's stage hook suspended ({!Obs.Timer.with_stage_hook}),
    and spawned workers start without one, so a stage timed inside a
    region ends without running the hook. *)

(** [Domain.recommended_domain_count], capped at 8 — the fan-out sweet
    spot for the workloads here. *)
val recommended_domains : unit -> int

(** The most domains one pool may have (64): two full pools and the
    main domain fit the OCaml runtime's 128-domain limit, as when the
    fabric manager's routing pool runs a nested {!init}. *)
val max_domains : int

(** [map_array ~domains f a] is [Array.map f a] computed on a throwaway
    {!Pool} of [domains] domains. [domains <= 1], or arrays of fewer than
    2 elements, run sequentially. The first exception raised by any chunk
    is re-raised after all domains joined. Ordering of results matches
    the input regardless of scheduling. *)
val map_array : ?domains:int -> ('a -> 'b) -> 'a array -> 'b array

(** [init ~domains n f] is [Array.init n f], parallelised the same way. *)
val init : ?domains:int -> int -> (int -> 'a) -> 'a array

(** Persistent worker pool with per-domain scratch state — the substrate
    of the domain-parallel routing pipeline (DESIGN.md section 12).

    Unlike {!init}/{!map_array}, which run on a fresh pool per call, a
    pool keeps its domains alive between tasks (idle workers sleep on a
    condition variable), so per-domain scratch — Dijkstra workspaces,
    flow arrays, weight-delta accumulators — survives from one task to
    the next and is re-validated cheaply by the caller (e.g. via epoch
    stamping) instead of being reallocated.

    A pool is driven from one domain at a time (the domain that calls
    {!Pool.run}); work functions may freely mutate their own scratch and
    any shared state partitioned so that no two indices touch the same
    cell. *)
module Pool : sig
  type 's t

  (** [create ?domains scratch] spawns [domains - 1] worker domains
      (default {!recommended_domains}) plus the calling domain as worker
      slot 0, and builds one scratch value per slot with [scratch slot].
      A pool of size 1 spawns nothing and runs everything inline.
      @raise Invalid_argument if [domains] exceeds {!max_domains}, before
      any domain is spawned. *)
  val create : ?domains:int -> (int -> 's) -> 's t

  (** Number of workers, including the calling domain. *)
  val size : 's t -> int

  (** [run pool ~n ?grain f] evaluates [f scratch i] for every
      [i] in [0..n-1], distributing indices over the workers in chunks of
      [grain] (default [n / (4 * size)], at least 1) via a shared cursor.
      Blocks until every index is done; the first exception raised by any
      chunk is re-raised afterwards (remaining chunks of that worker are
      abandoned, other workers drain normally). The calling domain's
      stage hook is suspended for the whole run.
      @raise Invalid_argument on a pool that was {!shutdown}. *)
  val run : 's t -> n:int -> ?grain:int -> ('s -> int -> unit) -> unit

  (** [iter_scratch pool f] applies [f] to every worker's scratch, in slot
      order, on the calling domain. Call it between {!run}s to merge
      per-domain accumulators into shared state deterministically. *)
  val iter_scratch : 's t -> ('s -> unit) -> unit

  (** [slot_scratch pool slot] is the scratch value of slot [slot]
      (0 being the calling domain's slot). Useful for running a batch
      inline on the caller without paying pool dispatch — the inline
      path of {!Routing.Batched.run} uses slot 0.
      @raise Invalid_argument if [slot] is out of range. *)
  val slot_scratch : 's t -> int -> 's

  (** Terminate and join the worker domains. Idempotent; the pool must
      not be used afterwards. *)
  val shutdown : 's t -> unit

  (** [with_pool ?domains scratch f] is [f (create ?domains scratch)]
      with a guaranteed {!shutdown}. *)
  val with_pool : ?domains:int -> (int -> 's) -> ('s t -> 'a) -> 'a
end
