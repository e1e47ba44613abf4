(** Epoch-based verified table swaps — the manager's safety gate. The
    active forwarding tables only ever advance to a candidate that passes,
    in order:

    + the topology-level existence gate ({!Analysis.Existence}): a layer
      budget below the fabric's provable minimum is refused outright;
    + the deadlock-freedom certificate
      ({!Analysis.Analyzer.certify_classes}): the trusted checker walks
      the candidate's route classes itself — the one table walk of the
      swap — and accepts a per-layer topological witness over them and
      the candidate's per-pair layers. A checked witness proves every
      layer's channel dependency graph acyclic, so this is the only
      deadlock gate; the churn soak's second opinion, the A007 witness
      search ({!Analysis.Witness.of_table}), runs outside the gate;
    + statistics from the certified classes ({!Dfsssp.Verify.of_classes},
      timer [epoch.swap_stats]): completeness is the successful walk, a
      pair's hop count is one plus its class's length, minimality one
      reverse BFS per destination.

    The new epoch's snapshot then serves the certified classes expanded
    into a per-pair store ({!Routing.Ftable.expand}, timer
    [epoch.snapshot_expand]) — no second table walk — so the first route
    query after a swap walks nothing. A rejected candidate leaves
    the active epoch and its snapshot untouched, exactly like a subnet
    manager that keeps serving the old LFTs until the new ones check
    out. *)

type entry = {
  epoch : int;
  label : string;  (** what produced this epoch, e.g. ["initial"] or ["down 42 (full)"] *)
  verify_s : float;
}

(** A read-only export of one epoch's routing state: the verified tables
    plus their per-pair routes expanded once into a {!Route_store} arena, so
    route queries resolve as O(1) slices of a flat buffer with no
    per-query path allocation. Snapshots are immutable — a swap installs
    a {e new} snapshot and never mutates an exported one, so readers
    holding a snapshot across a swap keep reading a consistent epoch
    until they drop it (graceful drain, courtesy of the GC). *)
type snapshot = {
  snap_epoch : int;
  tables : Ftable.t;  (** the tables this epoch serves *)
  store : Route_store.t;
      (** every ordered terminal pair's path, arena form: the per-pair
          expansion of the very route classes the certificate was checked
          against *)
  num_layers : int;  (** layer count of [tables] at snapshot time *)
  report : Dfsssp.Verify.report;  (** the gate's report on [tables] *)
}

type t

(** No active tables, epoch 0. *)
val create : unit -> t

val epoch : t -> int

(** The tables currently being served, if any epoch was installed. *)
val active : t -> Ftable.t option

(** Installed epochs, oldest first. *)
val history : t -> entry list

(** [snapshot t] is the current epoch's read-only export, installed by
    the swap that created the epoch. [Error] when no epoch is active. *)
val snapshot : t -> (snapshot, string) result

(** [try_swap t ~label candidate] runs the gate on [candidate] and, on
    success, installs it as the next epoch, whose snapshot serves the
    certified store. Always returns the gate's wall time. [Error] names
    the refusal — a certificate refusal is prefixed ["certificate:"], an
    existence refusal ["existence:"] — and means the active tables and
    snapshot were kept. *)
val try_swap :
  t -> label:string -> Ftable.t -> (Dfsssp.Verify.report, string) result * float
