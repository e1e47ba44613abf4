(** The live fabric manager: an event-driven subnet-manager loop that owns
    a running fabric and its routing state, the way OpenSM owns an
    InfiniBand subnet. Feed it {!Event}s (or a whole {!Schedule}) and it
    converges after each one to forwarding tables that passed the epoch
    gate. Every table-changing event runs a full SSSP-plus-cycle-breaking
    recompute. Under dfsssp that recompute is {!Dfsssp.build}: when the
    offline pass (Algorithm 2) runs out of virtual layers, the same SSSP
    routes are placed online, path at a time (the paper's other
    variant), within the same [max_layers]; the outcome reports that
    fallback and why it ran, and [fabric.fallbacks] counts it, at
    bring-up too. Tables advance by verified epoch swaps ({!Epoch});
    {!Metrics} counts everything. *)

type config = {
  algorithm : string;
      (** registry name used for full recomputes (default ["dfsssp"]);
          only ["dfsssp"] falls back to the online placement *)
  max_layers : int;
      (** hard virtual-layer budget (hardware VLs), for the offline pass
          and the online fallback alike *)
  batch : int;
      (** destinations per weight snapshot in full recomputes (the
          batched-snapshot pipeline, DESIGN.md section 12); 1 = the
          sequential recurrence (the driver adds each destination's
          load in place). Changes the tables a full recompute
          produces (still minimal, still balanced) *)
  domains : int;
      (** routing domains for full recomputes; with [> 1] the manager
          holds a persistent worker pool for its whole lifetime (released
          by {!shutdown}). Never changes the tables, only the
          wall-clock *)
  kernel : Spf.kind;
      (** shortest-path kernel that dfsssp full recomputes pass to
          {!Dfsssp.build} (DESIGN.md §15): [Bucket], or the [Heap]
          oracle; other algorithms run [Bucket]. Never changes the
          tables, only the wall-clock. No CLI flag sets it: it stays
          because the bring-up benchmark reads it, and goes with
          ROADMAP item 1 *)
  engine : Layers.engine;
      (** offline cycle-break engine (DESIGN.md section 17). One-valued
          ([`Scc]), so the manager does not pass it on: it stays only
          because the end-to-end benchmark ([e2ebench/bringup.ml])
          reads it, and goes with ROADMAP item 1 *)
}

(** [{ algorithm = "dfsssp"; max_layers = 8; batch = 1; domains = 1;
    kernel = Spf.Bucket; engine = `Scc }] *)
val default_config : config

type action =
  | Incremental of {
      repaired : int;
      total : int;
    }
      (** never constructed: it stays only because the end-to-end
          benchmark ([e2ebench/churn.ml]) matches on it, and goes with
          ROADMAP item 1 *)
  | Full of string  (** full recompute, with the event's reason *)
  | Noop

type outcome = {
  event : Event.t;
  applied : bool;  (** [false]: event rejected, topology unchanged *)
  action : action;
  fallback : bool;
      (** Algorithm 2 ran out of layers and the swapped-in tables were
          placed online; [note] names the offline failure *)
  epoch : int;  (** active epoch after the event *)
  verify : Dfsssp.Verify.report option;
      (** verification report of the swapped-in tables; [None] when no
          swap happened (rejected event, no-op, or a failed recompute
          that left stale tables active — see [note]) *)
  table_diff : Ftable.diff option;
      (** forwarding-entry diff against the previous tables; [None]
          when the previous tables index another fabric (a structural
          rebuild re-assigned the ids) *)
  note : string;  (** human-readable detail, [""] when all went well *)
  elapsed_s : float;
}

type t

(** [create g] routes the initial fabric and installs epoch 1, with the
    same online fallback as every full recompute; a fallback counts in
    [fabric.fallbacks] and {!initial_fallback} says why. [Error] if the
    fabric has fewer than two terminals or cannot be routed deadlock-free
    within [max_layers]; the message then names both failed placements.
    @raise Invalid_argument on a non-positive layer budget. *)
val create : ?config:config -> Graph.t -> (t, string) result

val config : t -> config

(** The fabric as the manager currently sees it. *)
val graph : t -> Graph.t

(** The active (last verified) forwarding tables. *)
val tables : t -> Ftable.t

(** [Some note] when Algorithm 2 ran out of layers at bring-up and the
    initial tables were placed online; [note] names the offline failure. *)
val initial_fallback : t -> string option

val metrics : t -> Metrics.t
val epoch : t -> int
val epoch_history : t -> Epoch.entry list

(** [apply t ev] processes one topology event end to end: mutate the
    topology, recompute routes (online if Algorithm 2 runs out of
    layers), verify, swap. Never raises on fabric-level failures — inspect
    the outcome. A failed recompute leaves the active tables in place and
    its [note] names every failed placement. *)
val apply : t -> Event.t -> outcome

(** [converged t] is [true] iff every applied, table-changing event so
    far ended in a verified swap (the convergence criterion of
    [fabric_tool manage]). *)
val converged : t -> bool

(** The current epoch's read-only export ({!Epoch.snapshot}): routes as
    arena slices, built once per epoch and cached. The serving path of
    the controller daemon ({!Service.Server}). *)
val snapshot : t -> (Epoch.snapshot, string) result

(** [shutdown t] shuts down the manager's routing-domain pool (a no-op
    when [domains = 1] or already shut down; later full recomputes run
    without a persistent pool) and flushes any installed trace sink —
    the teardown every exit path (clean, exception, signal handler) must
    reach so a dying process neither leaks domains nor truncates traces.
    Idempotent; the manager remains usable afterwards. *)
val shutdown : t -> unit

val pp_outcome : Format.formatter -> outcome -> unit

(** Metrics, fabric stats and the epoch gate's report on the active
    tables (no fresh walk of the tables). *)
val pp_summary : Format.formatter -> t -> unit
