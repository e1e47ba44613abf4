(** The live fabric manager: an event-driven subnet-manager loop that owns
    a running fabric and its routing state, the way OpenSM owns an
    InfiniBand subnet. Feed it {!Event}s (or a whole {!Schedule}) and it
    converges after each one to forwarding tables that passed the full
    deadlock-freedom verifier, preferring {e incremental} repair —
    recompute only the destinations whose forwarding trees the event
    touched ({!Repair}) — and falling back to a full
    SSSP-plus-cycle-breaking recompute when the incremental path exceeds
    its budgets or its candidate fails verification. Tables advance by
    verified epoch swaps ({!Epoch}); {!Metrics} counts everything. *)

type config = {
  algorithm : string;
      (** registry name used for full recomputes (default ["dfsssp"]);
          only ["dfsssp"] has an incremental path — anything else makes
          every event a full recompute *)
  max_layers : int;  (** hard virtual-layer budget (hardware VLs) *)
  layer_budget : int;
      (** layers the incremental path may use before falling back to a
          full recompute (clamped to [max_layers]) *)
  repair_fraction : float;
      (** incremental repair only when at most this fraction of
          destinations is affected; above it, recompute everything *)
  batch : int;
      (** destinations per weight snapshot in full recomputes (the
          batched-snapshot pipeline, DESIGN.md section 12); 1 = the
          sequential recurrence. Changes the tables a full recompute
          produces (still minimal, still balanced) *)
  domains : int;
      (** routing domains for full recomputes; with [> 1] the manager
          holds a persistent worker pool for its whole lifetime (release
          with {!release}). Never changes the tables, only the
          wall-clock *)
  kernel : Spf.kind;
      (** shortest-path kernel for full recomputes and incremental
          repairs (DESIGN.md §15). Never changes the tables, only the
          wall-clock *)
  engine : Layers.engine;
      (** offline cycle-break engine for full recomputes (DESIGN.md
          section 17; default [`Scc]). [domains] also fans its
          per-component planning out. Layer counts stay within +1 of
          the [`Dfs] oracle *)
}

(** [{ algorithm = "dfsssp"; max_layers = 8; layer_budget = 8;
    repair_fraction = 0.5; batch = 1; domains = 1; kernel = Spf.Auto;
    engine = `Scc }] *)
val default_config : config

type action =
  | Incremental of {
      repaired : int;  (** destinations recomputed *)
      total : int;  (** destinations in the fabric *)
    }
  | Full of string  (** full recompute, with the reason *)
  | Noop

type outcome = {
  event : Event.t;
  applied : bool;  (** [false]: event rejected, topology unchanged *)
  action : action;
  fallback : bool;  (** incremental was attempted and abandoned *)
  epoch : int;  (** active epoch after the event *)
  verify : Dfsssp.Verify.report option;
      (** verification report of the swapped-in tables; [None] when no
          swap happened (rejected event, no-op, or a failed recompute
          that left stale tables active — see [note]) *)
  table_diff : Ftable.diff option;
      (** forwarding-entry diff against the previous tables; [None]
          across structural rebuilds (ids re-assigned) *)
  note : string;  (** human-readable detail, [""] when all went well *)
  elapsed_s : float;
}

type t

(** [create g] routes the initial fabric and installs epoch 1. [Error] if
    the fabric cannot be routed deadlock-free within [max_layers], or has
    fewer than two terminals.
    @raise Invalid_argument on a non-positive layer budget. *)
val create : ?config:config -> Graph.t -> (t, string) result

val config : t -> config

(** The fabric as the manager currently sees it. *)
val graph : t -> Graph.t

(** The active (last verified) forwarding tables. *)
val tables : t -> Ftable.t

val metrics : t -> Metrics.t
val epoch : t -> int
val epoch_history : t -> Epoch.entry list

(** All outcomes so far, oldest first — the manager's event log. *)
val event_log : t -> outcome list

(** [apply t ev] processes one topology event end to end: mutate the
    topology, repair or recompute routes, verify, swap. Never raises on
    fabric-level failures — inspect the outcome. *)
val apply : t -> Event.t -> outcome

(** [run t schedule] applies every event in order. *)
val run : t -> Schedule.t -> outcome list

(** [converged t] is [true] iff every applied, table-changing event so
    far ended in a verified swap (the convergence criterion of
    [fabric_tool manage]). *)
val converged : t -> bool

(** The current epoch's read-only export ({!Epoch.snapshot}): routes as
    arena slices, built once per epoch and cached. The serving path of
    the controller daemon ({!Service.Server}). *)
val snapshot : t -> (Epoch.snapshot, string) result

(** [release t] shuts down the manager's routing-domain pool (a no-op
    when [domains = 1] or already released). The manager remains usable;
    later full recomputes simply run without a persistent pool. *)
val release : t -> unit

(** [shutdown t] is {!release} plus a flush of any installed trace sink —
    the teardown every exit path (clean, exception, signal handler) must
    reach so a dying process neither leaks domains nor truncates traces.
    Idempotent; the manager remains usable afterwards. *)
val shutdown : t -> unit

val pp_outcome : Format.formatter -> outcome -> unit

(** Metrics, fabric stats and the epoch gate's report on the active
    tables (no fresh walk of the tables). *)
val pp_summary : Format.formatter -> t -> unit
