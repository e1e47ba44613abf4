(** The live fabric manager: an event-driven subnet-manager loop that owns
    a running fabric and its routing state, the way OpenSM owns an
    InfiniBand subnet. Feed it {!Event}s (or a whole {!Schedule}) and it
    converges after each one to forwarding tables that passed the epoch
    gate. Every table-changing event runs a full SSSP-plus-cycle-breaking
    recompute. Only when that fails — typically because the offline pass
    runs out of virtual layers — does an id-stable event under dfsssp go
    to the rescue ({!Repair}): re-route just the destinations whose trees
    used the changed channels, keep every other route and its layer, and
    place the new routes online within [max_layers]. Tables advance by
    verified epoch swaps ({!Epoch}); {!Metrics} counts everything. *)

type config = {
  algorithm : string;
      (** registry name used for full recomputes (default ["dfsssp"]);
          only ["dfsssp"] has a rescue — under anything else a failed
          recompute leaves the stale tables active *)
  max_layers : int;
      (** hard virtual-layer budget (hardware VLs), for full recomputes
          and rescues alike *)
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
      (** shortest-path kernel for full recomputes and rescues
          (DESIGN.md §15). Never changes the tables, only the
          wall-clock *)
  engine : Layers.engine;
      (** offline cycle-break engine for full recomputes (DESIGN.md
          section 17; default [`Scc]). [domains] also fans its
          per-component planning out. Layer counts stay within +1 of
          the [`Dfs] oracle *)
}

(** [{ algorithm = "dfsssp"; max_layers = 8; batch = 1; domains = 1;
    kernel = Spf.Auto; engine = `Scc }] *)
val default_config : config

type action =
  | Incremental of {
      repaired : int;  (** destinations the rescue re-routed *)
      total : int;  (** destinations in the fabric *)
    }
      (** the full recompute failed and the rescue ran; [note] holds the
          full recompute's failure *)
  | Full of string  (** full recompute, with the event's reason *)
  | Noop

type outcome = {
  event : Event.t;
  applied : bool;  (** [false]: event rejected, topology unchanged *)
  action : action;
  fallback : bool;  (** the full recompute failed and the rescue ran *)
  epoch : int;  (** active epoch after the event *)
  verify : Dfsssp.Verify.report option;
      (** verification report of the swapped-in tables; [None] when no
          swap happened (rejected event, no-op, or a failed recompute
          and rescue that left stale tables active — see [note]) *)
  table_diff : Ftable.diff option;
      (** forwarding-entry diff against the previous tables; [None]
          when the previous tables index another fabric (a structural
          rebuild re-assigned the ids) *)
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
    topology, recompute routes (rescuing if that fails), verify, swap.
    Never raises on fabric-level failures — inspect the outcome. When the
    active tables predate a structural rebuild whose recompute failed,
    they cannot seed a rescue: a failed recompute then leaves them active
    and the outcome's [note] says so. *)
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
