(** The fabric controller daemon: a single-threaded, select-based event
    loop wrapping a {!Fabric.Manager}, serving many concurrent clients
    over the {!Proto} wire protocol.

    Design (DESIGN.md §14):

    - {b Reads are immediate and zero-copy.} Route queries resolve
      against the current epoch's {!Fabric.Epoch.snapshot} — paths are
      emitted straight from the {!Route_store} arena into the reply
      buffer, no per-query path materialization. A snapshot is immutable,
      so each reply reflects exactly one certified epoch; readers of an
      old epoch drain gracefully because the swap installs a new
      snapshot instead of mutating the exported one.
    - {b Reads do not wait out a swap.} Each manager step runs with a
      stage hook installed ({!Obs.Timer.with_stage_hook}): at the end
      of every timed stage of the step (SSSP, class walk, each condense
      and evict, existence, the certifier's walk, generation and check,
      statistics, ...) the loop polls its connections once, answers ready [route],
      [ping], [stats], [epoch] and [trace] requests from the pre-swap
      epoch, admits or sheds events, and leaves a connection's first
      [analyze] (and what follows it) for after the step. It never
      accepts, culls or steps the manager there.
    - {b Writes are admission-controlled and batched.} Topology events
      enter a bounded queue; when it is full the client gets an explicit
      [{"status":"busy"}] reply {e immediately} — load is shed visibly,
      never by hanging or silent drops. The events queued when a loop
      iteration drains become manager steps back-to-back; each reply is
      written as its step returns, the moment its epoch is published.
    - {b Shutdown is graceful everywhere.} A [shutdown] request, {!stop}
      (signal-handler safe) or an exception all funnel into the same
      teardown: drain pending replies (for at most 5 s), close
      sockets, unlink the Unix socket path, and
      {!Fabric.Manager.shutdown} the manager so worker domains are
      released and trace sinks flushed. *)

type config = {
  addr : Proto.addr;
  queue_depth : int;  (** admission bound for pending topology events *)
  max_frame : int;  (** refuse request frames larger than this; at least {!min_max_frame} *)
  tick_s : float;  (** select timeout: stop/drain latency bound *)
  trace_capacity : int;
      (** keep the most recent N trace spans in a ring served by the
          [trace] op; [0] leaves tracing untouched *)
  manager : Fabric.Manager.config;
}

(** [fabric.sock] in the working directory, queue depth 64, 1 MiB
    frames, 512-span ring, 20 ms tick,
    {!Fabric.Manager.default_config}. *)
val default_config : config

(** The smallest [max_frame] {!create} accepts (16 bytes). *)
val min_max_frame : int

type t

(** [create g] routes the initial fabric (exactly {!Fabric.Manager.create})
    and binds the listening socket; clients may connect as soon as this
    returns, even before {!serve} starts accepting. [Error] if the fabric
    cannot be routed or the address cannot be bound (an existing socket
    path is refused, not clobbered — remove it explicitly). *)
val create : ?config:config -> Graph.t -> (t, string) result

(** The bound address; for [Tcp (host, 0)] the port is the one the
    kernel picked. *)
val addr : t -> Proto.addr

val manager : t -> Fabric.Manager.t
val metrics : t -> Metrics.t

(** [serve t] runs the event loop until a [shutdown] request or {!stop},
    then tears down (sockets closed, path unlinked, manager shut down) —
    even when the loop body raises. Call at most once. *)
val serve : t -> unit

(** Request a graceful stop from a signal handler or another thread; the
    loop notices within [tick_s]. Safe to call repeatedly. *)
val stop : t -> unit
