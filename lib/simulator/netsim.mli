(** Discrete-event, message-level network simulator with credit-based
    virtual-lane flow control — the dynamic counterpart of the static
    {!Congestion} model. Messages are segmented into MTU packets;
    channels serialize packets at a configured bandwidth with per-hop
    propagation latency; a packet may only start crossing a channel when
    the downstream per-lane buffer has a free slot (credit), and the
    credit returns once the packet moves on. This captures the phenomena
    the static model cannot: head-of-line blocking, credit stalls, and
    transient congestion trees — the effects behind the gap between the
    paper's simulated (Fig. 4) and measured (Fig. 12) Deimos results.

    A wedged fabric is detected exactly: the event queue drains while
    packets remain, which with credit flow control can only happen on a
    buffer-dependency cycle. The converse does not hold. A routing whose
    channel dependency graph is acyclic per lane always drains, but
    whether a cyclic one wedges depends on the schedule: packet sizes,
    credits, hop latency and arbitration order. A drained run proves
    nothing about a cyclic routing.

    {!packet_config} runs the same model in packet time, the setting of
    the paper's Fig. 2 and of the lane ablations: one packet per byte, one
    time unit per packet per wire, no hop latency. *)

type config = {
  bandwidth : float;  (** channel bandwidth, bytes/second *)
  latency : float;  (** per-hop propagation + forwarding, seconds *)
  mtu : int;  (** packet size, bytes *)
  credits : int;  (** downstream buffer slots per (channel, lane) *)
  num_vls : int;
  max_events : int;  (** safety stop *)
}

(** 1 GB/s links, 1 us hops, 4 KiB MTU, 4 credits, 8 lanes. *)
val default_config : config

(** Packet time: 1-byte packets on 1 byte/unit wires with zero hop
    latency, 2 credits, 8 lanes. A flow's byte count is its packet count,
    and [makespan], [time] and latencies read in packet times: an
    uncontended packet's latency is its hop count. *)
val packet_config : config

type flow_stat = {
  src : int;
  dst : int;
  bytes : int;
  start : float;  (** first packet began transmitting *)
  finish : float;  (** last packet delivered *)
}

(** [bandwidth_of stat] is the flow's achieved rate in bytes/second. *)
val bandwidth_of : flow_stat -> float

type outcome =
  | Completed of {
      makespan : float;
      flows : flow_stat array;
      packets : int;
      mean_packet_latency : float;
    }
  | Deadlocked of {
      time : float;
      delivered : int;  (** packets that made it *)
      stuck : int;  (** packets wedged in buffers or source queues *)
    }
  | Out_of_events of { delivered : int }

(** [run ?config ft ~flows] simulates [(src, dst, bytes)] message flows,
    all injected at time zero, routed and laned by [ft].
    @raise Invalid_argument on bad config, flows with [src = dst],
    negative sizes, lanes beyond [num_vls], or more packets than
    [max_events] (each delivered packet costs at least one event, so such
    a workload could never complete; it is refused before any packet is
    queued).
    @raise Failure if a flow has no route. *)
val run : ?config:config -> Ftable.t -> flows:(int * int * int) array -> outcome

val pp_outcome : Format.formatter -> outcome -> unit
