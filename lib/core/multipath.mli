(** LMC-style multipath DFSSSP: several forwarding planes per fabric, each
    an SSSP pass continuing the previous planes' channel-weight state (so
    later planes route around channels earlier planes loaded), with ONE
    virtual-layer assignment over the union of all planes' routes.

    This mirrors OpenSM with LMC > 0: every terminal owns [2^lmc]
    addresses, each routed separately; traffic hashes over the addresses
    and enjoys path diversity. Deadlock freedom must hold jointly — routes
    of different planes sharing a virtual lane share buffers — which is
    why the layer assignment runs over the combined path set. *)

type t

(** The forwarding planes; each carries its own per-route lane table.
    Do not mutate. *)
val planes : t -> Ftable.t array

(** Virtual lanes used jointly by all planes. *)
val num_layers : t -> int

(** [route ?planes ?heuristic ?max_layers g] computes [planes] (default 2)
    diverse planes and the joint deadlock-free lane assignment. *)
val route :
  ?planes:int ->
  ?heuristic:Heuristic.t ->
  ?max_layers:int ->
  Graph.t ->
  (t, Router.error) result

(** [spread_paths t ~flows] picks, for flow [i], the plane [i mod planes]
    (the address-hashing a multipath-aware MPI would do) and returns the
    chosen routes — ready for {!Simulator.Congestion.evaluate_paths}. *)
val spread_paths : t -> flows:(int * int) array -> Path.t array
