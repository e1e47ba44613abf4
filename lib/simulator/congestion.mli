(** Static congestion evaluation — our reimplementation of ORCS, the
    Oblivious Routing Congestion Simulator the paper uses for Figures
    4–6: overlay every flow's route on the fabric, count routes per
    directed channel, and derive per-flow bandwidth shares.

    A flow's bandwidth share is [1 / max load along its route] (links are
    fair-shared; the most congested link is the bottleneck; virtual lanes
    share physical capacity, so load ignores layers). The effective
    bisection bandwidth of a fabric+routing is the mean share over many
    random perfect matchings — 1.0 means full wire speed for every pair. *)

type result = {
  flows : int;
  channel_load : int array;  (** routes per directed channel *)
  max_congestion : int;  (** hottest channel's load (0 if no flow moves) *)
  mean_share : float;  (** mean over flows of 1/bottleneck-load *)
  min_share : float;
  completion : float;  (** slowest flow's relative completion time, i.e.
                           max bottleneck load — the static-model time to
                           deliver one unit per flow *)
}

(** [evaluate ft ~flows] overlays the routes of all flows. Flows with
    [src = dst] are ignored.
    @raise Failure if a flow has no route in the table. *)
val evaluate : Ftable.t -> flows:Patterns.flow array -> result

(** [evaluate_paths g ~paths] is the metric over explicitly supplied
    routes (empty paths are ignored) — for multipath routings where each
    flow's route comes from a different forwarding plane. *)
val evaluate_paths : Netgraph.Graph.t -> paths:Netgraph.Path.t array -> result

type ebb = {
  samples : Obs.Stat.summary;  (** per-matching mean shares *)
  worst_pair : float;  (** smallest share seen in any matching *)
}

(** [effective_bisection_bandwidth ?patterns ?ranks ?domains ~rng ft]
    averages {!evaluate} over [patterns] (default 100) random perfect
    matchings of [ranks] (default: all terminals). [domains > 1] samples
    matchings on that many OCaml domains; per-matching PRNGs are split
    deterministically first, so the result is identical at any domain
    count. *)
val effective_bisection_bandwidth :
  ?patterns:int -> ?ranks:int array -> ?domains:int -> rng:Netgraph.Rng.t -> Ftable.t -> ebb

(** [completion_time ft ~flows ~bytes ~bandwidth] is the static-model time
    to complete all flows of [bytes] each over links of [bandwidth]
    (bytes/s): [bytes * max-bottleneck-load / bandwidth]. Used for the
    paper's all-to-all (Fig. 13) and NAS (Figs. 14–16) projections. *)
val completion_time : Ftable.t -> flows:Patterns.flow array -> bytes:float -> bandwidth:float -> float

type hotspot = {
  channel : int;
  load : int;
  src_name : string;
  dst_name : string;
}

(** [hotspots ?top ft ~flows] lists the most loaded directed channels
    (default 10), hottest first, with their endpoint names — the
    diagnostic view an operator wants when a routing underperforms. Only
    channels with non-zero load appear. *)
val hotspots : ?top:int -> Ftable.t -> flows:Patterns.flow array -> hotspot list

(** [load_histogram result] counts channels per load value: entry [(l, n)]
    means [n] channels carry exactly [l] routes; sorted by load, and
    [l = 0] included (idle channels). ORCS's "hist" output. *)
val load_histogram : result -> (int * int) list
