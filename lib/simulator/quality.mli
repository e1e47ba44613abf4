(** Whole-routing quality metrics beyond a single traffic pattern: path
    length distribution and all-pairs channel load balance. The paper's
    two levers are exactly these — SSSP keeps lengths minimal (latency)
    while balancing the per-channel route counts (bandwidth); Up*/Down*
    gives up both near the root, LASH gives up balance. *)

type t = {
  pairs : int;
  min_hops : int;
  max_hops : int;
  mean_hops : float;
  diameter_hops : int;  (** BFS lower bound over terminal pairs *)
  max_load : int;  (** routes on the hottest channel (all-pairs traffic) *)
  mean_load : float;  (** over switch-to-switch channels with any load *)
  load_cv : float;  (** coefficient of variation of switch-channel loads —
                        0 = perfectly balanced *)
}

(** [measure ft] routes every ordered terminal pair once (uniform all-pairs
    traffic, the load SSSP explicitly balances) and summarizes. Terminal
    attachment channels are excluded from the load statistics: their load
    is topology-determined, not routing-determined.
    @raise Failure if some pair has no route. *)
val measure : Ftable.t -> t
