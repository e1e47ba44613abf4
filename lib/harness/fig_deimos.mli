(** The Deimos measurement campaign of the paper's Section VI, replayed on
    the Deimos stand-in fabric through the static congestion model:
    Fig. 12 (Netgauge effective bisection bandwidth over core counts),
    Fig. 13 (all-to-all time vs. message size), Figs. 14–16 (NAS BT/SP/FT
    scaling) and Table II (NAS improvements at 1024 cores).

    Ranks are scattered over the fabric like a batch-system allocation
    (seeded random node set, multiple ranks per node once the node pool is
    exhausted, as on the real machine). NAS performance is a two-term
    model [T = serial_work/p + bytes_per_pair(p) * congestion / bandwidth]
    whose constants are documented in EXPERIMENTS.md; the reproduced
    quantity is the routing-induced ratio, not absolute Gflop/s. *)

val fig12 : ?scale:int -> ?cores:int list -> ?patterns:int -> ?seed:int -> unit -> Report.table

(** Fig. 12 on the discrete-event simulator ({!Simulator.Netsim}): each
    pair of a random matching ships [1 MiB]; the cell is the mean achieved
    pair bandwidth in MB/s. Dynamic effects (head-of-line blocking, credit
    stalls) widen the routing gap the static model compresses; this is the
    closest analogue of the paper's Netgauge measurement. Expensive —
    [matchings] per cell (default 3). *)
val fig12_dynamic :
  ?scale:int -> ?cores:int list -> ?matchings:int -> ?seed:int -> unit -> Report.table

val fig13 : ?scale:int -> ?cores:int -> ?float_counts:int list -> ?seed:int -> unit -> Report.table

(** [nas_figure ~kernel ...] is Fig. 14, 15 or 16 for kernel [BT], [SP]
    or [FT] (or the CG/MG/LU variants the paper omits); rows are core
    counts, cells the modelled relative Gflop/s (higher is better,
    arbitrary units). [Error] names an unknown kernel. *)
val nas_figure :
  kernel:string -> ?scale:int -> ?cores:int list -> ?seed:int -> unit -> (Report.table, string) result

(** Table II: modelled DFSSSP-vs-MinHop improvement for all six kernels at
    1024 (scaled) cores. *)
val table2 : ?scale:int -> ?cores:int -> ?seed:int -> unit -> Report.table
