(** Traffic patterns: arrays of (source, destination) terminal pairs.

    Includes the patterns of the paper's evaluation — random bisection
    matchings (Netgauge/ORCS effective bisection bandwidth), all-to-all
    (the paper's Fig. 13 microbenchmark and the FT/IS NAS kernels) — and
    communication-skeleton proxies for the NAS Parallel Benchmarks used on
    Deimos (Figs. 14–16, Table II). The NAS proxies reproduce each
    kernel's {e pattern} (who talks to whom per iteration); volumes are
    supplied separately to the congestion model. *)

type flow = int * int
(** (source terminal node id, destination terminal node id) *)

(** [random_bisection rng ranks] splits [ranks] into two random halves and
    matches them perfectly, one flow per pair, A -> B direction (a second
    call gives a fresh matching). Odd rank counts leave one rank idle.
    @raise Invalid_argument on fewer than 2 ranks. *)
val random_bisection : Netgraph.Rng.t -> int array -> flow array

(** Every ordered pair of distinct ranks. *)
val all_to_all : int array -> flow array

(** [ring_shift ~by ranks]: rank i sends to rank (i + by) mod n. *)
val ring_shift : by:int -> int array -> flow array

(** {1 Classic adversarial permutations}

    The standard synthetic patterns of the interconnect literature (Dally
    & Towles): each is a permutation of the rank index space, known to
    stress specific routing weaknesses. Power-of-two rank counts where the
    bit structure demands it. *)

(** rank i -> rank (i + n/2 - 1) mod n: tornado, the adversarial pattern
    for rings and tori. Any rank count >= 3. *)
val tornado : int array -> (flow array, string) result

(** All four, by name, for sweep experiments:
    - ["bit-complement"], rank i -> rank (~i): the classic worst case for
      dimension-order routing on meshes. Power-of-two rank counts.
    - ["bit-reverse"], rank i -> bit-reversed i: FFT-style permutation.
      Power-of-two rank counts.
    - ["transpose"], rank (r, c) -> rank (c, r) on the square rank grid:
      matrix transpose. Square rank counts.
    - ["tornado"], {!tornado}. *)
val adversarial : (string * (int array -> (flow array, string) result)) list

(** {1 NAS parallel benchmark communication skeletons}

    Rank counts must satisfy each kernel's requirement (square for BT/SP,
    power of two for FT/CG/MG, rectangular grid for LU); generators check
    and reject other counts, like the originals. *)

(** BT: square process grid, synchronous 2-D torus halo (4 neighbours). *)
val nas_bt : int array -> (flow array, string) result

(** SP: same decomposition as BT (the kernels differ in volume, supplied
    to the time model, not in the skeleton). *)
val nas_sp : int array -> (flow array, string) result

(** FT: transpose-based 3-D FFT — all-to-all. *)
val nas_ft : int array -> (flow array, string) result

(** CG: power-of-two grid; row-neighbour exchanges plus transpose
    partners. *)
val nas_cg : int array -> (flow array, string) result

(** MG: 3-D decomposition, halo exchanges at distances 1, 2, 4, ... (the
    multigrid hierarchy) along each dimension. *)
val nas_mg : int array -> (flow array, string) result

(** LU: 2-D pipelined wavefront, nearest-neighbour NSEW without wrap. *)
val nas_lu : int array -> (flow array, string) result

(** The Table II kernel set, in the paper's order. *)
val nas_kernels : (string * (int array -> (flow array, string) result)) list
