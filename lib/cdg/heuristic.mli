(** Cycle-breaking heuristics (paper Section IV). The APP problem is
    NP-complete, so DFSSSP picks the edge to evict from a cycle
    heuristically; {!Layers} applies the choice to each cycle it finds,
    ties going to the earliest edge in cycle order:

    - [Weakest]: the edge induced by the fewest routes — moves the least
      work to the next layer; the paper's winner (3–5 layers on its random
      topologies).
    - [Heaviest]: the edge induced by the most routes — hopes to break
      undiscovered cycles alongside; the paper's worst (4–16 layers).
    - [First_edge]: the first edge of the discovered cycle —
      pseudo-random baseline (4–8 layers). *)

type t =
  | Weakest
  | Heaviest
  | First_edge

val all : t list

val to_string : t -> string
