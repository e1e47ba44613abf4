type t =
  | Weakest
  | Heaviest
  | First_edge

let all = [ Weakest; Heaviest; First_edge ]

let to_string = function
  | Weakest -> "weakest"
  | Heaviest -> "heaviest"
  | First_edge -> "first-edge"
