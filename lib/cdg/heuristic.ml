type t =
  | Weakest
  | Heaviest
  | First_edge

let all = [ Weakest; Heaviest; First_edge ]

let to_string = function
  | Weakest -> "weakest"
  | Heaviest -> "heaviest"
  | First_edge -> "first-edge"

let of_string s =
  match String.lowercase_ascii s with
  | "weakest" -> Ok Weakest
  | "heaviest" -> Ok Heaviest
  | "first-edge" | "first" -> Ok First_edge
  | other -> Error (Printf.sprintf "unknown heuristic %S (want weakest|heaviest|first-edge)" other)
