type kind =
  | Switch
  | Terminal

type t = { id : int; kind : kind; name : string }

let is_switch n = n.kind = Switch

let is_terminal n = n.kind = Terminal

let kind_to_string = function
  | Switch -> "switch"
  | Terminal -> "terminal"

