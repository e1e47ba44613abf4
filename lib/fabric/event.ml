type t =
  | Link_down of int
  | Link_up of int
  | Switch_drain of int
  | Switch_remove of int

let to_string = function
  | Link_down c -> Printf.sprintf "down %d" c
  | Link_up c -> Printf.sprintf "up %d" c
  | Switch_drain s -> Printf.sprintf "drain %d" s
  | Switch_remove s -> Printf.sprintf "remove %d" s

let of_string s =
  match String.split_on_char ' ' (String.trim s) |> List.filter (fun w -> w <> "") with
  | [ verb; arg ] -> (
    match int_of_string_opt arg with
    | None -> Error (Printf.sprintf "event %S: %S is not an integer" s arg)
    | Some n -> (
      match String.lowercase_ascii verb with
      | "down" -> Ok (Link_down n)
      | "up" -> Ok (Link_up n)
      | "drain" -> Ok (Switch_drain n)
      | "remove" -> Ok (Switch_remove n)
      | _ -> Error (Printf.sprintf "event %S: unknown verb %S" s verb)))
  | _ -> Error (Printf.sprintf "event %S: want \"<verb> <id>\"" s)
