type t = Event.t list

let to_string sched = String.concat "" (List.map (fun e -> Event.to_string e ^ "\n") sched)

let of_string s =
  let lines = String.split_on_char '\n' s in
  let rec go acc lineno = function
    | [] -> Ok (List.rev acc)
    | line :: rest ->
      let line = String.trim line in
      if line = "" || line.[0] = '#' then go acc (lineno + 1) rest
      else (
        match Event.of_string line with
        | Ok e -> go (e :: acc) (lineno + 1) rest
        | Error msg -> Error (Printf.sprintf "line %d: %s" lineno msg))
  in
  go [] 1 lines

(* Try removing each switch in random order; keep the first whose removal
   stays connected and leaves at least two terminals to route between. *)
let pick_switch_removal sim rng =
  let candidates = Array.copy (Graph.switches (Fabstate.graph sim)) in
  Rng.shuffle rng candidates;
  let rec go i =
    if i >= Array.length candidates then None
    else begin
      let switch = candidates.(i) in
      match Degrade.remove_switch (Fabstate.graph sim) ~switch with
      | Ok g when Graph.num_terminals g >= 2 -> (
        match Fabstate.apply sim (Event.Switch_remove switch) with
        | Ok _ -> Some (Event.Switch_remove switch)
        | Error _ -> go (i + 1))
      | _ -> go (i + 1)
    end
  in
  go 0

let pick_drain sim rng =
  let switches = Graph.switches (Fabstate.graph sim) in
  if Array.length switches = 0 then None
  else begin
    let switch = Rng.pick rng switches in
    match Fabstate.apply sim (Event.Switch_drain switch) with
    | Ok _ -> Some (Event.Switch_drain switch)
    | Error _ -> None
  end

let pick_link_up sim rng =
  match Fabstate.disabled_cables sim with
  | [] -> None
  | cables -> (
    let cable = Rng.pick rng (Array.of_list cables) in
    match Fabstate.apply sim (Event.Link_up cable) with
    | Ok _ -> Some (Event.Link_up cable)
    | Error _ -> None)

let pick_link_down sim rng =
  let candidates = Fabstate.enabled_cables sim in
  Rng.shuffle rng candidates;
  let rec go i =
    if i >= Array.length candidates then None
    else (
      match Fabstate.apply sim (Event.Link_down candidates.(i)) with
      | Ok _ -> Some (Event.Link_down candidates.(i))
      | Error _ -> go (i + 1))
  in
  go 0

let generate g ~rng ~events ?(switch_removals = 0) ?(drains = 0) ?(up_fraction = 0.35) () =
  if events < 0 then invalid_arg "Schedule.generate: events < 0";
  let specials = min events (switch_removals + drains) in
  let special_at = if specials = 0 then [||] else Rng.sample_distinct rng ~n:specials ~bound:events in
  let removal_at = Hashtbl.create 4 and drain_at = Hashtbl.create 4 in
  Array.iteri
    (fun i pos ->
      if i < min switch_removals specials then Hashtbl.replace removal_at pos ()
      else Hashtbl.replace drain_at pos ())
    special_at;
  let sim = Fabstate.create g in
  let out = ref [] in
  for i = 0 to events - 1 do
    let ev =
      if Hashtbl.mem removal_at i then pick_switch_removal sim rng
      else if Hashtbl.mem drain_at i then pick_drain sim rng
      else begin
        let want_up =
          Fabstate.disabled_cables sim <> [] && Rng.float rng 1.0 < up_fraction
        in
        if want_up then pick_link_up sim rng
        else
          match pick_link_down sim rng with
          | Some _ as ev -> ev
          | None -> pick_link_up sim rng
      end
    in
    Option.iter (fun e -> out := e :: !out) ev
  done;
  List.rev !out
