type change =
  | Disabled of int list
  | Restored of int list
  | Rebuilt

type t = {
  mutable graph : Graph.t;
}

let create g = { graph = g }

let graph t = t.graph

let disabled_cables t = Degrade.disabled_cables t.graph

let enabled_cables t = Degrade.switch_cables t.graph

let apply t ev =
  match ev with
  | Event.Link_down cable -> (
    match Degrade.disable_cable t.graph ~cable with
    | Error msg -> Error msg
    | Ok (g, chans) ->
      t.graph <- g;
      Ok (Disabled chans))
  | Event.Link_up cable -> (
    match Degrade.restore_cable t.graph ~cable with
    | Error msg -> Error msg
    | Ok (g, chans) ->
      t.graph <- g;
      Ok (Restored chans))
  | Event.Switch_drain switch -> (
    match Degrade.drain_switch t.graph ~switch with
    | Error msg -> Error msg
    | Ok (g, chans) ->
      t.graph <- g;
      Ok (Disabled chans))
  | Event.Switch_remove switch -> (
    match Degrade.remove_switch t.graph ~switch with
    | Error msg -> Error msg
    | Ok g ->
      t.graph <- g;
      Ok Rebuilt)
