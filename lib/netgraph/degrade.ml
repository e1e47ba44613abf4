(* Rebuild a graph from a subset of its nodes and cables. [keep_cable]
   receives the lower channel id of each bidirectional pair. Disabled
   channels are dropped: the rebuilt graph materializes only the enabled
   fabric. *)
let rebuild ?keep_node ?keep_cable g =
  let b = Builder.create () in
  let (_ : int array) = Builder.add_graph ?keep_node ?keep_cable b g in
  Builder.build b

let switch_cables g =
  let out = ref [] in
  Array.iter
    (fun (c : Channel.t) ->
      match Graph.reverse_channel g c.id with
      | Some r when r < c.id -> ()
      | _ ->
        if Graph.is_switch g c.src && Graph.is_switch g c.dst && Graph.channel_enabled g c.id then
          out := c.id :: !out)
    (Graph.channels g);
  Array.of_list (List.rev !out)

let cable_channels g c =
  match Graph.reverse_channel g c with
  | Some r -> if r < c then [ r; c ] else [ c; r ]
  | None -> [ c ]

(* Switch-level connectivity over the enabled adjacency, pretending the
   channels in [skip] are gone too. *)
let switch_connected_without g ~skip =
  let switches = Graph.switches g in
  if Array.length switches = 0 then true
  else begin
    let skipped = Hashtbl.create 4 in
    List.iter (fun c -> Hashtbl.replace skipped c ()) skip;
    let seen = Hashtbl.create 64 in
    let queue = Queue.create () in
    Hashtbl.replace seen switches.(0) ();
    Queue.add switches.(0) queue;
    while not (Queue.is_empty queue) do
      let u = Queue.take queue in
      Array.iter
        (fun c ->
          let v = (Graph.channel g c).Channel.dst in
          if Graph.is_switch g v && (not (Hashtbl.mem skipped c)) && not (Hashtbl.mem seen v) then begin
            Hashtbl.replace seen v ();
            Queue.add v queue
          end)
        (Graph.out_channels g u)
    done;
    Hashtbl.length seen = Array.length switches
  end

let remove_cables g ~rng ~count =
  let removed = ref [] (* channels of the removed cables *) in
  let candidates = switch_cables g in
  Rng.shuffle rng candidates;
  let taken = ref 0 in
  Array.iter
    (fun cable ->
      let chans = cable_channels g cable in
      if !taken < count && switch_connected_without g ~skip:(chans @ !removed) then begin
        removed := chans @ !removed;
        incr taken
      end)
    candidates;
  (rebuild g ~keep_cable:(fun c -> not (List.mem c !removed)), !taken)

let check_cable g ~cable =
  if cable < 0 || cable >= Graph.num_channels g then Error "unknown channel id"
  else
    let c = Graph.channel g cable in
    if not (Graph.is_switch g c.Channel.src && Graph.is_switch g c.Channel.dst) then
      Error "not a switch-to-switch cable"
    else Ok (cable_channels g cable)

let disable_cable g ~cable =
  match check_cable g ~cable with
  | Error msg -> Error (Printf.sprintf "Degrade.disable_cable: %s" msg)
  | Ok chans ->
    if List.exists (fun c -> not (Graph.channel_enabled g c)) chans then
      Error "Degrade.disable_cable: cable already disabled"
    else if not (switch_connected_without g ~skip:chans) then
      Error "Degrade.disable_cable: would disconnect the fabric"
    else begin
      let enabled = Array.init (Graph.num_channels g) (Graph.channel_enabled g) in
      List.iter (fun c -> enabled.(c) <- false) chans;
      Ok (Graph.with_enabled g ~enabled, chans)
    end

let restore_cable g ~cable =
  match check_cable g ~cable with
  | Error msg -> Error (Printf.sprintf "Degrade.restore_cable: %s" msg)
  | Ok chans ->
    if List.exists (Graph.channel_enabled g) chans then
      Error "Degrade.restore_cable: cable not disabled"
    else begin
      let enabled = Array.init (Graph.num_channels g) (Graph.channel_enabled g) in
      List.iter (fun c -> enabled.(c) <- true) chans;
      Ok (Graph.with_enabled g ~enabled, chans)
    end

let drain_switch g ~switch =
  if switch < 0 || switch >= Graph.num_nodes g || not (Graph.is_switch g switch) then
    Error "Degrade.drain_switch: not a switch"
  else begin
    (* Greedily disable the switch's inter-switch cables, keeping the ones
       whose loss would disconnect the fabric (terminals attached to the
       drained switch keep a path out through those survivors). *)
    let enabled = Array.init (Graph.num_channels g) (Graph.channel_enabled g) in
    let taken = ref [] in
    Array.iter
      (fun c ->
        let dst = (Graph.channel g c).Channel.dst in
        if Graph.is_switch g dst && enabled.(c) then begin
          let chans = cable_channels g c in
          if switch_connected_without g ~skip:(!taken @ chans) then begin
            List.iter (fun c -> enabled.(c) <- false) chans;
            taken := chans @ !taken
          end
        end)
      (Graph.out_channels g switch);
    if !taken = [] then Ok (g, [])
    else Ok (Graph.with_enabled g ~enabled, List.sort compare !taken)
  end

let disabled_cables g =
  let out = ref [] in
  Array.iter
    (fun (c : Channel.t) ->
      match Graph.reverse_channel g c.id with
      | Some r when r < c.id -> ()
      | _ -> if not (Graph.channel_enabled g c.id) then out := c.id :: !out)
    (Graph.channels g);
  List.rev !out

let remove_switch g ~switch =
  if switch < 0 || switch >= Graph.num_nodes g || not (Graph.is_switch g switch) then
    Error "Degrade.remove_switch: not a switch"
  else begin
    let keep_node v =
      v <> switch
      &&
      if Graph.is_terminal g v then (Graph.channel g (Graph.out_channels g v).(0)).Channel.dst <> switch
      else true
    in
    let g' = rebuild g ~keep_node in
    if Graph.num_nodes g' > 0 && Graph.connected g' then Ok g'
    else Error "Degrade.remove_switch: remainder disconnected"
  end
