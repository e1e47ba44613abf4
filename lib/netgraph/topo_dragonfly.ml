let default_groups ~a ~h = Builder.size_product [ a; h ] + 1

(* Global cable k (0 <= k < a*h) of group i leads to group (i+k+1) mod g,
   leaving from switch (k / h) of group i; laying each cable from the
   lower-numbered group only avoids duplicates, with the remote attachment
   switch derived from the reverse relative index. *)
let make ~a ~p ~h ?groups () =
  if a < 1 then invalid_arg "Topo_dragonfly.make: a < 1";
  if p < 0 then invalid_arg "Topo_dragonfly.make: p < 0";
  if h < 1 then invalid_arg "Topo_dragonfly.make: h < 1";
  let g = Option.value ~default:(default_groups ~a ~h) groups in
  if g < 2 then invalid_arg "Topo_dragonfly.make: fewer than 2 groups";
  if g > default_groups ~a ~h then invalid_arg "Topo_dragonfly.make: too many groups for a*h global ports";
  let switches = Builder.size_product [ g; a ] in
  Builder.check_nodes ~what:"Topo_dragonfly.make" (switches + Builder.size_product [ switches; p ]);
  let b = Builder.create () in
  let sw =
    Array.init g (fun grp -> Array.init a (fun s -> Builder.add_switch b ~name:(Printf.sprintf "g%ds%d" grp s)))
  in
  (* local all-to-all within each group *)
  Array.iter
    (fun group ->
      for i = 0 to a - 1 do
        for j = i + 1 to a - 1 do
          let (_ : int * int) = Builder.add_link b group.(i) group.(j) in
          ()
        done
      done)
    sw;
  (* global cables *)
  for grp = 0 to g - 1 do
    for k = 0 to (a * h) - 1 do
      let target = (grp + k + 1) mod g in
      if target <> grp && grp < target then begin
        let remote_k = (grp - target - 1 + (2 * g)) mod g in
        (* remote_k is the relative index the target group uses for us;
           only valid as a cable when within its global-port range *)
        if remote_k < a * h then begin
          let (_ : int * int) = Builder.add_link b sw.(grp).(k / h) sw.(target).(remote_k / h) in
          ()
        end
      end
    done
  done;
  (* terminals *)
  Array.iteri
    (fun grp group ->
      Array.iteri
        (fun s switch ->
          for t = 0 to p - 1 do
            let (_ : int) =
              Builder.add_terminal b ~name:(Printf.sprintf "t%d_%d_%d" grp s t) ~switch
            in
            ()
          done)
        group)
    sw;
  Builder.build b
