(* The one flag vocabulary of fabric_tool. Every subcommand takes its
   topology, counts, layer budget, manager configuration, schedule and
   output files from the terms below, so each option is spelled,
   documented and range-checked in one place. A bad value is a usage
   error (cmdliner's exit 124) whose message names the option. *)

open Cmdliner

(* Range-checked integers: every count flag is positive or
   non-negative. *)
let int_at_least lo what =
  let parse s =
    match int_of_string_opt s with
    | Some k when k >= lo -> Ok k
    | _ -> Error (`Msg (Printf.sprintf "expected %s, got %S" what s))
  in
  Arg.conv (parse, Format.pp_print_int)

let pos_int = int_at_least 1 "a positive integer"

(* Layer ids are bytes in a forwarding table, so a budget holds at most
   Ftable.max_layer_ids layers. *)
let layer_budget =
  let top = Routing.Ftable.max_layer_ids in
  let parse s =
    match int_of_string_opt s with
    | Some k when k >= 1 && k <= top -> Ok k
    | _ -> Error (`Msg (Printf.sprintf "expected a layer budget in 1..%d, got %S" top s))
  in
  Arg.conv (parse, Format.pp_print_int)

let nonneg_int = int_at_least 0 "a non-negative integer"

(* A topology spec as typed, and the fabric Harness.Topospec built from
   it. Parsing happens inside cmdliner, so a bad spec is a usage error. *)
type spec = {
  text : string;
  topo : Harness.Topospec.t;
}

let spec_conv =
  let parse text =
    match Harness.Topospec.parse text with
    | Ok topo -> Ok { text; topo }
    | Error msg -> Error (`Msg msg)
  in
  Arg.conv (parse, fun ppf s -> Format.pp_print_string ppf s.text)

let spec_doc = "Topology specification, one of: " ^ String.concat "; " Harness.Topospec.grammar_lines ^ "."

let spec_at ?(docv = "SPEC") i = Arg.(required & pos i (some spec_conv) None & info [] ~docv ~doc:spec_doc)

let spec = spec_at 0

let specs = Arg.(value & pos_all spec_conv [] & info [] ~docv:"SPEC" ~doc:spec_doc)

let seed = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed.")

let algorithm =
  let names = Dfsssp.Registry.names in
  Arg.(
    value
    & opt (enum (List.map (fun n -> (n, n)) names)) "dfsssp"
    & info [ "a"; "algorithm" ] ~docv:"NAME" ~doc:("Routing algorithm: " ^ String.concat ", " names ^ "."))

let max_layers =
  Arg.(
    value & opt layer_budget 8
    & info [ "max-layers" ] ~docv:"K"
        ~doc:"Virtual layer budget, 1..256 (InfiniBand hardware: 8 virtual lanes).")

(* The live manager's configuration, shared by manage and serve. *)
let manager_config =
  let make algorithm max_layers batch domains =
    { Fabric.Manager.default_config with algorithm; max_layers; batch; domains }
  in
  let batch =
    Arg.(
      value & opt pos_int 1
      & info [ "batch" ] ~docv:"B"
          ~doc:
            "Destinations per weight snapshot in full recomputes (1 = the sequential recurrence). \
             Batching changes the balancing, so it changes the tables and can change the layer \
             count; --domains alone never does.")
  in
  let domains =
    Arg.(
      value & opt pos_int 1
      & info [ "domains" ] ~docv:"D"
          ~doc:"Routing domains for full recomputes (a persistent worker pool when > 1).")
  in
  Term.(const make $ algorithm $ max_layers $ batch $ domains)

(* Churn schedules: generated counts, shared by manage and soak. *)
let events ~default =
  Arg.(value & opt nonneg_int default & info [ "events" ] ~docv:"N" ~doc:"Events to schedule.")

let switch_removals ~absent =
  Arg.(
    value
    & opt (some nonneg_int) None
    & info [ "switch-removals" ] ~absent ~docv:"N" ~doc:"Switch removals to schedule.")

let drains ~absent =
  Arg.(value & opt (some nonneg_int) None & info [ "drains" ] ~absent ~docv:"N" ~doc:"Switch drains to schedule.")

(* A schedule file to replay, or a generated mix of cable faults, switch
   removals and drains over the fabric. *)
let schedule =
  let load events seed file removals drains g =
    match file with
    | Some path ->
      Result.map_error (Printf.sprintf "schedule %s: %s" path)
        (Fabric.Schedule.of_string (In_channel.with_open_text path In_channel.input_all))
    | None ->
      Ok
        (Fabric.Schedule.generate g ~rng:(Netgraph.Rng.create seed) ~events
           ~switch_removals:(Option.value removals ~default:1)
           ~drains:(Option.value drains ~default:0) ())
  in
  let file =
    Arg.(
      value
      & opt (some file) None
      & info [ "schedule" ] ~docv:"FILE"
          ~doc:"Replay this schedule file (one \"down/up/drain/remove <id>\" per line) instead of generating one.")
  in
  Term.(const load $ events ~default:10 $ seed $ file $ switch_removals ~absent:"1" $ drains ~absent:"0")

(* Output files. [write] announces each file it writes on stdout (or
   [ppf]); [save] writes silently. *)
let out_file names ~doc = Arg.(value & opt (some string) None & info names ~docv:"FILE" ~doc)

let out = out_file [ "o"; "out" ] ~doc:"Write the fabric to $(docv) in the text format."

let dot =
  out_file [ "dot" ] ~doc:"Write the fabric to $(docv) as Graphviz DOT (the dialect $(b,import) reads)."

let save path contents = Out_channel.with_open_text path (fun oc -> Out_channel.output_string oc contents)

let write ?(ppf = Format.std_formatter) path contents =
  save path contents;
  Format.fprintf ppf "wrote %s@." path

let write_fabric ~out ~dot g =
  Option.iter (fun path -> write path (Netgraph.Serial.to_string g)) out;
  Option.iter (fun path -> write path (Netgraph.Topo_import.write_dot g)) dot

let ensure_dir dir = if not (Sys.file_exists dir) then Unix.mkdir dir 0o755
