type algorithm = {
  name : string;
  deadlock_free_by_design : bool;
  run : Graph.t -> (Ftable.t, string) result;
}

let dfsssp_run ?variant ~max_layers ?batch ?domains g =
  match Router.route ?variant ~max_layers ?batch ?domains g with
  | Ok ft -> Ok ft
  | Error e -> Error (Router.error_to_string e)

(* Harden an arbitrary base routing with the offline layer assignment —
   the APP machinery is routing-agnostic (DESIGN.md: ablations). *)
let hardened base ~max_layers g =
  match base g with
  | Error _ as e -> e
  | Ok ft -> Result.map_error Router.error_to_string (Router.assign_layers ~max_layers ft)

let all ?coords ?(max_layers = 8) ?batch ?domains () =
  [
    {
      name = "minhop";
      deadlock_free_by_design = false;
      run = Routing.Minhop.route ?batch ?domains;
    };
    {
      name = "updown";
      deadlock_free_by_design = true;
      run = Routing.Updown.route ?batch ?domains;
    };
    { name = "ftree"; deadlock_free_by_design = true; run = Routing.Ftree.route ?domains };
    {
      name = "dor";
      deadlock_free_by_design = false;
      run =
        (fun g ->
          match coords with
          | None -> Error "dor: no grid coordinates available for this fabric"
          | Some c -> Routing.Dor.route ?domains g c);
    };
    {
      name = "lash";
      deadlock_free_by_design = true;
      run = (fun g -> Routing.Lash.route ~max_layers g);
    };
    {
      name = "sssp";
      deadlock_free_by_design = false;
      run = Routing.Sssp.route ?batch ?domains;
    };
    {
      name = "dfsssp";
      deadlock_free_by_design = true;
      run = dfsssp_run ~max_layers ?batch ?domains;
    };
    {
      name = "dfsssp-online";
      deadlock_free_by_design = true;
      run = dfsssp_run ~variant:Router.Online ~max_layers ?batch ?domains;
    };
    {
      name = "dfminhop";
      deadlock_free_by_design = true;
      run = (fun g -> hardened (Routing.Minhop.route ?batch ?domains) ~max_layers g);
    };
    {
      name = "dfdor";
      deadlock_free_by_design = true;
      run =
        (fun g ->
          match coords with
          | None -> Error "dfdor: no grid coordinates available for this fabric"
          | Some c -> hardened (fun g -> Routing.Dor.route ?domains g c) ~max_layers g);
    };
  ]

let names = List.map (fun a -> a.name) (all ())

let find ?coords ?max_layers ?batch ?domains name =
  let target = String.lowercase_ascii name in
  List.find_opt (fun a -> a.name = target) (all ?coords ?max_layers ?batch ?domains ())
