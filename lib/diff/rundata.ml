module J = Telemetry.Json

type prov = {
  p_method : string;
  p_loop : int;
  p_actions : string list;
  p_rejected : int;
  p_promoted : bool;
  p_low_trip : bool;
  p_iterations : int;
  p_steps : int;
  p_skipped : bool;
  p_shortened : bool;
}

type t = {
  workload : string;
  config : Bisect.config option;
  profile : Profile.Report.t;
  attribution : Memsim.Attribution.site_counters option;
  provenance : prov list;
}

let schema = "spf_run/v1"

let attribution_fields =
  Memsim.Attribution.
    [
      ("issued", fun c -> c.issued);
      ("useful", fun c -> c.useful);
      ("late", fun c -> c.late);
      ("useless", fun c -> c.useless);
      ("cancelled", fun c -> c.cancelled);
      ("redundant", fun c -> c.redundant);
      ("redundant_hw", fun c -> c.redundant_hw);
    ]

(* ------------------------------------------------------------------ *)
(* From a live harness run.                                            *)

(* One provenance record per (method, loop). A method recompile would
   contribute two pass reports for the same loop; merge them so the join
   key stays unique. *)
let provenance_of_reports reports =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun (rep : Strideprefetch.Pass.loop_report) ->
      let key = (rep.method_name, rep.loop_id) in
      let actions =
        List.map Strideprefetch.Codegen.action_descriptor rep.plan.actions
      in
      let fresh =
        {
          p_method = rep.method_name;
          p_loop = rep.loop_id;
          p_actions = actions;
          p_rejected = List.length rep.plan.rejected;
          p_promoted = rep.promoted;
          p_low_trip = rep.skipped_low_trip;
          p_iterations = rep.iterations_observed;
          p_steps = rep.inspection_steps;
          p_skipped = rep.inspection_skipped;
          p_shortened = rep.inspection_shortened;
        }
      in
      match Hashtbl.find_opt tbl key with
      | None -> Hashtbl.replace tbl key fresh
      | Some old ->
          Hashtbl.replace tbl key
            {
              old with
              p_actions = old.p_actions @ fresh.p_actions;
              p_rejected = old.p_rejected + fresh.p_rejected;
              p_promoted = old.p_promoted || fresh.p_promoted;
              p_low_trip = old.p_low_trip || fresh.p_low_trip;
              p_iterations = old.p_iterations + fresh.p_iterations;
              p_steps = old.p_steps + fresh.p_steps;
              p_skipped = old.p_skipped || fresh.p_skipped;
              p_shortened = old.p_shortened || fresh.p_shortened;
            })
    reports;
  Hashtbl.fold (fun _ p acc -> p :: acc) tbl []
  |> List.map (fun p -> { p with p_actions = List.sort compare p.p_actions })
  |> List.sort (fun a b -> compare (a.p_method, a.p_loop) (b.p_method, b.p_loop))

let of_run ~config (r : Workloads.Harness.run_result) =
  match r.profile with
  | None -> Error "run carries no profile (made without ~profile:true)"
  | Some profile ->
      Ok
        {
          workload = r.workload;
          config = Some config;
          profile;
          attribution =
            Option.map
              (fun (eff : Workloads.Effectiveness.t) -> eff.totals)
              r.effectiveness;
          provenance = provenance_of_reports r.reports;
        }

(* ------------------------------------------------------------------ *)
(* JSON.                                                               *)

let config_json c =
  J.Obj
    (List.map
       (fun ax -> (Bisect.axis_name ax, J.Str (Bisect.axis_value c ax)))
       Bisect.all_axes)

let prov_json p =
  J.Obj
    [
      ("method", J.Str p.p_method);
      ("loop", J.Int p.p_loop);
      ("actions", J.List (List.map (fun a -> J.Str a) p.p_actions));
      ("rejected", J.Int p.p_rejected);
      ("promoted", J.Bool p.p_promoted);
      ("low_trip", J.Bool p.p_low_trip);
      ("iterations", J.Int p.p_iterations);
      ("steps", J.Int p.p_steps);
      ("skipped", J.Bool p.p_skipped);
      ("shortened", J.Bool p.p_shortened);
    ]

let to_json t =
  let opt f = function None -> J.Null | Some x -> f x in
  J.Obj
    ([
       ("schema", J.Str schema);
       ("workload", J.Str t.workload);
       ("config", opt config_json t.config);
     ]
    @ Profile.Report.members t.profile
    @ [
        ( "attribution",
          opt
            (fun c ->
              J.Obj
                (List.map
                   (fun (name, get) -> (name, J.Int (get c)))
                   attribution_fields))
            t.attribution );
        ("provenance", J.List (List.map prov_json t.provenance));
      ])

(* Lenient field readers: an absent number reads as 0, an absent string
   as "?", an absent flag as false. *)
let mem_str name v =
  match J.member name v with Some (J.Str s) -> s | _ -> "?"

let mem_int name v = match J.member name v with Some (J.Int i) -> i | _ -> 0

let mem_bool name v =
  match J.member name v with Some (J.Bool b) -> b | _ -> false

let mem_list name v = match J.member name v with Some (J.List l) -> l | _ -> []

(* Each config member is one [--vs] override, applied in file order to
   the default config. spf_diff/v1 wrote some values as JSON booleans,
   integers and null; they mean on/off, N and default. A hardware model
   equal to the machine's own reads back as [None] (the machine
   default), the form every run configuration starts from. *)
let config_of_json = function
  | J.Obj members -> (
      let value = function
        | J.Str s -> Some s
        | J.Bool b -> Some (if b then "on" else "off")
        | J.Int n -> Some (string_of_int n)
        | J.Null -> Some "default"
        | _ -> None
      in
      let apply acc (key, v) =
        Result.bind acc (fun c ->
            if key = "workload" then Ok c
            else
              match value v with
              | Some v -> Bisect.apply_overrides c (key ^ "=" ^ v)
              | None -> Error (Printf.sprintf "ill-typed value for %S" key))
      in
      match List.fold_left apply (Ok Bisect.default_config) members with
      | Ok ({ hw = Some hw; _ } as c) when hw = c.machine.hw_prefetch ->
          Ok (Some { c with hw = None })
      | Ok c -> Ok (Some c)
      | Error e -> Error ("config: " ^ e))
  | J.Null -> Ok None
  | _ -> Error "config: not an object"

let attribution_of_json = function
  | J.Obj _ as v ->
      Some
        {
          Memsim.Attribution.issued = mem_int "issued" v;
          cancelled = mem_int "cancelled" v;
          redundant = mem_int "redundant" v;
          redundant_hw = mem_int "redundant_hw" v;
          useful = mem_int "useful" v;
          late = mem_int "late" v;
          useless = mem_int "useless" v;
        }
  | _ -> None

let prov_of_json v =
  {
    p_method = mem_str "method" v;
    p_loop = mem_int "loop" v;
    p_actions =
      List.filter_map
        (function J.Str s -> Some s | _ -> None)
        (mem_list "actions" v);
    p_rejected = mem_int "rejected" v;
    p_promoted = mem_bool "promoted" v;
    p_low_trip = mem_bool "low_trip" v;
    p_iterations = mem_int "iterations" v;
    p_steps = mem_int "steps" v;
    p_skipped = mem_bool "skipped" v;
    p_shortened = mem_bool "shortened" v;
  }

let ( let* ) = Result.bind

let of_json v =
  let config = Option.value (J.member "config" v) ~default:J.Null in
  let* workload =
    match J.member "schema" v with
    | Some (J.Str s) when s = schema -> Ok (mem_str "workload" v)
    | Some (J.Str "spf_diff/v1") -> Ok (mem_str "workload" config)
    | Some (J.Str "spf_prof/v1") -> Ok "?"
    | Some (J.Str s) ->
        Error
          (Printf.sprintf
             "unsupported schema %S (expected %s, spf_prof/v1 or spf_diff/v1)"
             s schema)
    | _ -> Error "no schema field"
  in
  let* config = config_of_json config in
  let* profile = Profile.Report.of_json v in
  Ok
    {
      workload;
      config;
      profile;
      attribution =
        Option.bind (J.member "attribution" v) attribution_of_json;
      provenance = List.map prov_of_json (mem_list "provenance" v);
    }

let load path =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error e -> Error e
  | text ->
      Result.map_error (Printf.sprintf "%s: %s" path)
        (Result.bind (J.parse text) of_json)
