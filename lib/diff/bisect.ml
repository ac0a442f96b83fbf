module C = Memsim.Config
module O = Strideprefetch.Options

type config = {
  machine : C.machine;
  mode : O.mode;
  engine : Vm.Interp.engine;
  passes : bool;
  hw : C.hw_prefetch_model option;
  prediction : O.prediction_tier;
  threshold : int option;
  phased : bool;
  interproc : bool;
}

let default_config =
  {
    machine = C.pentium4;
    mode = O.Inter_intra;
    engine = Vm.Interp.Closure;
    passes = true;
    hw = None;
    prediction = O.Inspect;
    threshold = None;
    phased = false;
    interproc = false;
  }

let machine_of c =
  match c.hw with
  | None -> c.machine
  | Some hw -> { c.machine with C.hw_prefetch = hw }

let options c =
  {
    O.default with
    O.prediction = c.prediction;
    inter_stride_threshold = c.threshold;
    enable_phased = c.phased;
    inspect_calls = c.interproc;
  }

type axis =
  | Mode
  | Machine
  | Hw
  | Threshold
  | Prediction
  | Phased
  | Interproc
  | Passes
  | Engine

(* Cycle-moving axes first; the engine is simulation-neutral by
   construction (bit-identical cycles on both engines, fuzz-enforced),
   so probing it last lets the early stop skip it entirely. *)
let all_axes =
  [ Mode; Machine; Hw; Threshold; Prediction; Phased; Interproc; Passes; Engine ]

let axis_name = function
  | Mode -> "mode"
  | Machine -> "machine"
  | Hw -> "hw"
  | Threshold -> "threshold"
  | Prediction -> "prediction"
  | Phased -> "phased"
  | Interproc -> "interprocedural"
  | Passes -> "passes"
  | Engine -> "engine"

let axis_of_name s =
  match String.lowercase_ascii s with
  | "mode" -> Some Mode
  | "machine" -> Some Machine
  | "hw" | "hw-prefetch" -> Some Hw
  | "threshold" -> Some Threshold
  | "prediction" -> Some Prediction
  | "phased" -> Some Phased
  | "interprocedural" | "interproc" -> Some Interproc
  | "passes" -> Some Passes
  | "engine" -> Some Engine
  | _ -> None

let resolved_hw c = (machine_of c).C.hw_prefetch
let on_off b = if b then "on" else "off"

let axis_value c = function
  | Mode -> O.mode_name c.mode
  | Machine -> c.machine.C.name
  | Hw -> C.hw_prefetch_to_string (resolved_hw c)
  | Threshold -> (
      match c.threshold with None -> "default" | Some n -> string_of_int n)
  | Prediction -> O.prediction_name c.prediction
  | Phased -> on_off c.phased
  | Interproc -> on_off c.interproc
  | Passes -> on_off c.passes
  | Engine -> Vm.Interp.engine_name c.engine

let axis_differs a b ax = axis_value a ax <> axis_value b ax
let differing ~a ~b = List.filter (axis_differs a b) all_axes

(* Copy one axis's value from [src] onto [dst]. The hardware axis
   transplants the *resolved* model: if src rides its machine default,
   the default itself is carried over, not the None. *)
let transplant ax ~src dst =
  match ax with
  | Mode -> { dst with mode = src.mode }
  | Machine -> { dst with machine = src.machine }
  | Hw -> { dst with hw = Some (resolved_hw src) }
  | Threshold -> { dst with threshold = src.threshold }
  | Prediction -> { dst with prediction = src.prediction }
  | Phased -> { dst with phased = src.phased }
  | Interproc -> { dst with interproc = src.interproc }
  | Passes -> { dst with passes = src.passes }
  | Engine -> { dst with engine = src.engine }

(* --vs override parsing ------------------------------------------------ *)

let bool key v =
  match String.lowercase_ascii v with
  | "on" | "true" -> Ok true
  | "off" | "false" -> Ok false
  | _ -> Error (Printf.sprintf "bad %s value %S (on/off)" key v)

let parse_one c kv =
  match String.index_opt kv '=' with
  | None -> Error (Printf.sprintf "override %S is not key=value" kv)
  | Some i -> (
      let key = String.lowercase_ascii (String.sub kv 0 i) in
      let v = String.sub kv (i + 1) (String.length kv - i - 1) in
      match key with
      | "machine" | "m" -> (
          match C.machine_of_name v with
          | Some m -> Ok { c with machine = m }
          | None -> Error (Printf.sprintf "unknown machine %S" v))
      | "mode" | "p" ->
          Result.map (fun mode -> { c with mode }) (O.mode_of_string v)
      | "engine" -> (
          match Vm.Interp.engine_of_string (String.lowercase_ascii v) with
          | Some e -> Ok { c with engine = e }
          | None -> Error (Printf.sprintf "unknown engine %S" v))
      | "hw" | "hw-prefetch" -> (
          match C.hw_prefetch_of_string v with
          | Ok hw -> Ok { c with hw = Some hw }
          | Error e -> Error e)
      | "prediction" | "pred" -> (
          match O.prediction_of_string v with
          | Ok p -> Ok { c with prediction = p }
          | Error e -> Error e)
      | "threshold" | "thr" -> (
          match String.lowercase_ascii v with
          | "default" -> Ok { c with threshold = None }
          | _ -> (
              match int_of_string_opt v with
              | Some n -> Ok { c with threshold = Some n }
              | None -> Error (Printf.sprintf "bad threshold %S" v)))
      | "phased" -> Result.map (fun phased -> { c with phased }) (bool key v)
      | "interprocedural" | "interproc" ->
          Result.map (fun interproc -> { c with interproc }) (bool key v)
      | "passes" -> Result.map (fun passes -> { c with passes }) (bool key v)
      | _ ->
          Error
            (Printf.sprintf
               "unknown axis %S (machine, mode, engine, hw-prefetch, \
                prediction, threshold, phased, interprocedural, passes)"
               key))

let apply_overrides c spec =
  let parts =
    String.split_on_char ',' spec |> List.map String.trim
    |> List.filter (fun s -> s <> "")
  in
  if parts = [] then Error "empty --vs override list"
  else
    List.fold_left
      (fun acc kv -> Result.bind acc (fun c -> parse_one c kv))
      (Ok c) parts

let config_strings ~workload c =
  {
    Rundata.c_workload = workload;
    c_machine = c.machine.C.name;
    c_mode = O.mode_name c.mode;
    c_engine = Vm.Interp.engine_name c.engine;
    c_hw = C.hw_prefetch_to_string (resolved_hw c);
    c_prediction = O.prediction_name c.prediction;
    c_threshold = c.threshold;
    c_passes = c.passes;
    c_phased = c.phased;
    c_interproc = c.interproc;
  }

(* Bisection ----------------------------------------------------------- *)

type outcome = {
  cycles_a : int;
  cycles_b : int;
  delta : int;
  candidates : axis list;
  probes : (axis * int) list;
  responsible : axis list;
  exact : bool;
  replays : int;
}

let run ~replay ~a ~b =
  let replays = ref 0 in
  let replay c =
    incr replays;
    replay c
  in
  let ca = replay a in
  let cb = replay b in
  let delta = cb - ca in
  let candidates = differing ~a ~b in
  let finish probes responsible exact =
    {
      cycles_a = ca;
      cycles_b = cb;
      delta;
      candidates;
      probes;
      responsible;
      exact;
      replays = !replays;
    }
  in
  if delta = 0 then finish [] [] true
  else
    match candidates with
    | [] ->
        (* Same config, different cycles: determinism itself is broken —
           report everything as suspect rather than pretending. *)
        finish [] [] false
    | [ ax ] -> finish [] [ ax ] true
    | _ -> (
        (* Flip one axis at a time from A toward B; stop the moment a
           flip reproduces B exactly. *)
        let rec probe acc = function
          | [] -> (List.rev acc, None)
          | ax :: rest ->
              let c = replay (transplant ax ~src:b a) in
              if c = cb then (List.rev ((ax, c) :: acc), Some ax)
              else probe ((ax, c) :: acc) rest
        in
        let probes, hit = probe [] candidates in
        match hit with
        | Some ax -> finish probes [ ax ] true
        | None -> (
            let moving = List.filter (fun (_, c) -> c <> ca) probes in
            match moving with
            | [] ->
                (* Pure interaction: no single flip moves cycles, yet the
                   full set does. The minimal explanation is the whole
                   candidate set (flipping all of them *is* B). *)
                finish probes candidates true
            | _ ->
                let responsible = List.map fst moving in
                let joint =
                  List.fold_left
                    (fun acc ax -> transplant ax ~src:b acc)
                    a responsible
                in
                let cj = replay joint in
                finish probes responsible (cj = cb)))

let render ~a ~b outcome =
  let buf = Buffer.create 1024 in
  let line fmt =
    Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt
  in
  line "bisect: cycles A=%d  B=%d  delta=%+d" outcome.cycles_a outcome.cycles_b
    outcome.delta;
  List.iter
    (fun ax ->
      line "  axis %-10s A=%s  B=%s" (axis_name ax) (axis_value a ax)
        (axis_value b ax))
    outcome.candidates;
  List.iter
    (fun (ax, c) ->
      line "  probe %-10s A+{%s<-B}: %d cycles (%+d vs A)%s" (axis_name ax)
        (axis_name ax) c (c - outcome.cycles_a)
        (if c = outcome.cycles_b then "  = B, early stop" else ""))
    outcome.probes;
  (match outcome.responsible with
  | [] when outcome.delta = 0 -> line "verdict: no cycle delta to explain"
  | [] -> line "verdict: UNEXPLAINED — identical configs, differing cycles"
  | axes ->
      line "verdict: responsible axis%s: %s%s (%d replay%s)"
        (if List.length axes = 1 then "" else " set")
        (String.concat ", " (List.map axis_name axes))
        (if outcome.exact then "" else "  [joint flip does not reproduce B \
                                        exactly — interaction with remaining \
                                        axes]")
        outcome.replays
        (if outcome.replays = 1 then "" else "s"));
  Buffer.contents buf
