(* Statistical bench-regression gate over bench_hotpath/v2 reports.

   Two signals, two standards of evidence:

   - Simulated cycles are a pure function of the cell (the whole repo is
     built around that), so any cycle difference between two reports of
     the same code is a real behavioural change. The gate demands exact
     equality per matched cell.

   - Host wall-clock seconds are noisy, so the gate treats them
     statistically: the per-cell ratio new/old is aggregated as a
     geometric mean, and a deterministic bootstrap (resampling the
     per-cell log-ratios, fixed seed) yields a 95% confidence interval.
     Only a slowdown whose whole interval clears the practical threshold
     (default +5%) fails the gate — same-host re-runs of the same commit
     must pass (asserted by test/test_bench_gate.ml). *)

module J = Telemetry.Json

type cell_rec = {
  id : Runner.id;
      (** fields a report omits take their defaults, so older reports
          keep matching newer cells; see gate.mli *)
  blame : J.t option;
      (** compact per-loop blame payload of a profiled cell (raw JSON,
          ingested by [Diff.Rundata.of_bench_blame] when the gate needs
          to explain a cycle regression) *)
  seconds : float;
  cycles : int;
}

type run = {
  schema : string;
  jobs : int;
  host_cpus : int;
  cells : cell_rec list;
}

(* ------------------------------------------------------------------ *)
(* Lenient report reader: any schema loads (so a mismatch can be reported
   with both names); missing booleans default to false (v1 reports have
   no "profile" field), but a cell without workload/cycles is an error. *)

let mem_str k j = Option.bind (J.member k j) J.to_string_opt

let mem_bool k j =
  match J.member k j with Some (J.Bool b) -> Some b | _ -> None

let mem_int k j =
  match J.member k j with
  | Some (J.Int i) -> Some i
  | Some (J.Float f) -> Some (int_of_float f)
  | _ -> None

let mem_float k j =
  match J.member k j with
  | Some (J.Float f) -> Some f
  | Some (J.Int i) -> Some (float_of_int i)
  | _ -> None

let ( let* ) = Result.bind

let cell_of_json ~label i j =
  let req get name =
    Option.to_result (get name j)
      ~none:
        (Printf.sprintf "%s: cells[%d]: missing or ill-typed %S" label i name)
  in
  let* workload = req mem_str "workload" in
  let* machine = req mem_str "machine" in
  let* mode = req mem_str "mode" in
  let* seconds = req mem_float "seconds" in
  let* cycles = req mem_int "cycles" in
  let flag k = Option.value ~default:false (mem_bool k j) in
  Ok
    {
      id =
        {
          Runner.workload;
          machine;
          mode;
          engine = Option.value ~default:"closure" (mem_str "engine" j);
          telemetry = flag "telemetry";
          profile = flag "profile";
          monitor = flag "monitor";
          hw =
            Option.value ~default:Runner.default_hw (mem_str "hw_prefetch" j);
          sw_threshold = mem_int "sw_threshold" j;
          prediction = mem_str "prediction" j;
          knobs = mem_str "knobs" j;
        };
      blame = J.member "blame" j;
      seconds;
      cycles;
    }

let of_string ~label s =
  let missing what = Printf.sprintf "%s: missing %s" label what in
  let* j = Result.map_error (Printf.sprintf "%s: %s" label) (J.parse s) in
  let* schema =
    Option.to_result (mem_str "schema" j) ~none:(missing "\"schema\" field")
  in
  let* cells =
    Option.to_result
      (Option.bind (J.member "cells" j) J.to_list_opt)
      ~none:(missing "\"cells\" array")
  in
  let rec collect i = function
    | [] -> Ok []
    | c :: rest ->
        let* cell = cell_of_json ~label i c in
        let* cells = collect (i + 1) rest in
        Ok (cell :: cells)
  in
  let* cells = collect 0 cells in
  Ok
    {
      schema;
      jobs = Option.value ~default:0 (mem_int "jobs" j);
      host_cpus = Option.value ~default:0 (mem_int "host_cpus" j);
      cells;
    }

let load path =
  match In_channel.with_open_text path In_channel.input_all with
  | s -> of_string ~label:path s
  | exception Sys_error e -> Error e

(* ------------------------------------------------------------------ *)
(* Deterministic bootstrap over the per-cell log-ratios. *)

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then nan
  else
    let idx = p *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor idx)
    and hi = int_of_float (Float.ceil idx) in
    let frac = idx -. Float.floor idx in
    ((1.0 -. frac) *. sorted.(lo)) +. (frac *. sorted.(hi))

let bootstrap_ci ?(iters = 2000) log_ratios =
  let n = Array.length log_ratios in
  if n = 0 then (nan, nan)
  else begin
    let rng = Random.State.make [| 42 |] in
    let means = Array.init iters (fun _ ->
        let sum = ref 0.0 in
        for _ = 1 to n do
          sum := !sum +. log_ratios.(Random.State.int rng n)
        done;
        !sum /. float_of_int n)
    in
    Array.sort compare means;
    (exp (percentile means 0.025), exp (percentile means 0.975))
  end

(* ------------------------------------------------------------------ *)

type pair = { key : string; a : cell_rec; b : cell_rec }

type comparison = {
  pairs : pair list;
  only_a : string list;
  only_b : string list;
  cycle_regressions : pair list;  (** b.cycles > a.cycles *)
  cycle_improvements : pair list;  (** b.cycles < a.cycles *)
  seconds_geomean : float;  (** geometric mean of per-cell b/a ratios *)
  ci_low : float;
  ci_high : float;
  threshold : float;
  significant_slowdown : bool;  (** ci_low > 1 + threshold *)
  significant_speedup : bool;  (** ci_high < 1 - threshold *)
}

let compare_runs ?(threshold = 0.05) ~(a : run) ~(b : run) () =
  let expected = Report.schema in
  if a.schema <> expected || b.schema <> expected then
    Error
      (Printf.sprintf
         "schema mismatch: the gate compares %S reports only, got %S vs %S \
          (regenerate the older report with `spf_bench record`)"
         expected a.schema b.schema)
  else begin
    let index cells =
      let h = Hashtbl.create 64 in
      List.iter (fun c -> Hashtbl.replace h (Runner.key c.id) c) cells;
      h
    in
    let ia = index a.cells and ib = index b.cells in
    let pairs =
      List.filter_map
        (fun ca ->
          let key = Runner.key ca.id in
          match Hashtbl.find_opt ib key with
          | Some cb -> Some { key; a = ca; b = cb }
          | None -> None)
        a.cells
    in
    let only_a =
      List.filter_map
        (fun c ->
          let k = Runner.key c.id in
          if Hashtbl.mem ib k then None else Some k)
        a.cells
    and only_b =
      List.filter_map
        (fun c ->
          let k = Runner.key c.id in
          if Hashtbl.mem ia k then None else Some k)
        b.cells
    in
    if pairs = [] then Error "no common cells between the two reports"
    else begin
      let cycle_regressions =
        List.filter (fun p -> p.b.cycles > p.a.cycles) pairs
      and cycle_improvements =
        List.filter (fun p -> p.b.cycles < p.a.cycles) pairs
      in
      let ratios =
        List.filter_map
          (fun p ->
            if p.a.seconds > 0.0 && p.b.seconds > 0.0 then
              Some (p.b.seconds /. p.a.seconds)
            else None)
          pairs
      in
      let seconds_geomean = Report.geomean ratios in
      let ci_low, ci_high =
        bootstrap_ci (Array.of_list (List.map log ratios))
      in
      Ok
        {
          pairs;
          only_a;
          only_b;
          cycle_regressions;
          cycle_improvements;
          seconds_geomean;
          ci_low;
          ci_high;
          threshold;
          significant_slowdown =
            (not (Float.is_nan ci_low)) && ci_low > 1.0 +. threshold;
          significant_speedup =
            (not (Float.is_nan ci_high)) && ci_high < 1.0 -. threshold;
        }
    end
  end

let passes c = c.cycle_regressions = [] && not c.significant_slowdown
let gate_exit c = if passes c then 0 else 1

let dispatch_geomean (r : run) =
  match
    Report.dispatch_pairs
      ~id:(fun c -> c.id)
      ~seconds:(fun c -> c.seconds)
      r.cells
  with
  | [] -> None
  | pairs ->
      Some
        (Report.geomean (List.map (fun (s, c) -> s.seconds /. c.seconds) pairs))

(* ------------------------------------------------------------------ *)

let render c =
  let buf = Buffer.create 4096 in
  let table =
    Telemetry.Table.make
      ~columns:
        [
          ("cell", Telemetry.Table.Left);
          ("cycles A", Telemetry.Table.Right);
          ("cycles B", Telemetry.Table.Right);
          ("dcycles", Telemetry.Table.Right);
          ("sec A", Telemetry.Table.Right);
          ("sec B", Telemetry.Table.Right);
          ("ratio", Telemetry.Table.Right);
        ]
  in
  List.iter
    (fun p ->
      Telemetry.Table.add_row table
        [
          p.key;
          Telemetry.Table.cell_int p.a.cycles;
          Telemetry.Table.cell_int p.b.cycles;
          (let d = p.b.cycles - p.a.cycles in
           if d = 0 then "=" else Printf.sprintf "%+d" d);
          Printf.sprintf "%.3f" p.a.seconds;
          Printf.sprintf "%.3f" p.b.seconds;
          (if p.a.seconds > 0.0 then
             Printf.sprintf "%.3f" (p.b.seconds /. p.a.seconds)
           else "n/a");
        ])
    c.pairs;
  Buffer.add_string buf (Telemetry.Table.to_string table);
  Buffer.add_char buf '\n';
  List.iter
    (fun k -> Buffer.add_string buf (Printf.sprintf "only in A: %s\n" k))
    c.only_a;
  List.iter
    (fun k -> Buffer.add_string buf (Printf.sprintf "only in B: %s\n" k))
    c.only_b;
  Buffer.add_string buf
    (Printf.sprintf
       "\ncells compared: %d   cycle regressions: %d   cycle improvements: %d\n"
       (List.length c.pairs)
       (List.length c.cycle_regressions)
       (List.length c.cycle_improvements));
  if Float.is_nan c.seconds_geomean then
    Buffer.add_string buf "wall-clock: no comparable timings\n"
  else
    Buffer.add_string buf
      (Printf.sprintf
         "wall-clock geomean ratio B/A: %.3f  (95%% bootstrap CI [%.3f, \
          %.3f], practical threshold %+.0f%%)\n"
         c.seconds_geomean c.ci_low c.ci_high (100.0 *. c.threshold));
  List.iter
    (fun p ->
      Buffer.add_string buf
        (Printf.sprintf "CYCLE REGRESSION: %s: %d -> %d (%+d)\n" p.key
           p.a.cycles p.b.cycles
           (p.b.cycles - p.a.cycles)))
    c.cycle_regressions;
  if c.significant_slowdown then
    Buffer.add_string buf
      (Printf.sprintf
         "SIGNIFICANT SLOWDOWN: the whole CI is above %+.0f%% wall-clock\n"
         (100.0 *. c.threshold));
  if c.significant_speedup then
    Buffer.add_string buf
      (Printf.sprintf
         "significant speedup: the whole CI is below %+.0f%% wall-clock\n"
         (-100.0 *. c.threshold));
  Buffer.add_string buf
    (if passes c then "GATE: PASS\n" else "GATE: FAIL\n");
  Buffer.contents buf
