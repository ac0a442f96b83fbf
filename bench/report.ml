(* The hot-path benchmark report: the canonical cell matrix and the
   bench_hotpath/v2 JSON serialization used by the regression-gate
   recorder (bench/spf_bench.exe --record), the only producer of
   BENCH_hotpath.json. *)

module SP = Strideprefetch
module W = Workloads.Workload
module H = Workloads.Harness

let schema = "bench_hotpath/v2"

let workloads = Workloads.Specjvm.all @ Workloads.Javagrande.all
let machines = [ Memsim.Config.pentium4; Memsim.Config.athlon_mp ]
let all_modes = [ SP.Options.Off; SP.Options.Inter; SP.Options.Inter_intra ]

let default_cells () =
  (* The full (workload x machine x mode) simulation matrix... *)
  List.concat_map
    (fun (w : W.t) ->
      List.concat_map
        (fun machine ->
          List.map (fun mode -> Runner.cell w machine mode) all_modes)
        machines)
    workloads
  (* ...one attributed (telemetry) twin per workload at the headline
     configuration, filling [run_result.effectiveness] so the report
     carries coverage/accuracy rollups next to the cycle counts... *)
  @ List.map
      (fun (w : W.t) ->
        Runner.cell ~telemetry:true w Memsim.Config.pentium4
          SP.Options.Inter_intra)
      workloads
  (* ...one profiled twin of the headline db cell, so the report also
     tracks the object-centric profiler's observer overhead over time,
     and one monitored twin of the same cell — the live monitor's
     observer overhead next to its zero-cost cycle claim (the monitored
     twin's cycles must equal the plain cell's exactly, which the gate's
     exact-equality law then pins across history)... *)
  @ [
      Runner.cell ~profile:true
        (List.find (fun (w : W.t) -> w.name = "db") workloads)
        Memsim.Config.pentium4 SP.Options.Inter_intra;
      Runner.cell ~monitor:true
        (List.find (fun (w : W.t) -> w.name = "db") workloads)
        Memsim.Config.pentium4 SP.Options.Inter_intra;
    ]
  (* ...and one switch-engine twin per (workload x machine) at the
     headline mode: the dispatch lane. The twins' cycle counts must be
     byte-identical to their closure cells (the engines' contract, and
     the gate's exact-equality law applies to them too); their seconds
     measure what closure compilation buys on the host, summarized as
     the report's ["dispatch"] geomean. *)
  @ List.concat_map
      (fun (w : W.t) ->
        List.map
          (fun machine ->
            Runner.cell ~engine:Vm.Interp.Switch w machine
              SP.Options.Inter_intra)
          machines)
      workloads

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let effectiveness_json (eff : Workloads.Effectiveness.t) =
  let pct f = Printf.sprintf "%.4f" f in
  let kind (k : Workloads.Effectiveness.kind_rollup) =
    Printf.sprintf
      "{\"kind\": \"%s\", \"sites\": %d, \"issued\": %d, \"useful\": %d, \
       \"late\": %d, \"useless\": %d, \"cancelled\": %d, \"redundant\": %d, \
       \"coverage\": %s, \"accuracy\": %s}"
      (json_escape k.kind_name) k.sites k.issued k.useful k.late k.useless
      k.cancelled k.redundant (pct k.kind_coverage) (pct k.kind_accuracy)
  in
  let t = eff.totals in
  Printf.sprintf
    "{\"issued\": %d, \"useful\": %d, \"late\": %d, \"useless\": %d, \
     \"cancelled\": %d, \"redundant\": %d, \"coverage\": %s, \"accuracy\": \
     %s, \"unattributed_misses\": %d, \"sites\": %d, \"kinds\": [%s]}"
    t.Memsim.Attribution.issued t.useful t.late t.useless t.cancelled
    t.redundant (pct eff.total_coverage) (pct eff.total_accuracy)
    eff.unattributed_misses (List.length eff.rows)
    (String.concat ", " (List.map kind eff.kinds))

(* The dispatch lane: pair every switch-engine cell with its closure
   twin (same workload/machine/mode, no observers, no knob overrides)
   and aggregate the per-pair wall-clock speedups switch/closure as a
   geometric mean — the headline number for what closure compilation
   buys on the host. *)
let dispatch_pairs (timed : Runner.timed list) =
  let plain_closure (t : Runner.timed) (s : Runner.timed) =
    t.cell.Runner.engine = Vm.Interp.Closure
    && t.cell.Runner.opts = None
    && (not t.cell.Runner.telemetry)
    && (not t.cell.Runner.profile)
    && (not t.cell.Runner.monitor)
    && t.cell.Runner.workload.W.name = s.cell.Runner.workload.W.name
    && t.cell.Runner.machine.Memsim.Config.name
       = s.cell.Runner.machine.Memsim.Config.name
    && t.cell.Runner.mode = s.cell.Runner.mode
  in
  List.filter_map
    (fun (s : Runner.timed) ->
      if s.cell.Runner.engine <> Vm.Interp.Switch then None
      else
        match List.find_opt (fun t -> plain_closure t s) timed with
        | Some c when s.seconds > 0.0 && c.Runner.seconds > 0.0 ->
            Some (s, c)
        | Some _ | None -> None)
    timed

let dispatch_geomean pairs =
  match pairs with
  | [] -> nan
  | _ ->
      exp
        (List.fold_left
           (fun acc ((s : Runner.timed), (c : Runner.timed)) ->
             acc +. log (s.Runner.seconds /. c.Runner.seconds))
           0.0 pairs
        /. float_of_int (List.length pairs))

let dispatch_json (timed : Runner.timed list) =
  match dispatch_pairs timed with
  | [] -> ""
  | pairs ->
      let buf = Buffer.create 1024 in
      Buffer.add_string buf "  \"dispatch\": {\n";
      Buffer.add_string buf
        (Printf.sprintf "    \"geomean_speedup\": %.4f,\n"
           (dispatch_geomean pairs));
      Buffer.add_string buf "    \"pairs\": [\n";
      List.iteri
        (fun i ((s : Runner.timed), (c : Runner.timed)) ->
          Buffer.add_string buf
            (Printf.sprintf
               "      {\"workload\": \"%s\", \"machine\": \"%s\", \"mode\": \
                \"%s\", \"switch_seconds\": %.6f, \"closure_seconds\": \
                %.6f, \"speedup\": %.4f}%s\n"
               (json_escape s.cell.Runner.workload.W.name)
               (json_escape s.cell.Runner.machine.Memsim.Config.name)
               (json_escape (SP.Options.mode_name s.cell.Runner.mode))
               s.seconds c.Runner.seconds
               (s.seconds /. c.Runner.seconds)
               (if i = List.length pairs - 1 then "" else ",")))
        pairs;
      Buffer.add_string buf "    ]\n  },\n";
      Buffer.contents buf

(* The arbitration lane: the --sweep-arbitration grid (SW inter-stride
   threshold x hardware prefetch model, cycles summed over the sweep
   workloads) and the per-machine minimum-cycle pick. Cells of the sweep
   also appear in "cells" with "hw_prefetch"/"sw_threshold" fields, so
   the gate matches them under distinct keys. *)
type arb_point = {
  arb_machine : string;
  arb_threshold : int;  (** SW inter-stride threshold in bytes *)
  arb_hw : string;  (** hardware model spec string, e.g. "rpt:64x2@4" *)
  arb_cycles : int;  (** summed simulated cycles over the sweep workloads *)
}

type arbitration = {
  arb_workloads : string list;
  arb_grid : arb_point list;
  arb_picks : arb_point list;  (** one minimum-cycle point per machine *)
}

let arb_point_json p =
  Printf.sprintf
    "{\"machine\": \"%s\", \"sw_threshold\": %d, \"hw_prefetch\": \"%s\", \
     \"cycles\": %d}"
    (json_escape p.arb_machine)
    p.arb_threshold (json_escape p.arb_hw) p.arb_cycles

let arbitration_json a =
  let points ps = String.concat ", " (List.map arb_point_json ps) in
  Printf.sprintf
    "  \"arbitration\": {\n    \"workloads\": [%s],\n    \"picks\": \
     [%s],\n    \"grid\": [%s]\n  },\n"
    (String.concat ", "
       (List.map (fun w -> "\"" ^ json_escape w ^ "\"") a.arb_workloads))
    (points a.arb_picks) (points a.arb_grid)

(* The prediction lane: the --sweep-prediction grid (workload x machine
   x prediction tier at the headline mode). Each point carries the
   JIT-compile-time costs the tiers trade — inspection iterations begun,
   instructions partially interpreted, prefetch-pass wall-clock — next
   to the simulated cycle count, which the tiers must not regress. The
   per-machine summary is the headline: iterations saved by the hybrid
   skip rule at equal-or-better cycles. *)
type pred_point = {
  pred_workload : string;
  pred_machine : string;
  pred_tier : string;  (** "inspect" / "hybrid" / "static" *)
  pred_cycles : int;
  pred_iterations : int;  (** inspection iterations begun, summed over loops *)
  pred_steps : int;  (** instructions partially interpreted during inspection *)
  pred_pass_seconds : float;  (** prefetch-pass host wall-clock *)
}

type pred_summary = {
  pred_sum_machine : string;
  pred_iterations_inspect : int;
  pred_iterations_hybrid : int;
  pred_cycles_delta : int;  (** hybrid cycles - inspect cycles, summed *)
}

type prediction_lane = {
  pred_points : pred_point list;
  pred_summaries : pred_summary list;
}

let pred_point_json p =
  Printf.sprintf
    "{\"workload\": \"%s\", \"machine\": \"%s\", \"tier\": \"%s\", \
     \"cycles\": %d, \"inspection_iterations\": %d, \
     \"inspection_steps\": %d, \"prefetch_pass_seconds\": %.6f}"
    (json_escape p.pred_workload)
    (json_escape p.pred_machine)
    (json_escape p.pred_tier) p.pred_cycles p.pred_iterations p.pred_steps
    p.pred_pass_seconds

let pred_summary_json s =
  Printf.sprintf
    "{\"machine\": \"%s\", \"iterations_inspect\": %d, \
     \"iterations_hybrid\": %d, \"iterations_saved\": %d, \
     \"cycles_delta\": %d}"
    (json_escape s.pred_sum_machine)
    s.pred_iterations_inspect s.pred_iterations_hybrid
    (s.pred_iterations_inspect - s.pred_iterations_hybrid)
    s.pred_cycles_delta

let prediction_json l =
  Printf.sprintf
    "  \"prediction\": {\n    \"summaries\": [%s],\n    \"points\": \
     [%s]\n  },\n"
    (String.concat ", " (List.map pred_summary_json l.pred_summaries))
    (String.concat ", " (List.map pred_point_json l.pred_points))

(* Sweep-cell provenance in the per-cell record: emitted only when the
   cell deviates from the defaults, so reports of the canonical matrix
   stay byte-compatible with pre-sweep baselines (and their gate keys
   unchanged). *)
let cell_extras (c : Runner.cell) =
  let hw =
    if c.machine.Memsim.Config.hw_prefetch = Memsim.Config.default_stream
    then ""
    else
      Printf.sprintf ", \"hw_prefetch\": \"%s\""
        (json_escape
           (Memsim.Config.hw_prefetch_to_string
              c.machine.Memsim.Config.hw_prefetch))
  in
  let threshold =
    match c.opts with
    | Some { SP.Options.inter_stride_threshold = Some t; _ } ->
        Printf.sprintf ", \"sw_threshold\": %d" t
    | Some _ | None -> ""
  in
  let prediction =
    match c.opts with
    | Some o when o.SP.Options.prediction <> SP.Options.Inspect ->
        Printf.sprintf ", \"prediction\": \"%s\""
          (SP.Options.prediction_name o.SP.Options.prediction)
    | Some _ | None -> ""
  in
  (* "monitor": true only when armed: canonical-matrix reports stay
     byte-compatible with pre-monitor baselines (and their gate keys
     unchanged). *)
  let monitor = if c.monitor then ", \"monitor\": true" else "" in
  hw ^ threshold ^ prediction ^ monitor

(* Per-loop blame payload of a profiled cell: the profiler's loop rows
   (stall bins + totals, the straight-line remainders included) plus GC
   cycles — enough for spf_bench to reconstruct a two-sided per-loop
   cycle-delta report when the gate fails (lib/diff ingests it via
   Rundata.of_bench_blame). Only profile:true cells carry it, so
   canonical reports stay byte-compatible with pre-blame baselines. *)
let blame_json (rep : Profile.Report.t) =
  let bins b =
    String.concat ", "
      (List.map
         (fun (name, get) -> Printf.sprintf "\"%s\": %d" name (get b))
         Profile.Report.bin_fields)
  in
  let loop (l : Profile.Report.loop_row) =
    Printf.sprintf
      "{\"method\": \"%s\", \"loop\": %d, \"depth\": %d, \"actions\": %d, \
       \"bins\": {%s}, \"total\": %d}"
      (json_escape l.Profile.Report.l_method)
      l.l_loop l.l_depth l.l_actions (bins l.l_bins) l.l_total
  in
  Printf.sprintf "{\"gc_cycles\": %d, \"loops\": [%s]}"
    rep.Profile.Report.gc_cycles
    (String.concat ", " (List.map loop rep.Profile.Report.loops))

let to_json_string ?arbitration ?prediction ~jobs ~matrix_wall_seconds
    (timed : Runner.timed list) =
  let total_cell_seconds =
    List.fold_left (fun acc (t : Runner.timed) -> acc +. t.seconds) 0.0 timed
  in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf (Printf.sprintf "  \"schema\": \"%s\",\n" schema);
  Buffer.add_string buf
    (Printf.sprintf "  \"jobs\": %d,\n  \"host_cpus\": %d,\n" jobs
       (Runner.default_jobs ()));
  Buffer.add_string buf
    (Printf.sprintf "  \"matrix_wall_seconds\": %.6f,\n" matrix_wall_seconds);
  Buffer.add_string buf
    (Printf.sprintf "  \"total_cell_seconds\": %.6f,\n" total_cell_seconds);
  Buffer.add_string buf (dispatch_json timed);
  (match arbitration with
  | Some a -> Buffer.add_string buf (arbitration_json a)
  | None -> ());
  (match prediction with
  | Some l -> Buffer.add_string buf (prediction_json l)
  | None -> ());
  Buffer.add_string buf "  \"cells\": [\n";
  List.iteri
    (fun i (t : Runner.timed) ->
      let effectiveness =
        match t.result.H.effectiveness with
        | Some eff ->
            Printf.sprintf ", \"effectiveness\": %s" (effectiveness_json eff)
        | None -> ""
      in
      let blame =
        match t.result.H.profile with
        | Some rep -> Printf.sprintf ", \"blame\": %s" (blame_json rep)
        | None -> ""
      in
      Buffer.add_string buf
        (Printf.sprintf
           "    {\"workload\": \"%s\", \"machine\": \"%s\", \"mode\": \
            \"%s\", \"engine\": \"%s\", \"telemetry\": %b, \"profile\": \
            %b%s, \"seconds\": %.6f, \"cycles\": %d%s%s}%s\n"
           (json_escape t.cell.Runner.workload.W.name)
           (json_escape t.cell.Runner.machine.Memsim.Config.name)
           (json_escape (SP.Options.mode_name t.cell.Runner.mode))
           (Vm.Interp.engine_name t.cell.Runner.engine)
           t.cell.Runner.telemetry t.cell.Runner.profile
           (cell_extras t.cell) t.seconds
           t.result.H.cycles effectiveness blame
           (if i = List.length timed - 1 then "" else ",")))
    timed;
  Buffer.add_string buf "  ]\n}\n";
  Buffer.contents buf

let write_json ?arbitration ?prediction ~path ~jobs ~matrix_wall_seconds
    timed =
  let oc = open_out path in
  output_string oc
    (to_json_string ?arbitration ?prediction ~jobs ~matrix_wall_seconds
       timed);
  close_out oc
