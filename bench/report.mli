(** The hot-path benchmark report: canonical cell matrix and the
    bench_hotpath/v2 JSON serialization used by the regression-gate
    recorder ([bench/spf_bench.exe --record]). *)

val schema : string
(** ["bench_hotpath/v2"]. v2 adds the per-cell ["profile"] flag (and so
    changes what a cell key means); {!Gate.compare_runs} refuses to
    compare reports whose schemas differ from this one. *)

val default_cells : unit -> Runner.cell list
(** The canonical matrix: every (workload x machine x mode) cell, plus one
    attributed (telemetry) twin per workload and one profiled twin of the
    headline db cell at pentium4/inter+intra — so the report tracks the
    observer overheads of telemetry and profiling alongside the plain
    simulation wall-clock — plus one switch-engine twin per
    (workload x machine) at inter+intra: the dispatch lane, whose cycle
    counts must equal the closure cells' exactly and whose wall-clock
    ratio is the report's ["dispatch"] geomean. *)

val dispatch_pairs :
  Runner.timed list -> (Runner.timed * Runner.timed) list
(** Every (switch twin, plain closure cell) pair with matching
    workload/machine/mode and positive timings. *)

val dispatch_geomean : (Runner.timed * Runner.timed) list -> float
(** Geometric mean of per-pair wall-clock speedups switch/closure
    ([nan] on the empty list). *)

(** {2 The arbitration lane}

    Results of an [spf_bench --sweep-arbitration] run: the
    (SW inter-stride threshold x hardware prefetch model) grid per
    machine, cycles summed over the sweep workloads, and the
    minimum-cycle pick per machine — the empirically chosen SW/HW
    arbitration point. *)

type arb_point = {
  arb_machine : string;
  arb_threshold : int;  (** SW inter-stride threshold in bytes *)
  arb_hw : string;  (** hardware model spec string, e.g. ["rpt:64x2@4"] *)
  arb_cycles : int;
      (** summed simulated cycles over the sweep workloads *)
}

type arbitration = {
  arb_workloads : string list;
  arb_grid : arb_point list;
  arb_picks : arb_point list;  (** one minimum-cycle point per machine *)
}

(** {2 The prediction lane}

    Results of an [spf_bench --sweep-prediction] run: per
    (workload x machine x prediction tier) point at the headline mode,
    the JIT-compile-time costs the tiers trade — inspection iterations
    begun, instructions partially interpreted, prefetch-pass wall-clock
    — next to the simulated cycle count, plus a per-machine summary of
    iterations saved by the hybrid skip rule. *)

type pred_point = {
  pred_workload : string;
  pred_machine : string;
  pred_tier : string;  (** ["inspect"] / ["hybrid"] / ["static"] *)
  pred_cycles : int;
  pred_iterations : int;
      (** inspection iterations begun, summed over loop reports *)
  pred_steps : int;
      (** instructions partially interpreted during inspection *)
  pred_pass_seconds : float;  (** prefetch-pass host wall-clock *)
}

type pred_summary = {
  pred_sum_machine : string;
  pred_iterations_inspect : int;
  pred_iterations_hybrid : int;
  pred_cycles_delta : int;
      (** hybrid cycles - inspect cycles, summed over the sweep
          workloads; the acceptance bar is [<= 0] (equal-or-better) *)
}

type prediction_lane = {
  pred_points : pred_point list;
  pred_summaries : pred_summary list;
}

val to_json_string :
  ?arbitration:arbitration ->
  ?prediction:prediction_lane ->
  jobs:int -> matrix_wall_seconds:float -> Runner.timed list -> string
(** Render a full bench_hotpath/v2 report. Cells appear in list order;
    cycle counts are exact integers, seconds are host wall-clock. Cells
    deviating from the default hardware model, SW threshold or
    prediction tier carry ["hw_prefetch"] / ["sw_threshold"] /
    ["prediction"] fields (absent otherwise, keeping canonical-matrix
    reports byte-compatible with older baselines); [arbitration] and
    [prediction] add their sweep lanes. *)

val write_json :
  ?arbitration:arbitration ->
  ?prediction:prediction_lane ->
  path:string -> jobs:int -> matrix_wall_seconds:float ->
  Runner.timed list -> unit
(** {!to_json_string} to a file. *)
