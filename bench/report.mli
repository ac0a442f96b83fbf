(** The hot-path benchmark report: canonical cell matrix and the
    bench_hotpath/v2 JSON serialization used by the regression-gate
    recorder ([spf_bench record]). *)

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
  id:('a -> Runner.id) -> seconds:('a -> float) -> 'a list -> ('a * 'a) list
(** The dispatch lane's pairing rule: every cell on a non-closure engine
    paired with the cell whose {!Runner.key} differs only in the engine
    being ["closure"], both with positive timings. Used on timed cells
    by the writer and on parsed cells by {!Gate.dispatch_geomean}. *)

val geomean : float list -> float
(** Geometric mean; [nan] on the empty list. *)

val to_json_string :
  ?lanes:(string * Telemetry.Json.t) list ->
  jobs:int -> matrix_wall_seconds:float -> Runner.timed list -> string
(** Render a full bench_hotpath/v2 report as a {!Telemetry.Json.t}, one
    cell per line. Cells appear in list order; cycle counts are exact
    integers, seconds are host wall-clock. Cells deviating from the
    default hardware model, SW threshold, prediction tier or algorithm
    knobs carry ["hw_prefetch"] / ["sw_threshold"] / ["prediction"] /
    ["knobs"] fields (absent otherwise, keeping canonical-matrix reports
    compatible with older baselines). [lanes] are a sweep's extra
    top-level sections (["arbitration"], ["prediction"]), written
    before ["cells"]; the gate does not read them. *)
