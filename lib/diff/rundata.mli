(** The run record: one run, reduced to what differential diagnosis
    needs, and the one file format every tool writes ([spf_run/v1]).

    The record holds the other modules' own types: the configuration
    axes ({!Bisect.config}), the profiler's report ({!Profile.Report.t}
    — total/GC cycles, per-pc, per-loop and per-allocation-site rows),
    the attribution outcome totals, and the pass's per-loop decision
    provenance. It comes from two places: a live profiled
    {!Workloads.Harness} run ({!of_run}) or a file ({!of_json}). *)

type prov = {
  p_method : string;
  p_loop : int;
  p_actions : string list;  (** {!Strideprefetch.Codegen.action_descriptor}s,
                                sorted *)
  p_rejected : int;
  p_promoted : bool;
  p_low_trip : bool;
  p_iterations : int;
  p_steps : int;  (** object-inspection steps spent on this loop *)
  p_skipped : bool;  (** inspection replaced by static claims *)
  p_shortened : bool;  (** inspection ran on the reduced budget *)
}

type t = {
  workload : string;
  config : Bisect.config option;  (** [None]: not recorded *)
  profile : Profile.Report.t;
  attribution : Memsim.Attribution.site_counters option;
  provenance : prov list;  (** empty when unknown *)
}

val schema : string
(** ["spf_run/v1"]. *)

val attribution_fields :
  (string * (Memsim.Attribution.site_counters -> int)) list
(** The attribution classes in report order — issued, useful, late,
    useless, cancelled, redundant, redundant_hw — with their accessors;
    the file format and the blame table both iterate it. *)

val of_run :
  config:Bisect.config -> Workloads.Harness.run_result -> (t, string) result
(** Reduce a live run made under [config]. [Error] unless the run was
    made with [~profile:true] (the per-loop breakdown is the diff's
    backbone). *)

val to_json : t -> Telemetry.Json.t
(** Schema ["spf_run/v1"]: the schema tag, [workload], [config] (keyed
    by {!Bisect.axis_name} with {!Bisect.axis_value} spellings, or
    [null]), the profile's {!Profile.Report.members}, [attribution]
    ([null] when absent) and [provenance]. *)

val of_json : Telemetry.Json.t -> (t, string) result
(** Read a record. Accepts ["spf_run/v1"] and two older formats:
    ["spf_prof/v1"] (a bare profile: no config, attribution or
    provenance) and ["spf_diff/v1"] (whose config spells booleans,
    integers and [null] where the record has [on]/[off], [N] and
    [default]). The config is read back through the [--vs] parser
    ({!Bisect.apply_overrides}). [Error] names an unknown schema, a bad
    config value, or the first missing required profile member
    ([cycles], [totals], [loops]). *)

val load : string -> (t, string) result
(** Parse a record file; I/O and parse errors become [Error]. *)
