(** Tuning knobs of the prefetching algorithm.

    Paper defaults (Section 4): 20 inspected iterations, a 75% majority
    threshold for recognizing a dominant stride, and a scheduling distance
    of one iteration for both inter- and intra-iteration prefetching. *)

(** The three evaluated configurations: [Off] is the paper's BASELINE,
    [Inter] its INTER (the emulation of Wu's stride prefetching restricted
    to in-loop loads), [Inter_intra] its INTER+INTRA. *)
type mode = Off | Inter | Inter_intra

(** How intra-iteration/dereference-based prefetches are realized. [Auto]
    picks guarded loads on machines with few DTLB entries (the paper uses
    guarded loads on the Pentium 4 for TLB priming, hardware prefetch
    instructions otherwise). *)
type prefetch_style = Auto | Always_guarded | Always_hardware

(** Where stride predictions come from. [Inspect] is the paper's dynamic
    object inspection; [Static] trusts the address-algebra abstract
    interpretation ({!Analysis.Addralg}) alone; [Hybrid] uses static
    [Certain] verdicts to skip inspection, [Likely] to shorten it, and
    falls back to full inspection on [Unknown]. *)
type prediction_tier = Inspect | Static | Hybrid

type t = {
  mode : mode;
  inspect_iterations : int;  (** iterations of the target loop to observe *)
  majority : float;  (** dominant-stride threshold, 0 < m <= 1 *)
  scheduling_distance : int;  (** c, in iterations *)
  inter_stride_threshold : int option;
      (** profitability condition (3): emit an inter-iteration prefetch
          only when |stride| {e exceeds} this many bytes. [None] = the
          paper's half-line rule, which assumes the next-line stream
          hardware prefetcher; the SW/HW arbitration sweep
          ([spf_bench sweep arbitration]) retunes it per machine and
          HW model. *)
  small_trip_count : int;
      (** nested loops observed to iterate fewer times than this are
          promoted into their parent *)
  min_samples : int;  (** strides needed before a pattern is trusted *)
  max_inspect_steps : int;  (** hard budget for one object inspection *)
  style : prefetch_style;
  small_dtlb_entries : int;
      (** [Auto] style uses guarded loads when the DTLB has at most this
          many entries *)
  inspect_calls : bool;
      (** inter-procedural object inspection: step into (statically
          dispatched) callees instead of skipping them — the extension the
          paper weighs in Section 3.2. Off by default, like the paper. *)
  max_call_depth : int;
      (** callee nesting bound when [inspect_calls] is on *)
  enable_phased : bool;
      (** detect Wu-style "phased multiple-stride" loads and prefetch them
          with a run-time-computed stride; off by default (the paper
          restricts itself to single-stride patterns) *)
  phased_min_fraction : float;
      (** minimum share of samples for each phase of a phased pattern *)
  check_invariants : bool;
      (** assert the telemetry/profiler conservation laws at the end of
          every harness run (attribution:
          [issued = cancelled + redundant + redundant_hw + useful + late
          + useless];
          profiler: binned cycles reconstruct [Stats.cycles] exactly) and
          raise {!Workloads.Harness.Invariant_violation} on a breach.
          Cheap (O(sites + pcs) once per run); off by default. *)
  prediction : prediction_tier;
      (** stride-prediction source; [Inspect] (the default) is the paper's
          configuration and leaves compilation bit-identical to PR 7 *)
}

val default : t
(** The paper's configuration, with mode [Inter_intra]. *)

val with_mode : mode -> t -> t
val mode_name : mode -> string

val prediction_name : prediction_tier -> string
(** "inspect" / "static" / "hybrid" — the CLI and report spelling. *)

val mode_of_string : string -> (mode, string) result
(** Inverse of {!mode_name}; also accepts [baseline] for [Off]. *)

val prediction_of_string : string -> (prediction_tier, string) result

val resolved_inter_stride_threshold : t -> Memsim.Config.machine -> int
(** The effective profitability-condition-(3) threshold on [machine]:
    [inter_stride_threshold] when set, otherwise the paper's half-line rule
    for the cache level software prefetches fill. *)

val use_guarded : t -> Memsim.Config.machine -> bool
(** Whether intra-iteration prefetches on [machine] use the guarded-load
    form (TLB priming). *)

val validate : t -> (unit, string) result
