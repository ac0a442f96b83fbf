(** Parallel bench-matrix runner.

    The (workload x machine x mode) cells of the paper's evaluation are
    mutually independent — each run builds a fresh program, interpreter and
    memory hierarchy, and no library keeps top-level mutable state — so the
    matrix is farmed out to a pool of OCaml 5 Domains. Simulated cycle
    counts are a pure function of the cell: the parallel runner is
    byte-identical to the serial one (asserted by test/test_bench_runner.ml);
    only host wall-clock changes.

    The module also owns what every bench path shares: the cell identity
    ({!key}) and the workload, machine and mode sets. *)

type cell = {
  workload : Workloads.Workload.t;
  machine : Memsim.Config.machine;
  mode : Strideprefetch.Options.mode;
  opts : Strideprefetch.Options.t option;
      (** algorithm-knob override; [None] = defaults *)
  telemetry : bool;
      (** run with the observability stack threaded through, filling
          [run_result.effectiveness]; the simulation itself is
          bit-identical either way (golden-tested) *)
  profile : bool;
      (** additionally install the object-centric profiler, filling
          [run_result.profile] (implies telemetry); like telemetry the
          simulation is bit-identical either way *)
  monitor : bool;
      (** arm the live windowed monitor at its default window, filling
          [run_result.monitor] (implies telemetry); monitoring observes
          only, so a monitored twin's cycle count must equal its plain
          cell's exactly — the gate's exact-equality law pins that
          zero-cost claim over time *)
  engine : Vm.Interp.engine;
      (** which execution engine runs the cell; default [Closure]. Cycle
          counts are engine-independent (the engines' bit-identity
          contract), so a switch twin differs from its closure cell only
          in host wall-clock — the dispatch-speedup lane *)
}

type timed = {
  cell : cell;
  result : Workloads.Harness.run_result;
  seconds : float;  (** host wall-clock for this cell *)
}

val cell :
  ?opts:Strideprefetch.Options.t ->
  ?telemetry:bool ->
  ?profile:bool ->
  ?monitor:bool ->
  ?engine:Vm.Interp.engine ->
  Workloads.Workload.t ->
  Memsim.Config.machine ->
  Strideprefetch.Options.mode ->
  cell
(** [telemetry], [profile] and [monitor] default to [false]; [engine]
    to [Vm.Interp.Closure]. *)

(** {2 Cell identity}

    The one name a cell goes by: in progress lines, when a cell list is
    deduplicated, when the gate matches cells across reports, when a
    regressed cell is looked up for a re-run, and when a switch-engine
    twin is paired with its closure cell. A report records the same
    fields, so a parsed report cell ({!Gate.cell_rec}) carries an [id]
    too and keys the same way. *)

type id = {
  workload : string;
  machine : string;
  mode : string;  (** {!Strideprefetch.Options.mode_name} spelling *)
  engine : string;  (** {!Vm.Interp.engine_name} spelling *)
  telemetry : bool;
  profile : bool;
  monitor : bool;
  hw : string;
      (** hardware prefetch model spec string (e.g. ["rpt:64x2@4"]);
          {!default_hw} for the default stream unit *)
  sw_threshold : int option;
      (** SW inter-stride threshold override; [None] = the paper's
          half-line rule *)
  prediction : string option;
      (** prediction tier other than the default [inspect] *)
  knobs : string option;
      (** any other algorithm-knob override, e.g.
          ["iters=5"] / ["c=2"] / ["majority=0.5"], with ["custom"]
          standing for knobs the bench never varies; [None] for
          default knobs *)
}

val default_hw : string
(** Spec string of the default hardware model (["stream:8"]). *)

val id : cell -> id

val key : id -> string
(** ["workload/machine/mode"] with ["/telemetry"], ["/profile"],
    ["/monitor"], ["/ENGINE-engine"], ["/hw=..."], ["/thr=N"],
    ["/pred=..."] and ["/KNOBS"] suffixes, each present only when the
    field departs from its default — so canonical-matrix keys are the
    same as in every committed report. *)

val config : cell -> Diff.Bisect.config
(** The cell's run configuration — what its run record
    ({!Diff.Rundata}) carries. Knobs other than the prediction tier,
    threshold, phased and interprocedural axes have no axis and are not
    represented. *)

(** {2 The workload set} *)

val workloads : Workloads.Workload.t list
(** The SPECjvm98 and JavaGrande workloads of the paper's evaluation. *)

val workload : string -> Workloads.Workload.t
(** The workload of {!workloads} with this name; raises [Not_found]. *)

val machines : Memsim.Config.machine list
(** The paper's two machines: Pentium 4 and Athlon MP. *)

val modes : Strideprefetch.Options.mode list
(** BASELINE, INTER, INTER+INTRA. *)

val run_cell : cell -> timed
(** Run one cell serially in the calling domain. *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()]. *)

val run_matrix :
  ?progress:(cell -> unit) -> jobs:int -> cell list -> timed list
(** Run every cell on a pool of [jobs] domains (clamped to [1 .. n_cells]);
    results are returned in input order. [jobs = 1] runs serially in the
    calling domain with no Domain machinery at all. [progress] is invoked
    under a mutex as each cell is picked up by a worker. *)
