(** Differential oracle for the stride-prefetching pass.

    Runs one MiniJava program under a matrix of configurations (prefetch
    mode x standard-pass pipeline x machine) and checks that the pass is
    {e observably invisible}: every cell must reproduce the baseline
    cell's stdout and statics-reachable heap graph, no prefetch operation
    may compute a negative (faulting) address, object inspection must
    leave the real heap and statics bit-identical across every JIT
    compilation, and the memory-system counters must satisfy structural
    invariants (misses bounded by accesses, no prefetch work in mode
    [Off], ...). *)

type cell = {
  mode : Strideprefetch.Options.mode;
  standard_passes : bool;
      (** [true]: full JIT pipeline; [false]: prefetch pass alone *)
  machine : Memsim.Config.machine;
}

val default_cells : cell list
(** 3 modes x {pipeline, bare} x {pentium4, athlon_mp} = 12 cells, with
    the baseline (Off / pipeline / pentium4) first. *)

val cell_name : cell -> string
(** E.g. ["inter+intra/pipeline/pentium4"]. *)

type failure =
  | Compile_error of string
      (** the front end rejected the program — a generator bug, or an
          invalid shrink candidate *)
  | Crash of { cell : cell; message : string }
  | Output_divergence of {
      cell : cell;
      baseline_output : string;
      output : string;
    }
  | Heap_divergence of { cell : cell; diff : string }
  | Inspection_side_effect of { cell : cell; meth : string; diff : string }
  | Stats_violation of { cell : cell; message : string }
  | Faulting_prefetch of { cell : cell; count : int }
  | Lint_violation of { cell : cell; meth : string; message : string }
      (** a JIT-transformed method body is not clean under the
          [Analysis] stack (type-state, prefetch safety, plan-aware
          lints); warnings count — correct codegen emits neither
          redundant prefetches nor dead spec-load registers *)
  | Engine_divergence of { cell : cell; message : string }
      (** the switch and closure-compiled engines disagreed on the same
          program — output, cycles, a core stats counter, a VM-side
          counter (GC count, methods compiled, fault/guard trips) or the
          reachable heap — or the switch engine crashed where the
          closure engine completed. Bit-identity across engines is
          their contract (lib/vm/engine.ml) *)
  | Hw_divergence of { cell : cell; hw : string; message : string }
      (** a hardware-prefetcher model ([hw] is its spec string, e.g.
          ["rpt:64x2@4"]) perturbed the architectural state: the headline
          configuration re-run under hw=none, the stream unit and the
          RPT unit must agree on program output and the
          statics-reachable heap — the hardware prefetcher may only move
          cycles and memory-system counters *)
  | Prediction_divergence of { cell : cell; tier : string; message : string }
      (** a static/hybrid prediction tier changed what the program
          computes: the headline configuration re-run under
          [prediction = Static] and [Hybrid] must reproduce the
          inspect-tier run's output and statics-reachable heap with no
          faulting prefetch addresses — the tiers may only change when a
          stride is discovered (compile time, inspection iterations).
          Per-site static-vs-inspected disagreement is a scored metric
          ([spf lint --predict]), never this failure *)
  | Observer_divergence of { cell : cell; law : string; message : string }
      (** an observer broke the observer law, named by [law]:
          - ["observe-only"]: the headline configuration run with every
            observer on (attribution, profiler, a 4096-cycle monitor)
            diverged from its plain twin in output, cycles, the
            fault/guard counters or a core stats counter;
          - ["attribution-books"]: issued <> cancelled + redundant +
            redundant_hw + useful + late + useless;
          - ["profile-conservation"]: the profiler's bins plus GC do
            not sum to the run's cycles;
          - ["monitor-books"]: the monitor's per-window stats deltas or
            attribution outcomes do not sum back to the run totals;
          - ["self-diff"]: the run record ({!Diff.Rundata}) diffed
            against itself blamed a nonzero delta or broke the blame
            conservation law. *)

type verdict = Pass of { cells_run : int } | Fail of failure

val describe : failure -> string
(** Multi-line human-readable rendering, used in fuzzing reports. *)

val runs_per_program : cell list -> int
(** Harness runs {!check} makes on a passing program with this matrix:
    the cells (plus the headline cell, inter+intra / pipeline /
    pentium4, when the list lacks it) and eight cross-check runs. *)

val check :
  ?cells:cell list ->
  ?faults:Vm.Fault.set ->
  source:string ->
  heap_limit_bytes:int ->
  unit ->
  verdict
(** Compile [source] once (to reject front-end failures early), then run
    each cell and compare to the first; the headline configuration
    (inter+intra / pipeline / pentium4) is appended to [cells] when
    missing. Once the whole differential matrix is clean, four
    cross-checks run at the headline configuration, in order:
    - the observer law: one run with every observer on (attribution,
      profiler, a 4096-cycle monitor) against the matrix's own plain
      headline run, bit-identical, with every observer's books
      balanced and the run record's self-diff empty
      ([Observer_divergence], naming the law);
    - the engine pair: the reference switch engine against the same
      plain run, bit-identical including the VM-side books and the
      reachable heap ([Engine_divergence]);
    - the hardware triple: none / stream / RPT prefetch models agree on
      output and reachable heap ([Hw_divergence]);
    - the prediction triple: inspect / static / hybrid tiers agree on
      output and reachable heap with no faulting prefetch
      ([Prediction_divergence]).
    [cells_run] is {!runs_per_program}. [faults] (default none) is
    injected into every run and into the self-diff — the self-tests use
    it to prove each check catches the fault aimed at it (see
    {!Vm.Fault}). *)
