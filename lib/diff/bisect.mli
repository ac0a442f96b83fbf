(** Automatic config-axis bisection: given two configurations differing
    in several option axes, replay intermediate configurations to
    isolate the minimal axis set responsible for a cycle delta.

    Simulated cycles are deterministic — a pure function of the
    configuration — so a single replay per probe is conclusive (no
    statistics needed; the same property the exact-equality bench gate
    leans on). The search runs A and B (2 replays), then flips differing
    axes one at a time from A toward B in canonical order, stopping
    early the moment a single flip reproduces B's cycles exactly: a
    planted single-axis regression is therefore isolated in at most
    [2 + position] replays — 3 when the responsible axis sorts first,
    which the canonical order arranges by putting cycle-moving axes
    (mode, machine, hw, threshold, prediction, phased,
    interprocedural, passes) before the cycle-neutral engine axis. When no single flip explains the delta,
    the axes that individually moved cycles are verified jointly. *)

type config = {
  machine : Memsim.Config.machine;
  mode : Strideprefetch.Options.mode;
  engine : Vm.Interp.engine;
  passes : bool;  (** standard JIT passes *)
  hw : Memsim.Config.hw_prefetch_model option;
      (** [None]: the machine's own model *)
  prediction : Strideprefetch.Options.prediction_tier;
  threshold : int option;  (** inter-stride threshold override *)
  phased : bool;  (** Wu-style phased multiple-stride loads *)
  interproc : bool;  (** object inspection steps into callees *)
}

val default_config : config
(** pentium4, inter+intra, closure, passes on, machine-default hardware
    prefetcher, inspect tier, paper-default threshold, phased and
    interprocedural inspection off. *)

val machine_of : config -> Memsim.Config.machine
(** The machine with the [hw] override applied — what a replay runs on. *)

val options : config -> Strideprefetch.Options.t
(** {!Strideprefetch.Options.default} with the config's prediction tier,
    threshold, phased and interprocedural axes applied. *)

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

val all_axes : axis list
(** Canonical probe order (cycle-moving first, engine last). *)

val axis_name : axis -> string
val axis_of_name : string -> axis option

val axis_value : config -> axis -> string
(** Display value of one axis, e.g. [axis_value c Hw = "stream:8"]
    (resolved against the machine when [hw = None]). *)

val differing : a:config -> b:config -> axis list
(** The axes on which the two configs disagree, in canonical order.
    The hardware axis compares resolved specs, so [hw = None] equals an
    explicit spec naming the machine default. *)

val apply_overrides : config -> string -> (config, string) result
(** Parse a [--vs] override list — comma-separated [key=value] with keys
    [machine]/[mode]/[engine]/[hw-prefetch]/[prediction]/[threshold]/
    [phased]/[interprocedural]/[passes] — onto a base config.
    [threshold] accepts an integer or [default]; [phased],
    [interprocedural] and [passes] accept [on]/[off]. *)

type outcome = {
  cycles_a : int;
  cycles_b : int;
  delta : int;
  candidates : axis list;  (** axes that differed at all *)
  probes : (axis * int) list;  (** single-flip cycles, in probe order *)
  responsible : axis list;  (** minimal responsible set; [] iff delta = 0 *)
  exact : bool;
      (** flipping [responsible] alone reproduces B's cycles exactly *)
  replays : int;  (** total replays spent, A and B included *)
}

val run : replay:(config -> int) -> a:config -> b:config -> outcome
(** Bisect. [replay] runs one configuration to completion and returns
    its simulated cycles; it is called [outcome.replays] times. *)

val render : a:config -> b:config -> outcome -> string
(** Human-readable verdict: the differing axes with their values, each
    probe's result, and the responsible set. Deterministic. *)
