(** Fuzzing campaign driver: generate, check, shrink, report.

    Seed protocol: program [i] of a campaign with seed [s] is generated
    from derived seed [s + i], so
    [spf fuzz --seed (s + i) --count 1] replays program [i] exactly. *)

type finding = {
  seed : int;  (** derived per-program seed: campaign seed + index *)
  index : int;
  failure : Oracle.failure;
  source : string;
  shrunk : Shrink.result option;
}

type campaign = {
  campaign_seed : int;
  programs_run : int;
  cells_per_program : int;
  findings : finding list;  (** in discovery order; empty means all passed *)
}

val check_seed :
  ?cells:Oracle.cell list ->
  ?faults:Vm.Fault.set ->
  seed:int ->
  max_size:int ->
  unit ->
  Gen.t * Oracle.verdict
(** Generate one program and run the oracle on it. *)

val run :
  ?cells:Oracle.cell list ->
  ?faults:Vm.Fault.set ->
  ?shrink:bool ->
  ?shrink_attempts:int ->
  ?progress:(index:int -> seed:int -> unit) ->
  campaign_seed:int ->
  count:int ->
  max_size:int ->
  unit ->
  campaign
(** Run a whole campaign. [shrink] (default [true]) minimizes each
    finding; a shrink candidate only counts as failing when it fails in
    the {e same class} as the original finding, so minimization cannot
    wander to an unrelated bug. [progress] is called before each
    program. *)

val pp_finding : Format.formatter -> finding -> unit
(** The report format: failure description, replay command line, full
    program, and the shrunk reproducer when present. *)
