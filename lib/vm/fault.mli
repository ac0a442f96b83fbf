(** Fault injection: the deliberate defects that prove each correctness
    check can fail.

    Every check that guards the paper's promise — a guarded [spec_load]
    never faults and prefetching never changes a result (Section 3.3) —
    has a self-test: inject one of these faults and the check must
    report it. A run carries its faults as one {!set} in
    [Interp.options.faults]; the JIT passes read it through the
    interpreter they compile for, and the diff engine takes it as an
    argument. Each fault is read once, at closure-compile time or on a
    slow path, so an empty set costs nothing per instruction. *)

type t =
  | Unguarded_spec_loads
  | Skip_guard_dominance
  | Engine_desync
  | Hw_desync
  | Prediction_desync
  | Monitor_desync
  | Diff_desync

val all : t list

val name : t -> string
(** The command-line spelling, e.g. ["engine-desync"]. *)

val of_name : string -> t option
(** Inverse of {!name}. *)

val doc : t -> string
(** One line: what the fault breaks and which check catches it. *)

type set

val none : set
val of_list : t list -> set
val mem : t -> set -> bool
