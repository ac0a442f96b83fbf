(** The profiler's analysis half: joins a finished {!Collector} with the
    program (instruction names, loop structure from the {e final} —
    possibly JIT-rewritten — method bodies) and, when available, the
    prefetch pass's per-loop reports, into renderable tables.

    Everything here is deterministic: rows carry total ties broken by
    (method id, pc), folded stacks are sorted lexicographically, and
    floats are formatted with fixed precision — two runs of the same
    seed produce byte-identical output (tested). *)

type pc_row = {
  method_id : int;
  method_name : string;
  pc : int;
  instr : string;  (** mnemonic of the final code at [pc]; ["?"] if the
                       body shrank below it after profiling *)
  loop_id : int;  (** innermost enclosing loop, [-1] for straight-line *)
  loop_depth : int;  (** 0 for straight-line code *)
  bins : Collector.bins;
  row_total : int;
}

type loop_row = {
  l_method : string;
  l_loop : int;  (** [-1]: the method's straight-line remainder *)
  l_depth : int;
  l_header_pc : int;  (** [-1] for the straight-line row *)
  l_bins : Collector.bins;
  l_total : int;
  l_actions : int;
      (** prefetch actions the pass planned for this loop ([-1]:
          unknown — no pass reports were supplied) *)
}

type obj_row = {
  alloc_method : string;  (** ["(unattributed)"] for the [-1] site *)
  alloc_pc : int;
  allocs : int;
  alloc_bytes : int;
  o_tlb : int;
  o_l1 : int;
  o_l2 : int;
  o_mem : int;
  o_total : int;  (** total demand stall on objects from this site *)
}

type t = {
  cycles : int;  (** [Stats.cycles] of the profiled run *)
  gc_cycles : int;
  totals : Collector.bins;  (** summed over all pcs *)
  pcs : pc_row list;  (** sorted by total desc, then (method, pc) *)
  loops : loop_row list;  (** sorted by total desc, then (method, loop) *)
  objects : obj_row list;  (** sorted by stall desc, then (method, pc) *)
}

val bin_fields : (string * (Collector.bins -> int)) list
(** The stall bins in canonical order — retire, tlb, l1, l2, mem,
    pf_overhead, guard_overhead, alloc — paired with their accessors.
    Every renderer here, the ["spf_prof/v1"] JSON writer and the diff
    engine's per-bin delta decomposition iterate this one list, so the
    order and spelling agree everywhere. *)

val build :
  program:Vm.Classfile.program ->
  ?reports:Strideprefetch.Pass.loop_report list ->
  cycles:int ->
  Collector.t ->
  t

val conservation_error : t -> string option
(** The profiler's conservation law:
    [retire + tlb + l1 + l2 + mem + pf + guard + alloc + gc = cycles].
    [None] when it holds exactly. *)

val pp_topdown : ?top:int -> Format.formatter -> t -> unit
(** Totals line, the top-down bin summary (absolute cycles and % of
    total), then the [top] hottest pcs (default 20). *)

val pp_loops : ?top:int -> Format.formatter -> t -> unit
val pp_objects : ?top:int -> Format.formatter -> t -> unit

val pp_loop_detail : loop:int -> Format.formatter -> t -> unit
(** Every pc row of one loop (by loop id), in pc order. *)

val folded : t -> string
(** flamegraph.pl-compatible collapsed stacks, one per line:
    [method;loop;pc:instr;bin count] (plus a single [gc count] line),
    sorted, with frame-breaking characters replaced by [_]. Ends with a
    newline when non-empty. *)

val members : t -> (string * Telemetry.Json.t) list
(** The report's JSON members — [cycles], [gc_cycles], [totals], [pcs],
    [loops], [objects] — without a schema tag. The one writer of the
    row format: {!to_json} and the diff engine's run record
    ([Diff.Rundata]) both embed it. *)

val to_json : t -> Telemetry.Json.t
(** Schema ["spf_prof/v1"]: the schema tag followed by {!members}. *)

val of_json : Telemetry.Json.t -> (t, string) result
(** Read {!members} back from any document that carries them, whatever
    its schema. Lenient about row fields (absent numbers read as 0,
    absent [loop]/[pc]/[header_pc]/[actions] as -1, absent strings as
    ["?"]) and strict about the three members the conservation law
    needs: [Error] names the first of [cycles], [totals] or [loops]
    that is missing or ill-typed. Method ids are not part of the
    format, so every pc row reads back with [method_id = -1]. *)
