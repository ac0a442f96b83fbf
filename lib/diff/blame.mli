(** The blame report: two {!Rundata} run records joined into per-loop and
    per-allocation-site cycle deltas decomposed by profiler stall bin,
    attribution-class deltas, and pass-decision provenance diffs.

    Conservation law (the diff analogue of the profiler's): summed over
    the union of loop keys,

    {[ Σ (total_B(loop) − total_A(loop)) + (gc_B − gc_A)
         = cycles_B − cycles_A ]}

    exactly, to the cycle. Each side's profiler law guarantees it for
    internally-consistent inputs, so a breach means a corrupted or
    hand-edited record — or a bug in this join — and {!check} reports
    it. The per-site table is an overlapping object-centric view of the
    same stalls and is not part of the law. *)

type loop_delta = {
  d_method : string;
  d_loop : int;  (** [-1]: straight-line remainder *)
  d_a_total : int;  (** 0 when the loop exists only in B *)
  d_b_total : int;
  d_delta : int;
  d_bins : int array;  (** per-bin deltas, {!Profile.Report.bin_fields} order *)
  d_only : [ `Both | `Only_a | `Only_b ];
}

type site_delta = {
  sd_method : string;
  sd_pc : int;
  sd_a_stall : int;
  sd_b_stall : int;
  sd_delta : int;
  sd_allocs_delta : int;
}

type prov_delta = {
  pd_method : string;
  pd_loop : int;
  pd_added : string list;  (** plan actions present only in B *)
  pd_removed : string list;
  pd_inspection : (string * string) option;
      (** (A, B) inspection depth — ["full"]/["shortened"]/["skipped"] —
          when it changed *)
  pd_steps : int * int;  (** inspection steps A, B *)
  pd_iterations : int * int;
}

type t = {
  a : Rundata.t;
  b : Rundata.t;
  total_delta : int;
  gc_delta : int;
  bin_deltas : int array;  (** whole-run per-bin deltas *)
  loops : loop_delta list;  (** sorted by |delta| desc, ties (method, loop) *)
  sites : site_delta list;  (** likewise by |stall delta| *)
  attribution : (string * int * int) list option;
      (** (class, A, B) for issued/useful/late/useless/cancelled/
          redundant/redundant_hw; [None] when either side lacks books *)
  provenance : prov_delta list;
      (** loops whose plan or inspection depth changed; empty when either
          side carries no provenance *)
}

val build : ?faults:Vm.Fault.set -> a:Rundata.t -> b:Rundata.t -> unit -> t
(** Join the two records. The [Diff_desync] fault in [faults] (default
    none) perturbs one loop's delta by a cycle after the join, so
    {!check} must report a breach — proving the conservation check can
    actually fail. *)

val check : t -> string option
(** The conservation law above; [None] when it holds exactly. *)

val top_loop : t -> loop_delta option
(** The largest-|delta| loop — what a planted regression must name. *)

val render : ?top:int -> t -> string
(** The full human-readable blame report: config axes, totals, per-bin
    delta table, loop/site blame tables (the [top] largest movers, with
    a remainder line so the rendered deltas still reconstruct the
    total), attribution deltas, provenance diffs, and the conservation
    verdict. Deterministic: byte-identical for identical inputs. *)

val to_json : t -> Telemetry.Json.t
