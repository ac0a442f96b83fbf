(** The profiler's runtime half: a set of {!Vm.Interp.profile_hooks}
    that accumulate every cycle the interpreter charges into per-pc and
    per-allocation-site tables.

    The collector is pure bookkeeping — it never touches the VM or the
    simulated memory system, so a profiled run is bit-identical to an
    unprofiled one (fuzz-checked). Analysis and rendering live in
    {!Report}, which consumes a finished collector. *)

type bins = {
  mutable b_retire : int;  (** base instruction slots *)
  mutable b_tlb : int;  (** DTLB miss penalties *)
  mutable b_l1 : int;  (** L1 hit-extra cycles *)
  mutable b_l2 : int;  (** L1-miss (L2 access) penalties *)
  mutable b_mem : int;  (** DRAM latency + in-flight fill residuals *)
  mutable b_pf : int;  (** prefetch-instruction overhead *)
  mutable b_guard : int;  (** guarded-load overhead *)
  mutable b_alloc : int;  (** allocation cost *)
}

val zero_bins : unit -> bins
val bins_total : bins -> int
val add_bins : into:bins -> bins -> unit

(** Per-allocation-site object statistics: how many objects a site
    allocated, their bytes, and the demand stalls incurred by accesses
    {e to those objects} anywhere in the program (DJXPerf-style
    object-centric attribution). *)
type obj_cell = {
  mutable allocs : int;
  mutable alloc_bytes : int;
  mutable o_tlb : int;
  mutable o_l1 : int;
  mutable o_l2 : int;
  mutable o_mem : int;
}

type t

val create : unit -> t

val hooks : t -> Vm.Interp.profile_hooks
(** The observer closures to install with {!Vm.Interp.set_profile}. *)

val key : method_id:int -> pc:int -> int
(** The packed (method, pc) key used by {!pc_cells} and {!obj_cells}:
    {!Telemetry.Attrib.pack_pc}. *)

val pc_cells : t -> (int * bins) list
(** All (packed key, bins) pairs, unordered. *)

val obj_cells : t -> (int * obj_cell) list
(** All (packed alloc-site key, cell) pairs, unordered. The key [-1]
    collects stalls on accesses with no owning object (statics) or to
    objects allocated before profiling started. *)

val gc_cycles : t -> int

val total : t -> int
(** Sum of every bin over every pc plus {!gc_cycles} — by the
    conservation law this equals [Stats.cycles] for a run that was
    profiled from the first instruction. *)
