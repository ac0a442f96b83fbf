(** Per-site effectiveness attribution for software prefetches.

    Sites are small dense ints; what a site {e means} (method, loop,
    strategy) is recorded outside memsim by the telemetry layer. The
    hierarchy's [_attr] entry points drive this module; each prefetch
    issue is classified into exactly one of seven outcomes, so after
    {!flush}:

    {v issued = cancelled + redundant + redundant_hw + useful + late + useless v}

    Demand {e memory} misses are additionally bucketed under a
    caller-supplied key, providing the coverage denominator. *)

type t

type site_counters = {
  mutable issued : int;
  mutable cancelled : int;  (** DTLB-miss cancellations *)
  mutable redundant : int;  (** target line already cached at issue *)
  mutable redundant_hw : int;
      (** target line already cached at issue, and the hardware prefetcher
          fetched it — the prefetch the paper's half-line rule tries not
          to emit *)
  mutable useful : int;  (** demand found the line ready *)
  mutable late : int;  (** demand arrived while the fill was in flight *)
  mutable useless : int;  (** evicted or flushed untouched *)
}

type outcome = Useful | Late | Untracked

val create : unit -> t

val n_sites : t -> int
(** One past the highest site id seen. *)

val site_counters : t -> int -> site_counters
(** A copy of site [id]'s counters (all-zero for unseen ids). *)

val totals : t -> site_counters
(** Sum over all sites. *)

val totals_into : t -> into:site_counters -> unit
(** Allocation-free {!totals}: overwrite [into] with the sum over all
    sites. The live-monitoring layer samples the outcome totals at every
    window boundary through this, so a window close does not allocate in
    memsim. *)

val zero_counters : unit -> site_counters
(** A fresh all-zero counter record (scratch for {!totals_into}). *)

val note_issue : t -> site:int -> unit
val note_cancelled : t -> site:int -> unit
val note_redundant : t -> site:int -> unit
val note_redundant_hw : t -> site:int -> unit

(** {2 Hardware-fill shadow table}

    L2-only (the HW prefetcher fills the L2). Not part of the SW
    conservation law: the table exists to split [redundant] from
    [redundant_hw] at issue time and to feed the telemetry-only
    [hw_prefetch_useful] counter. *)

val note_hw_fill : t -> line:int -> unit
(** The hardware prefetcher initiated a fill of L2 [line]. *)

val hw_tracked : t -> line:int -> bool
(** Is [line] cached because the hardware fetched it? *)

val hw_demand_resolve : t -> line:int -> bool
(** A demand access found [line] present in the L2; [true] on the first
    touch of a HW-filled line. *)

val hw_demand_evict : t -> line:int -> unit
(** A demand access missed [line] in the L2: drop any HW entry. *)

val note_fill : t -> level:[ `L1 | `L2 ] -> line:int -> site:int -> unit
(** A prefetch from [site] initiated a fill of [line] at [level].
    Replacing a stale untouched entry classifies it useless. *)

val demand_resolve :
  t -> level:[ `L1 | `L2 ] -> line:int -> ready:bool -> outcome
(** A demand access found [line] present; the first demand to touch a
    tracked line classifies its prefetch [Useful] (fill complete) or
    [Late] (fill in flight). *)

val demand_evict : t -> level:[ `L1 | `L2 ] -> line:int -> unit
(** A demand access missed [line]: an untouched tracked entry was
    evicted before use (useless). *)

val note_demand_miss : t -> key:int -> unit
(** Record a demand memory miss under [key] (coverage denominator). *)

val demand_misses_for : t -> key:int -> int
val demand_miss_buckets : t -> (int * int) list

val flush : t -> unit
(** Classify every still-untouched fill useless and empty the shadow
    tables. Must be called whenever the simulated address space is
    rewritten (GC compaction) or the caches reset, and once at end of
    run. *)

val tracked_lines : t -> int
(** Software-prefetch fills not yet classified: the entries of the L1
    and L2 shadow tables. A demand that classifies a fill removes its
    entry, and {!flush} settles the rest, so this is 0 after it. *)

val conservation_error : t -> string option
(** Check the outcome conservation law
    [issued = cancelled + redundant + redundant_hw + useful + late +
    useless] per site
    and over the totals. [None] when the books balance; [Some msg]
    describes the first violated site. Only meaningful after {!flush}
    (before it, in-flight fills are legitimately unclassified). *)
