(** The prefetch-site registry joining compile-time provenance (what the
    stride pass decided, and why) with execution identity (which compiled
    prefetch instruction issued) and the memory simulator's dense site
    ids.

    The interpreter calls [site_id] the first time each prefetch
    instruction fires; the pass calls [register] at plan time under the
    same structural key; the effectiveness report joins the two. The
    memory simulator itself only ever sees the dense int ids. *)

type kind = Inter | Deref | Intra | Phased | Spec

val kind_name : kind -> string

type key =
  | Inter_site of { method_id : int; site : int }
  | Dynamic_site of { method_id : int; site : int }
  | Spec_site of { method_id : int; site : int; reg : int }
  | Indirect_site of { method_id : int; reg : int; offset : int }

type meta = {
  method_name : string;
  loop_id : int;
  kind : kind;
  anchor_site : int;  (** the load site whose stride drives the prefetch *)
  target_site : int;  (** the demand site this prefetch is meant to cover *)
}

type t

val create : unit -> t
val n_sites : t -> int

val site_id : t -> key -> int
(** Allocate-or-reuse: dense ids in [0, n_sites). *)

val key_of_id : t -> int -> key
val register : t -> key -> meta -> unit
val meta_of_key : t -> key -> meta option
val meta_of_id : t -> int -> meta option

val pack_pc : method_id:int -> pc:int -> int
(** The one (method, pc) packer, [method_id lsl 16 lor (pc land 0xffff)],
    shared by every int-keyed table that names a code position: the
    memory hierarchy's pc, the demand-miss buckets, the profiler's cells
    and the monitor's alloc-site sets. *)

val packed_method : int -> int
val packed_pc : int -> int
(** The two halves of a {!pack_pc} key. *)

val demand_key : method_id:int -> site:int -> int
(** Packed (method, load site) key for demand-miss buckets: {!pack_pc}
    with the load site as the position. *)

val demand_key_method : int -> int
val demand_key_site : int -> int
val pp_key : Format.formatter -> key -> unit
