(* The prefetch-site registry: the join point between the three layers
   that each know one piece of a prefetch's identity.

   - The *pass* knows the provenance: which loop, which LDG node, which
     strategy (inter-iteration, dereferenced-object, intra-iteration,
     phased) produced a prefetch instruction, and which demand site it
     is meant to cover.
   - The *interpreter* knows the execution identity: which compiled
     instruction (method id + site / register / offset) actually issued
     a given prefetch.
   - The *memory simulator* knows only small dense integers.

   So: the interpreter resolves a structural [key] to a dense [site id]
   the first time each prefetch instruction fires (allocate-or-reuse);
   the pass [register]s a [meta] under the same structural key at
   compile time; and the effectiveness report joins the two through
   this table. Memsim's attribution tables speak only the dense ids and
   never depend on this module. *)

type kind = Inter | Deref | Intra | Phased | Spec

let kind_name = function
  | Inter -> "inter"
  | Deref -> "deref"
  | Intra -> "intra"
  | Phased -> "phased"
  | Spec -> "spec"

type key =
  | Inter_site of { method_id : int; site : int }
      (** a [Prefetch_inter] instruction at [site] *)
  | Dynamic_site of { method_id : int; site : int }
      (** a [Prefetch_dynamic] (phased) instruction at [site] *)
  | Spec_site of { method_id : int; site : int; reg : int }
      (** a [Spec_load] guarded load feeding indirect prefetches *)
  | Indirect_site of { method_id : int; reg : int; offset : int }
      (** a [Prefetch_indirect] off speculative register [reg] *)

type meta = {
  method_name : string;
  loop_id : int;
  kind : kind;
  anchor_site : int;  (** the load site whose stride drives the prefetch *)
  target_site : int;  (** the demand site this prefetch is meant to cover *)
}

type t = {
  ids : (key, int) Hashtbl.t;
  mutable by_key : key array;  (** dense id -> key; grows by doubling *)
  mutable n : int;
  metas : (key, meta) Hashtbl.t;
}

let create () =
  {
    ids = Hashtbl.create 64;
    by_key = Array.make 16 (Inter_site { method_id = 0; site = 0 });
    n = 0;
    metas = Hashtbl.create 64;
  }

let n_sites t = t.n

let site_id t key =
  match Hashtbl.find_opt t.ids key with
  | Some id -> id
  | None ->
      let id = t.n in
      if id >= Array.length t.by_key then begin
        let grown =
          Array.make (2 * Array.length t.by_key) t.by_key.(0)
        in
        Array.blit t.by_key 0 grown 0 t.n;
        t.by_key <- grown
      end;
      t.by_key.(id) <- key;
      t.n <- t.n + 1;
      Hashtbl.add t.ids key id;
      id

let key_of_id t id =
  if id < 0 || id >= t.n then invalid_arg "Attrib.key_of_id";
  t.by_key.(id)

let register t key meta = Hashtbl.replace t.metas key meta
let meta_of_key t key = Hashtbl.find_opt t.metas key
let meta_of_id t id = if id < 0 || id >= t.n then None else meta_of_key t (key_of_id t id)

(* The one (method, pc) packer. Every int-keyed table that names a code
   position speaks it: the hierarchy's pc (the RPT's index), the
   demand-miss buckets, the profiler's pc and alloc-site cells and the
   monitor's alloc-site sets. Method id in the high bits, the position
   in the low 16; positions are bytecode offsets or load-site numbers,
   well under 2^16 for any workload here. *)
let pack_pc ~method_id ~pc = (method_id lsl 16) lor (pc land 0xffff)
let packed_method k = k lsr 16
let packed_pc k = k land 0xffff

(* Demand sites are attributed by a packed (method, load site) key so
   the memsim-side demand-miss buckets stay plain ints too. *)
let demand_key ~method_id ~site = pack_pc ~method_id ~pc:site
let demand_key_method = packed_method
let demand_key_site = packed_pc

let pp_key ppf = function
  | Inter_site { method_id; site } ->
      Fmt.pf ppf "inter m%d@@%d" method_id site
  | Dynamic_site { method_id; site } ->
      Fmt.pf ppf "dynamic m%d@@%d" method_id site
  | Spec_site { method_id; site; reg } ->
      Fmt.pf ppf "spec m%d@@%d r%d" method_id site reg
  | Indirect_site { method_id; reg; offset } ->
      Fmt.pf ppf "indirect m%d r%d+%d" method_id reg offset
