(* Accumulates the interpreter's profile hooks into dense tables.

   The conservation law that makes the profile trustworthy: the
   interpreter reports every cycle it charges through exactly one hook
   call, and this collector adds every hook payload to exactly one bin,
   so [total] reconstructs [Stats.cycles] exactly. The law is asserted
   per cell by the profile tests and, behind [check_invariants], at the
   end of every harness run. *)

type bins = {
  mutable b_retire : int;
  mutable b_tlb : int;
  mutable b_l1 : int;
  mutable b_l2 : int;
  mutable b_mem : int;
  mutable b_pf : int;
  mutable b_guard : int;
  mutable b_alloc : int;
}

let zero_bins () =
  {
    b_retire = 0;
    b_tlb = 0;
    b_l1 = 0;
    b_l2 = 0;
    b_mem = 0;
    b_pf = 0;
    b_guard = 0;
    b_alloc = 0;
  }

let bins_total b =
  b.b_retire + b.b_tlb + b.b_l1 + b.b_l2 + b.b_mem + b.b_pf + b.b_guard
  + b.b_alloc

let add_bins ~into b =
  into.b_retire <- into.b_retire + b.b_retire;
  into.b_tlb <- into.b_tlb + b.b_tlb;
  into.b_l1 <- into.b_l1 + b.b_l1;
  into.b_l2 <- into.b_l2 + b.b_l2;
  into.b_mem <- into.b_mem + b.b_mem;
  into.b_pf <- into.b_pf + b.b_pf;
  into.b_guard <- into.b_guard + b.b_guard;
  into.b_alloc <- into.b_alloc + b.b_alloc

type obj_cell = {
  mutable allocs : int;
  mutable alloc_bytes : int;
  mutable o_tlb : int;
  mutable o_l1 : int;
  mutable o_l2 : int;
  mutable o_mem : int;
}

let zero_obj () =
  { allocs = 0; alloc_bytes = 0; o_tlb = 0; o_l1 = 0; o_l2 = 0; o_mem = 0 }

module Itbl = Memsim.Int_table

(* The per-pc bins are a dense table indexed by method id, then by pc,
   each level grown on demand; [no_bins] marks a pc that was never
   charged. A cell exists once any hook names its pc — even with zero
   cycles — exactly like the first-touch entries of a keyed table. *)
type t = {
  mutable pcs : bins array array;  (** method id -> pc -> bins *)
  mutable obj_site : int array;  (** heap object id -> packed alloc site *)
  obj_sites : obj_cell Itbl.t;  (** packed alloc site -> cell *)
  mutable gc : int;
}

let no_bins = zero_bins ()

let create () =
  {
    pcs = [||];
    obj_site = Array.make 1024 (-1);
    obj_sites = Itbl.create 128;
    gc = 0;
  }

let key = Telemetry.Attrib.pack_pc

let grow a ~len ~fill =
  let grown = Array.make (max len (2 * Array.length a)) fill in
  Array.blit a 0 grown 0 (Array.length a);
  grown

(* First charge at (method, pc): grow the table to reach it and open its
   cell. Out of line: it runs once per charged pc. *)
let[@inline never] fresh_bins t ~method_id ~pc =
  if method_id >= Array.length t.pcs then
    t.pcs <- grow t.pcs ~len:(method_id + 1) ~fill:[||];
  let row = t.pcs.(method_id) in
  let row =
    if pc < Array.length row then row
    else begin
      let row = grow row ~len:(max 16 (pc + 1)) ~fill:no_bins in
      t.pcs.(method_id) <- row;
      row
    end
  in
  let b = zero_bins () in
  row.(pc) <- b;
  b

let pc_bins t ~method_id ~pc =
  if method_id < Array.length t.pcs then
    let row = t.pcs.(method_id) in
    if pc < Array.length row then
      let b = row.(pc) in
      if b != no_bins then b else fresh_bins t ~method_id ~pc
    else fresh_bins t ~method_id ~pc
  else fresh_bins t ~method_id ~pc

(* Every stall asks for its object's site cell, so the lookup is the
   allocation-free [find]. *)
let obj_cell t site =
  match Itbl.find t.obj_sites site with
  | c -> c
  | exception Not_found ->
      let c = zero_obj () in
      Itbl.add t.obj_sites site c;
      c

let site_of_obj t obj =
  if obj >= 0 && obj < Array.length t.obj_site then t.obj_site.(obj) else -1

let remember_site t ~obj ~site =
  let n = Array.length t.obj_site in
  if obj >= n then begin
    let grown = Array.make (max (2 * n) (obj + 1)) (-1) in
    Array.blit t.obj_site 0 grown 0 n;
    t.obj_site <- grown
  end;
  t.obj_site.(obj) <- site

let hooks t : Vm.Interp.profile_hooks =
  {
    on_cycles =
      (fun ~method_id ~pc ~bin ~cycles ->
        let b = pc_bins t ~method_id ~pc in
        match bin with
        | Vm.Interp.Prof_retire -> b.b_retire <- b.b_retire + cycles
        | Vm.Interp.Prof_alloc -> b.b_alloc <- b.b_alloc + cycles
        | Vm.Interp.Prof_pf_overhead -> b.b_pf <- b.b_pf + cycles
        | Vm.Interp.Prof_guard_overhead -> b.b_guard <- b.b_guard + cycles);
    on_stall =
      (fun ~method_id ~pc ~obj ~tlb ~l1 ~l2 ~mem ->
        let b = pc_bins t ~method_id ~pc in
        b.b_tlb <- b.b_tlb + tlb;
        b.b_l1 <- b.b_l1 + l1;
        b.b_l2 <- b.b_l2 + l2;
        b.b_mem <- b.b_mem + mem;
        let c = obj_cell t (site_of_obj t obj) in
        c.o_tlb <- c.o_tlb + tlb;
        c.o_l1 <- c.o_l1 + l1;
        c.o_l2 <- c.o_l2 + l2;
        c.o_mem <- c.o_mem + mem);
    on_alloc =
      (fun ~obj ~method_id ~pc ~bytes ->
        let site = key ~method_id ~pc in
        remember_site t ~obj ~site;
        let c = obj_cell t site in
        c.allocs <- c.allocs + 1;
        c.alloc_bytes <- c.alloc_bytes + bytes);
    on_gc = (fun ~cycles -> t.gc <- t.gc + cycles);
  }

let fold_pcs f t acc =
  let acc = ref acc in
  Array.iteri
    (fun method_id row ->
      Array.iteri
        (fun pc b -> if b != no_bins then acc := f (key ~method_id ~pc) b !acc)
        row)
    t.pcs;
  !acc

let pc_cells t = fold_pcs (fun k b acc -> (k, b) :: acc) t []
let obj_cells t = Itbl.fold (fun k c acc -> (k, c) :: acc) t.obj_sites []
let gc_cycles t = t.gc
let total t = fold_pcs (fun _ b acc -> acc + bins_total b) t t.gc
