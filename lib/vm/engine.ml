(* The closure-compiled execution engine (DESIGN.md section 10).

   [compile] translates a method body, at JIT time, into a flat array of
   OCaml closures — one handler per pc, plus an out-of-bounds sentinel at
   index [n]. Each handler performs exactly the observable state
   transitions of one iteration of the switch engine's fetch/decode loop
   (Interp.exec_switch), then tail-calls the next handler directly:
   straight-line code threads through captured [next] closures and never
   touches the dispatch [match] again, which is where the speedup comes
   from. Branch handlers jump through the handler array
   ([Array.unsafe_get handlers target] — safe: every baked target was
   bounds-checked at compile time).

   Bit-identity with the switch engine is the hard contract (enforced by
   test/test_engine.ml and the fuzz oracle's engine axis). The exact
   reference sequence per instruction is:

     bounds-check pc -> steps++ -> budget check -> fetch -> pc++ ->
     retire 1 -> charge base_cost -> profiler base-slot report ->
     instruction body

   and the compiled handlers replay it with three compile-time
   transformations, each individually cycle-neutral:

   - The pc bounds check is baked: in-range pcs get handlers, branch
     targets are validated when the branch is compiled (an out-of-range
     target becomes a raising handler that fires {e after} the backedge
     bookkeeping, exactly when the switch engine's next loop iteration
     would), and fall-through past the last instruction lands on the
     sentinel.
   - Charges that precede the next observation point are folded: the
     memory hierarchy only observes [t.stats.cycles] at access time
     ([~now]), so a prefetch op's base slot + incremental cost, or an
     array op's two base slots, become one charge for the same total —
     and in the uninstrumented variant the folding extends to whole
     basic blocks (see the superinstruction commentary below). Charges
     on either side of an access are never folded.
   - Observer specialization: when telemetry, profiling and the load
     observer are all off ([State.instrumented] false), the {e plain}
     handler variant is compiled — no per-step option tests, no
     [frame.pc] stores (nothing can observe pc without an observer
     installed), direct calls into the hierarchy. Otherwise the
     {e instrumented} variant mirrors the switch engine's attributed path
     verbatim, maintaining the [frame.pc = executing pc + 1] invariant
     that stall/alloc attribution reads. The artifact records which
     variant it is and is recompiled if the observer set changes.

   Compiled/interpreted cycle attribution reads [m.compiled] dynamically
   in [pre] (not the baked entry value) because the switch engine's
   [charge] does: a recursive method compiled mid-activation flips the
   attribution of the outer activation's remaining cycles while its
   baked [base_cost] stays, and we reproduce that faithfully.

   Artifacts are cached per method in [t.closure_cache] keyed on the
   physical identity of [m.code] (every JIT pass swaps in a fresh array;
   see Jit.Pipeline), the compiled flag, and the observer fingerprint —
   validated on every method entry, refreshed eagerly by the pipeline's
   [on_mutate] hook between passes. *)

open State

(* Int-specialized twin of [State.compare_int]: the shared helper is
   polymorphic (generic-compare C call); here the operands are always
   ints. *)
let[@inline] icompare (c : Bytecode.cmp) (a : int) (b : int) =
  match c with
  | Eq -> a = b
  | Ne -> a <> b
  | Lt -> a < b
  | Ge -> a >= b
  | Gt -> a > b
  | Le -> a <= b

(* Hand-inlined operand-stack primitives. [Frame.push]/[pop] carry their
   error paths (string building) inline, which makes them too big for the
   Closure middle-end to inline cross-module; these twins keep the happy
   path to a bounds test + array move and push the raising code out of
   line. Messages are byte-identical to Frame's. *)

let[@inline never] stack_overflow (frame : Frame.t) =
  raise
    (Frame.Stack_error
       ("operand stack overflow in " ^ frame.method_info.method_name))

let[@inline never] stack_underflow (frame : Frame.t) =
  raise
    (Frame.Stack_error
       ("operand stack underflow in " ^ frame.method_info.method_name))

let[@inline never] int_expected (frame : Frame.t) v =
  raise
    (Frame.Stack_error
       (Printf.sprintf "expected int on stack in %s, got %s"
          frame.method_info.method_name (Value.to_string v)))

let[@inline] push (frame : Frame.t) v =
  if frame.sp >= Frame.max_stack then stack_overflow frame;
  Array.unsafe_set frame.stack frame.sp v;
  frame.sp <- frame.sp + 1

let[@inline] pop (frame : Frame.t) =
  if frame.sp <= 0 then stack_underflow frame;
  let sp = frame.sp - 1 in
  frame.sp <- sp;
  Array.unsafe_get frame.stack sp

let[@inline] pop_int (frame : Frame.t) =
  match pop frame with Value.Int n -> n | v -> int_expected frame v

let[@inline] peek (frame : Frame.t) =
  if frame.sp <= 0 then stack_underflow frame;
  Array.unsafe_get frame.stack (frame.sp - 1)

(* Block-local top-of-stack caching (see the commentary in [compile]): a
   [vhandler] is a handler compiled against a {e full} cache — its second
   argument is the logical top of stack, which is {e not} present in
   [frame.stack]. [kont] is a continuation of either kind, matched at
   compile time against the statically-tracked cache state. *)
type vhandler = Frame.t -> Value.t -> Value.t option
type kont = KH of handler | KV of vhandler

(* Write a cached value back into the stack array. Unconditionally in
   bounds: a value is only cached after the push producing it passed its
   overflow check, and [frame.sp] cannot change while it stays cached. *)
let[@inline] spill (frame : Frame.t) v =
  Array.unsafe_set frame.stack frame.sp v;
  frame.sp <- frame.sp + 1

let[@inline] cached_int (frame : Frame.t) v =
  match v with Value.Int n -> n | v -> int_expected frame v

(* The shared step prologue: budget, retire, charge — with the retired
   count and cycle cost pre-folded by the compiler ([retired]/[cost] are
   baked constants at every call site). *)
let[@inline] pre (t : t) (m : Classfile.method_info) ~max_steps ~retired ~cost
    =
  let steps = t.steps + 1 in
  t.steps <- steps;
  if steps > max_steps then raise (Budget_exhausted max_steps);
  let stats = t.stats in
  stats.retired_instructions <- stats.retired_instructions + retired;
  stats.cycles <- stats.cycles + cost;
  if m.compiled then t.compiled_cycles <- t.compiled_cycles + cost
  else t.interpreted_cycles <- t.interpreted_cycles + cost

(* Instrumented prologue: additionally maintains [frame.pc] (attribution
   reads [frame.pc - 1] as the executing pc) and reports the base slot to
   the profiler under the instruction's pre-classified bin. *)
let[@inline] pre_i (t : t) (m : Classfile.method_info) (frame : Frame.t) ~pc
    ~max_steps ~base_cost ~bin =
  let steps = t.steps + 1 in
  t.steps <- steps;
  if steps > max_steps then raise (Budget_exhausted max_steps);
  frame.pc <- pc + 1;
  retire t 1;
  charge t frame base_cost;
  match t.prof with
  | Some p -> p.on_cycles ~method_id:m.method_id ~pc ~bin ~cycles:base_cost
  | None -> ()

(* An instrumented prefetch handler's dense attribution id, memoised in
   the handler. The first fire under a registry resolves the handler's
   structural key through [Telemetry.Attrib.site_id], so ids are still
   assigned in first-fire order, exactly as the switch engine's per-fire
   lookups assign them; later fires reuse the id without hashing the key.
   The memo is keyed on the registry's physical identity: re-arming
   telemetry with a fresh registry on the same interpreter resolves
   again instead of reusing an id from the old one. *)
type site_memo = {
  mutable memo_registry : Telemetry.Attrib.t option;
  mutable memo_id : int;
}

let site_memo () = { memo_registry = None; memo_id = -1 }

let[@inline] memo_site_id memo registry key =
  match memo.memo_registry with
  | Some r when r == registry -> memo.memo_id
  | Some _ | None ->
      let id = Telemetry.Attrib.site_id registry key in
      memo.memo_registry <- Some registry;
      memo.memo_id <- id;
      id

let compile (t : t) (m : Classfile.method_info) : compiled_method =
  let code = m.code in
  let n = Array.length code in
  let cm_instrumented = instrumented t in
  let cm_compiled = m.compiled in
  let machine = t.opts.machine in
  let base_cost =
    if cm_compiled then machine.compiled_cost else machine.interp_cost
  in
  let max_steps = t.opts.max_steps in
  let heap = t.heap in
  let mem = t.mem in
  let method_name = m.method_name in
  let oob pc : handler =
   fun _ -> vm_error "pc %d out of bounds in %s" pc method_name
  in
  let handlers : handler array = Array.make (n + 1) (oob n) in
  (* The continuation for a taken branch at [pc] to [target]: count the
     backedge, then enter [target]'s handler — or raise the bounds error
     the switch engine would raise at its next loop top. Forward in-range
     targets are already compiled (backward fill) and bind directly;
     backward targets tie the knot through the array at run time. *)
  let taken_of ~pc target : handler =
    let backedge = target <= pc in
    let in_bounds = target >= 0 && target < n in
    match (backedge, in_bounds) with
    | false, true -> handlers.(target)
    | true, true ->
        fun frame ->
          m.backedges <- m.backedges + 1;
          (Array.unsafe_get handlers target) frame
    | false, false -> oob target
    | true, false ->
        fun _ ->
          m.backedges <- m.backedges + 1;
          vm_error "pc %d out of bounds in %s" target method_name
  in
  (* [Goto] is where the fuzz oracle's engine-desync fault injection
     lands: one extra retired instruction per executed goto, visible only
     in the full-stats cross-engine diff. *)
  let goto_retired =
    if Fault.mem Fault.Engine_desync t.opts.faults then 2 else 1
  in

  (* ---- plain variant: all observers off at compile time ----

     Uninstrumented bodies are compiled as basic-block superinstructions.
     The method is partitioned at block leaders (entry, branch targets,
     and the instruction after any control transfer); within a block, the
     per-instruction prologues are folded into one batched prologue at
     the head — steps and retired count for the whole block committed at
     once — and the instruction {e bodies}, stripped of their prologues,
     thread through direct tail calls.

     Cycle charges are committed in {e segments}. A block may contain
     instructions that observe the cycle clock mid-body (a memory access
     reads [now], an allocation can charge GC cycles, a prefetch
     timestamps its fill), and each must run under exactly the
     cumulative [t.stats.cycles] the switch engine's charge-then-observe
     order produces: every instruction up to and including itself
     charged, nothing later. So the head commits the costs of the first
     segment — up to and including the first observer — and a charge
     step after each observer commits the next segment, giving
     bit-identical [now] at every observation while pure runs between
     observers still pay zero dispatch bookkeeping. [m.compiled] cannot
     flip inside a block (it flips only at an entry to [m] itself, and a
     call terminates a block — every segment charge runs before the
     [Invoke] body), so each segment's attribution test reads the same
     value the head did.

     The batched budget test [steps + k > max_steps] fires iff one of
     the k per-step tests would (the k-th is the batch test itself), and
     then falls back — before committing anything — to the block's
     per-instruction handler chain, which reproduces the exact raise
     point and partial bookkeeping of the switch engine.

     One knowingly unobservable divergence: if an instruction raises
     mid-block (stack error, division by zero, a heap fault), the whole
     block's step/retired bookkeeping and the current segment's cycle
     charges are already committed where the switch engine stops at the
     faulting instruction. Program output, the raised error and the
     frame state are still byte-identical, and no stats counter is
     readable after an aborted run — the fuzz oracle compares crashing
     cells by crash class only. *)
  let is_terminator (instr : Bytecode.instr) =
    match instr with
    | Goto _ | If_icmp _ | If _ | If_acmpeq _ | If_acmpne _ | Ifnull _
    | Ifnonnull _ | Invoke _ | Return | Ireturn | Areturn ->
        true
    | _ -> false
  in
  (* Instructions whose body observes or advances the cycle clock: the
     demand accesses read [now] against the caches, allocation can run
     the collector (which charges cycles), the prefetch family
     timestamps fills, and a call executes a callee full of all of the
     above. Each one ends a charge segment. *)
  let observes_cycles (instr : Bytecode.instr) =
    match instr with
    | Getfield _ | Putfield _ | Getstatic _ | Putstatic _ | Aaload _
    | Iaload _ | Aastore _ | Iastore _ | Arraylength _ | New _ | Newarray _
    | Prefetch_inter _ | Prefetch_dynamic _ | Prefetch_indirect _
    | Spec_load _ | Invoke _ ->
        true
    | _ -> false
  in
  let retired_of (instr : Bytecode.instr) =
    match instr with
    | Aaload _ | Iaload _ | Aastore _ | Iastore _ -> 2
    | Goto _ -> goto_retired
    | _ -> 1
  in
  (* The full cycle cost of one instruction, with the in-case charges the
     switch engine performs before any observation pre-folded: the array
     ops' second base slot, the prefetch ops' incremental cost. *)
  let cost_of (instr : Bytecode.instr) =
    match instr with
    | Aaload _ | Iaload _ | Aastore _ | Iastore _ -> 2 * base_cost
    | Prefetch_inter _ | Prefetch_dynamic _ ->
        base_cost + max 0 (machine.prefetch_cost - base_cost)
    | Spec_load _ -> base_cost + max 0 (machine.guarded_load_cost - base_cost)
    | Prefetch_indirect { guarded; _ } ->
        let full =
          if guarded then machine.guarded_load_cost else machine.prefetch_cost
        in
        base_cost + max 0 (full - base_cost)
    | _ -> base_cost
  in
  let locals_len = max m.max_locals m.arity in

  (* The prologue-free instruction body. [next] is the fall-through
     continuation: inside a block, the next body; at the block's end, the
     successor block's handler. *)
  let body ~(next : handler) pc (instr : Bytecode.instr) : handler =
    match instr with
    | Iconst k ->
        let v = Value.of_int k in
        fun frame ->
          push frame v;
          next frame
    | Aconst_null ->
        fun frame ->
          push frame Value.Null;
          next frame
    | Iload i | Aload i ->
        (* Baked bounds check: the frame executing this artifact always
           has [max max_locals arity] locals (Frame.reusable discards
           stale pooled frames, and any pass growing max_locals swaps
           [m.code], invalidating the artifact), so an in-range constant
           index can skip the runtime check. Out-of-range indices keep
           the checked access and its Invalid_argument. *)
        if i >= 0 && i < locals_len then
          fun frame ->
            push frame (Array.unsafe_get frame.locals i);
            next frame
        else
          fun frame ->
            push frame frame.locals.(i);
            next frame
    | Istore i | Astore i ->
        if i >= 0 && i < locals_len then
          fun frame ->
            Array.unsafe_set frame.locals i (pop frame);
            next frame
        else
          fun frame ->
            frame.locals.(i) <- pop frame;
            next frame
    | Dup ->
        fun frame ->
          push frame (peek frame);
          next frame
    | Pop ->
        fun frame ->
          ignore (pop frame);
          next frame
    | Iadd ->
        fun frame ->
          let b = pop_int frame in
          let a = pop_int frame in
          push frame (Value.of_int (a + b));
          next frame
    | Isub ->
        fun frame ->
          let b = pop_int frame in
          let a = pop_int frame in
          push frame (Value.of_int (a - b));
          next frame
    | Imul ->
        fun frame ->
          let b = pop_int frame in
          let a = pop_int frame in
          push frame (Value.of_int (a * b));
          next frame
    | Idiv ->
        fun frame ->
          let b = pop_int frame in
          let a = pop_int frame in
          if b = 0 then vm_error "division by zero in %s" method_name;
          push frame (Value.of_int (a / b));
          next frame
    | Irem ->
        fun frame ->
          let b = pop_int frame in
          let a = pop_int frame in
          if b = 0 then vm_error "division by zero in %s" method_name;
          push frame (Value.of_int (a mod b));
          next frame
    | Ineg ->
        fun frame ->
          push frame (Value.of_int (-pop_int frame));
          next frame
    | Iand ->
        fun frame ->
          let b = pop_int frame in
          let a = pop_int frame in
          push frame (Value.of_int (a land b));
          next frame
    | Ior ->
        fun frame ->
          let b = pop_int frame in
          let a = pop_int frame in
          push frame (Value.of_int (a lor b));
          next frame
    | Ixor ->
        fun frame ->
          let b = pop_int frame in
          let a = pop_int frame in
          push frame (Value.of_int (a lxor b));
          next frame
    | Ishl ->
        fun frame ->
          let b = pop_int frame in
          let a = pop_int frame in
          push frame (Value.of_int (a lsl (b land 63)));
          next frame
    | Ishr ->
        fun frame ->
          let b = pop_int frame in
          let a = pop_int frame in
          push frame (Value.of_int (a asr (b land 63)));
          next frame
    | Goto target -> taken_of ~pc target
    | If_icmp (c, target) -> (
        let taken = taken_of ~pc target in
        match c with
        | Eq ->
            fun frame ->
              let b = pop_int frame in
              let a = pop_int frame in
              if a = b then taken frame else next frame
        | Ne ->
            fun frame ->
              let b = pop_int frame in
              let a = pop_int frame in
              if a <> b then taken frame else next frame
        | Lt ->
            fun frame ->
              let b = pop_int frame in
              let a = pop_int frame in
              if a < b then taken frame else next frame
        | Ge ->
            fun frame ->
              let b = pop_int frame in
              let a = pop_int frame in
              if a >= b then taken frame else next frame
        | Gt ->
            fun frame ->
              let b = pop_int frame in
              let a = pop_int frame in
              if a > b then taken frame else next frame
        | Le ->
            fun frame ->
              let b = pop_int frame in
              let a = pop_int frame in
              if a <= b then taken frame else next frame)
    | If (c, target) -> (
        let taken = taken_of ~pc target in
        match c with
        | Eq ->
            fun frame -> if pop_int frame = 0 then taken frame else next frame
        | Ne ->
            fun frame -> if pop_int frame <> 0 then taken frame else next frame
        | Lt ->
            fun frame -> if pop_int frame < 0 then taken frame else next frame
        | Ge ->
            fun frame -> if pop_int frame >= 0 then taken frame else next frame
        | Gt ->
            fun frame -> if pop_int frame > 0 then taken frame else next frame
        | Le ->
            fun frame -> if pop_int frame <= 0 then taken frame else next frame)
    | If_acmpeq target ->
        let taken = taken_of ~pc target in
        fun frame ->
          let b = pop frame in
          let a = pop frame in
          if Value.equal a b then taken frame else next frame
    | If_acmpne target ->
        let taken = taken_of ~pc target in
        fun frame ->
          let b = pop frame in
          let a = pop frame in
          if not (Value.equal a b) then taken frame else next frame
    | Ifnull target ->
        let taken = taken_of ~pc target in
        fun frame ->
          (match pop frame with
          | Value.Null -> taken frame
          | _ -> next frame)
    | Ifnonnull target ->
        let taken = taken_of ~pc target in
        fun frame ->
          (match pop frame with
          | Value.Null -> next frame
          | _ -> taken frame)
    | Getfield { site; offset; name = _; is_ref = _ } ->
        let slot = (offset - Classfile.header_bytes) / Classfile.slot_bytes in
        fun frame ->
          let id = as_ref frame (pop frame) in
          let addr = Heap.base_of heap id + offset in
          demand_plain t frame ~pc ~addr ~kind:`Load;
          frame.site_prev.(site) <- frame.site_addr.(site);
          frame.site_addr.(site) <- addr;
          push frame (Heap.get_field heap id slot);
          next frame
    | Putfield { offset; name = _ } ->
        let slot = (offset - Classfile.header_bytes) / Classfile.slot_bytes in
        fun frame ->
          let v = pop frame in
          let id = as_ref frame (pop frame) in
          let addr = Heap.base_of heap id + offset in
          demand_plain t frame ~pc ~addr ~kind:`Store;
          Heap.set_field heap id slot v;
          next frame
    | Getstatic { site; index; name = _; is_ref = _ } ->
        let addr = Classfile.statics_base + (index * Classfile.slot_bytes) in
        fun frame ->
          demand_plain t frame ~pc ~addr ~kind:`Load;
          frame.site_prev.(site) <- frame.site_addr.(site);
          frame.site_addr.(site) <- addr;
          push frame t.globals.(index);
          next frame
    | Putstatic { index; name = _ } ->
        let addr = Classfile.statics_base + (index * Classfile.slot_bytes) in
        fun frame ->
          demand_plain t frame ~pc ~addr ~kind:`Store;
          t.globals.(index) <- pop frame;
          next frame
    | Aaload { len_site; elem_site } | Iaload { len_site; elem_site } ->
        fun frame ->
          let index = pop_int frame in
          let id = as_ref frame (pop frame) in
          let addr = array_access_plain t frame ~pc ~len_site ~id ~index in
          demand_plain t frame ~pc ~addr ~kind:`Load;
          frame.site_prev.(elem_site) <- frame.site_addr.(elem_site);
          frame.site_addr.(elem_site) <- addr;
          push frame (Heap.get_elem heap id index);
          next frame
    | Aastore { len_site } | Iastore { len_site } ->
        fun frame ->
          let v = pop frame in
          let index = pop_int frame in
          let id = as_ref frame (pop frame) in
          let addr = array_access_plain t frame ~pc ~len_site ~id ~index in
          demand_plain t frame ~pc ~addr ~kind:`Store;
          Heap.set_elem heap id index v;
          next frame
    | Arraylength { site } ->
        fun frame ->
          let id = as_ref frame (pop frame) in
          let addr = Heap.length_addr heap id in
          demand_plain t frame ~pc ~addr ~kind:`Load;
          frame.site_prev.(site) <- frame.site_addr.(site);
          frame.site_addr.(site) <- addr;
          push frame (Value.of_int (Heap.array_length heap id));
          next frame
    | New class_id ->
        let ci = Classfile.class_of_id t.program class_id in
        let alloc () = Heap.alloc_object heap ci in
        fun frame ->
          let id = allocate t frame ~pc alloc in
          push frame (Value.Ref id);
          next frame
    | Newarray kind ->
        fun frame ->
          let len = pop_int frame in
          if len < 0 then vm_error "negative array size in %s" method_name;
          let alloc () =
            match kind with
            | Bytecode.Int_array -> Heap.alloc_int_array heap len
            | Bytecode.Ref_array -> Heap.alloc_ref_array heap len
          in
          push frame (Value.Ref (allocate t frame ~pc alloc));
          next frame
    | Invoke callee_id ->
        let callee = Classfile.method_of_id t.program callee_id in
        fun frame ->
          let args = scratch_args t callee.arity in
          for i = callee.arity - 1 downto 0 do
            args.(i) <- pop frame
          done;
          (match call t callee args with
          | Some v -> push frame v
          | None -> ());
          next frame
    | Return -> fun _frame -> None
    | Ireturn | Areturn -> fun frame -> Some (pop frame)
    | Print ->
        fun frame ->
          let v = pop_int frame in
          Buffer.add_string t.out (string_of_int v);
          Buffer.add_char t.out '\n';
          next frame
    | Prefetch_inter { site; distance } ->
        fun frame ->
          let anchor = frame.site_addr.(site) in
          if anchor >= 0 then begin
            let addr = anchor + distance in
            audit_prefetch_addr t addr;
            Memsim.Hierarchy.sw_prefetch mem ~addr ~now:t.stats.cycles
          end;
          next frame
    | Spec_load { site; distance; reg } ->
        let unguarded = Fault.mem Fault.Unguarded_spec_loads t.opts.faults in
        fun frame ->
          let anchor = frame.site_addr.(site) in
          if anchor >= 0 then begin
            let addr = anchor + distance in
            audit_prefetch_addr t addr;
            Memsim.Hierarchy.guarded_load mem ~addr ~now:t.stats.cycles;
            let v =
              match Heap.value_at heap addr with
              | Some v -> v
              | None ->
                  t.spec_guard_trips <- t.spec_guard_trips + 1;
                  if unguarded then begin
                    t.faulting_prefetches <- t.faulting_prefetches + 1;
                    vm_error
                      "unguarded spec_load faulted at address 0x%x in %s" addr
                      method_name
                  end;
                  Value.Null
            in
            frame.pref_regs.(reg) <- v
          end
          else frame.pref_regs.(reg) <- Value.Null;
          next frame
    | Prefetch_dynamic { site; times } ->
        fun frame ->
          let addr = frame.site_addr.(site) in
          let prev = frame.site_prev.(site) in
          if addr >= 0 && prev >= 0 && addr <> prev then begin
            let target = addr + ((addr - prev) * times) in
            audit_prefetch_addr t target;
            Memsim.Hierarchy.sw_prefetch mem ~addr:target ~now:t.stats.cycles
          end;
          next frame
    | Prefetch_indirect { reg; offset; guarded } ->
        fun frame ->
          (match frame.pref_regs.(reg) with
          | Value.Ref id when Heap.exists heap id ->
              let addr = Heap.base_of heap id + offset in
              audit_prefetch_addr t addr;
              if guarded then
                Memsim.Hierarchy.guarded_load mem ~addr ~now:t.stats.cycles
              else Memsim.Hierarchy.sw_prefetch mem ~addr ~now:t.stats.cycles
          | Value.Ref _ | Value.Int _ | Value.Null -> ());
          next frame
  in

  (* ---- top-of-stack caching within blocks ----

     Block chains additionally thread the topmost operand through a
     closure argument ([vhandler]) instead of the stack array whenever
     its position is statically known: blocks and branch targets are
     entered with the cache empty, each instruction is compiled against
     the compile-time cache state, and a cached value is spilled back
     exactly where the switch engine would have had it in the array —
     when the next instruction cannot consume it directly, at block
     exits, and before any allocation that does not consume it (the
     collector enumerates roots from [frame.stack], so a reference must
     never be cached across a GC point; [New] spills first, [Newarray]
     and [Invoke] consume the cache before allocating, and a zero-arity
     [Invoke] falls back to the spill adapter). Overflow and underflow
     tests compare the same logical depths at the same program points as
     the switch engine — a cached value counts one toward the logical
     depth — so every Stack_error fires identically.

     [body_empty] compiles an instruction whose entry cache is empty; it
     defers to [body] for every instruction that also exits empty.
     [body_full] returns [None] for instructions with no profitable
     full-cache form; [build] then inserts the spill adapter and
     compiles the empty-entry form, which is exact for any instruction
     (spilling merely materializes the logical stack). [exits_full] is
     the single source of truth for the post-state, shared by both
     paths. *)
  let exits_full (instr_ : Bytecode.instr) =
    match instr_ with
    | Iconst _ | Aconst_null | Iload _ | Aload _ | Dup | Iadd | Isub | Imul
    | Idiv | Irem | Ineg | Iand | Ior | Ixor | Ishl | Ishr | Getfield _
    | Getstatic _ | Aaload _ | Iaload _ | Arraylength _ | New _ | Newarray _
      ->
        true
    | _ -> false
  in
  let kh = function KH h -> h | KV _ -> assert false in
  let kv = function KV h -> h | KH _ -> assert false in
  let body_empty kont pc (instr_ : Bytecode.instr) : handler =
    match instr_ with
    | Iconst k ->
        let v = Value.of_int k in
        let nv = kv kont in
        fun frame ->
          if frame.sp >= Frame.max_stack then stack_overflow frame;
          nv frame v
    | Aconst_null ->
        let nv = kv kont in
        fun frame ->
          if frame.sp >= Frame.max_stack then stack_overflow frame;
          nv frame Value.Null
    | Iload i | Aload i ->
        let nv = kv kont in
        if i >= 0 && i < locals_len then
          fun frame ->
            if frame.sp >= Frame.max_stack then stack_overflow frame;
            nv frame (Array.unsafe_get frame.locals i)
        else
          fun frame ->
            let v = frame.locals.(i) in
            if frame.sp >= Frame.max_stack then stack_overflow frame;
            nv frame v
    | Dup ->
        let nv = kv kont in
        fun frame ->
          let v = peek frame in
          if frame.sp >= Frame.max_stack then stack_overflow frame;
          nv frame v
    | Iadd ->
        let nv = kv kont in
        fun frame ->
          let b = pop_int frame in
          let a = pop_int frame in
          nv frame (Value.of_int (a + b))
    | Isub ->
        let nv = kv kont in
        fun frame ->
          let b = pop_int frame in
          let a = pop_int frame in
          nv frame (Value.of_int (a - b))
    | Imul ->
        let nv = kv kont in
        fun frame ->
          let b = pop_int frame in
          let a = pop_int frame in
          nv frame (Value.of_int (a * b))
    | Idiv ->
        let nv = kv kont in
        fun frame ->
          let b = pop_int frame in
          let a = pop_int frame in
          if b = 0 then vm_error "division by zero in %s" method_name;
          nv frame (Value.of_int (a / b))
    | Irem ->
        let nv = kv kont in
        fun frame ->
          let b = pop_int frame in
          let a = pop_int frame in
          if b = 0 then vm_error "division by zero in %s" method_name;
          nv frame (Value.of_int (a mod b))
    | Ineg ->
        let nv = kv kont in
        fun frame -> nv frame (Value.of_int (-pop_int frame))
    | Iand ->
        let nv = kv kont in
        fun frame ->
          let b = pop_int frame in
          let a = pop_int frame in
          nv frame (Value.of_int (a land b))
    | Ior ->
        let nv = kv kont in
        fun frame ->
          let b = pop_int frame in
          let a = pop_int frame in
          nv frame (Value.of_int (a lor b))
    | Ixor ->
        let nv = kv kont in
        fun frame ->
          let b = pop_int frame in
          let a = pop_int frame in
          nv frame (Value.of_int (a lxor b))
    | Ishl ->
        let nv = kv kont in
        fun frame ->
          let b = pop_int frame in
          let a = pop_int frame in
          nv frame (Value.of_int (a lsl (b land 63)))
    | Ishr ->
        let nv = kv kont in
        fun frame ->
          let b = pop_int frame in
          let a = pop_int frame in
          nv frame (Value.of_int (a asr (b land 63)))
    | Getfield { site; offset; name = _; is_ref = _ } ->
        let slot = (offset - Classfile.header_bytes) / Classfile.slot_bytes in
        let nv = kv kont in
        fun frame ->
          let id = as_ref frame (pop frame) in
          let addr = Heap.base_of heap id + offset in
          demand_plain t frame ~pc ~addr ~kind:`Load;
          frame.site_prev.(site) <- frame.site_addr.(site);
          frame.site_addr.(site) <- addr;
          nv frame (Heap.get_field heap id slot)
    | Getstatic { site; index; name = _; is_ref = _ } ->
        let addr = Classfile.statics_base + (index * Classfile.slot_bytes) in
        let nv = kv kont in
        fun frame ->
          demand_plain t frame ~pc ~addr ~kind:`Load;
          frame.site_prev.(site) <- frame.site_addr.(site);
          frame.site_addr.(site) <- addr;
          let v = t.globals.(index) in
          if frame.sp >= Frame.max_stack then stack_overflow frame;
          nv frame v
    | Aaload { len_site; elem_site } | Iaload { len_site; elem_site } ->
        let nv = kv kont in
        fun frame ->
          let index = pop_int frame in
          let id = as_ref frame (pop frame) in
          let addr = array_access_plain t frame ~pc ~len_site ~id ~index in
          demand_plain t frame ~pc ~addr ~kind:`Load;
          frame.site_prev.(elem_site) <- frame.site_addr.(elem_site);
          frame.site_addr.(elem_site) <- addr;
          nv frame (Heap.get_elem heap id index)
    | Arraylength { site } ->
        let nv = kv kont in
        fun frame ->
          let id = as_ref frame (pop frame) in
          let addr = Heap.length_addr heap id in
          demand_plain t frame ~pc ~addr ~kind:`Load;
          frame.site_prev.(site) <- frame.site_addr.(site);
          frame.site_addr.(site) <- addr;
          nv frame (Value.of_int (Heap.array_length heap id))
    | New class_id ->
        let ci = Classfile.class_of_id t.program class_id in
        let alloc () = Heap.alloc_object heap ci in
        let nv = kv kont in
        fun frame ->
          let id = allocate t frame ~pc alloc in
          if frame.sp >= Frame.max_stack then stack_overflow frame;
          nv frame (Value.Ref id)
    | Newarray kind ->
        let nv = kv kont in
        fun frame ->
          let len = pop_int frame in
          if len < 0 then vm_error "negative array size in %s" method_name;
          let alloc () =
            match kind with
            | Bytecode.Int_array -> Heap.alloc_int_array heap len
            | Bytecode.Ref_array -> Heap.alloc_ref_array heap len
          in
          nv frame (Value.Ref (allocate t frame ~pc alloc))
    | _ -> body ~next:(kh kont) pc instr_
  in
  let body_full kont pc (instr_ : Bytecode.instr) : vhandler option =
    match instr_ with
    | Istore i | Astore i ->
        let nh = kh kont in
        Some
          (if i >= 0 && i < locals_len then fun frame v ->
             Array.unsafe_set frame.locals i v;
             nh frame
           else fun frame v ->
             frame.locals.(i) <- v;
             nh frame)
    | Pop ->
        let nh = kh kont in
        Some (fun frame _v -> nh frame)
    | Dup ->
        let nv = kv kont in
        Some
          (fun frame v ->
            if frame.sp >= Frame.max_stack - 1 then stack_overflow frame;
            spill frame v;
            nv frame v)
    | Iadd ->
        let nv = kv kont in
        Some
          (fun frame v ->
            let b = cached_int frame v in
            let a = pop_int frame in
            nv frame (Value.of_int (a + b)))
    | Isub ->
        let nv = kv kont in
        Some
          (fun frame v ->
            let b = cached_int frame v in
            let a = pop_int frame in
            nv frame (Value.of_int (a - b)))
    | Imul ->
        let nv = kv kont in
        Some
          (fun frame v ->
            let b = cached_int frame v in
            let a = pop_int frame in
            nv frame (Value.of_int (a * b)))
    | Idiv ->
        let nv = kv kont in
        Some
          (fun frame v ->
            let b = cached_int frame v in
            let a = pop_int frame in
            if b = 0 then vm_error "division by zero in %s" method_name;
            nv frame (Value.of_int (a / b)))
    | Irem ->
        let nv = kv kont in
        Some
          (fun frame v ->
            let b = cached_int frame v in
            let a = pop_int frame in
            if b = 0 then vm_error "division by zero in %s" method_name;
            nv frame (Value.of_int (a mod b)))
    | Ineg ->
        let nv = kv kont in
        Some (fun frame v -> nv frame (Value.of_int (-cached_int frame v)))
    | Iand ->
        let nv = kv kont in
        Some
          (fun frame v ->
            let b = cached_int frame v in
            let a = pop_int frame in
            nv frame (Value.of_int (a land b)))
    | Ior ->
        let nv = kv kont in
        Some
          (fun frame v ->
            let b = cached_int frame v in
            let a = pop_int frame in
            nv frame (Value.of_int (a lor b)))
    | Ixor ->
        let nv = kv kont in
        Some
          (fun frame v ->
            let b = cached_int frame v in
            let a = pop_int frame in
            nv frame (Value.of_int (a lxor b)))
    | Ishl ->
        let nv = kv kont in
        Some
          (fun frame v ->
            let b = cached_int frame v in
            let a = pop_int frame in
            nv frame (Value.of_int (a lsl (b land 63))))
    | Ishr ->
        let nv = kv kont in
        Some
          (fun frame v ->
            let b = cached_int frame v in
            let a = pop_int frame in
            nv frame (Value.of_int (a asr (b land 63))))
    | If_icmp (c, target) -> (
        (* Specialized per comparison (like the empty-cache path): the
           cached back-edge compare is the hottest vhandler of all, and
           the generic [compare_int] helper goes through the polymorphic
           compare C call. *)
        let taken = taken_of ~pc target in
        let next = kh kont in
        match c with
        | Eq ->
            Some
              (fun frame v ->
                let b = cached_int frame v in
                let a = pop_int frame in
                if a = b then taken frame else next frame)
        | Ne ->
            Some
              (fun frame v ->
                let b = cached_int frame v in
                let a = pop_int frame in
                if a <> b then taken frame else next frame)
        | Lt ->
            Some
              (fun frame v ->
                let b = cached_int frame v in
                let a = pop_int frame in
                if a < b then taken frame else next frame)
        | Ge ->
            Some
              (fun frame v ->
                let b = cached_int frame v in
                let a = pop_int frame in
                if a >= b then taken frame else next frame)
        | Gt ->
            Some
              (fun frame v ->
                let b = cached_int frame v in
                let a = pop_int frame in
                if a > b then taken frame else next frame)
        | Le ->
            Some
              (fun frame v ->
                let b = cached_int frame v in
                let a = pop_int frame in
                if a <= b then taken frame else next frame))
    | If (c, target) -> (
        let taken = taken_of ~pc target in
        let next = kh kont in
        match c with
        | Eq ->
            Some
              (fun frame v ->
                if cached_int frame v = 0 then taken frame else next frame)
        | Ne ->
            Some
              (fun frame v ->
                if cached_int frame v <> 0 then taken frame else next frame)
        | Lt ->
            Some
              (fun frame v ->
                if cached_int frame v < 0 then taken frame else next frame)
        | Ge ->
            Some
              (fun frame v ->
                if cached_int frame v >= 0 then taken frame else next frame)
        | Gt ->
            Some
              (fun frame v ->
                if cached_int frame v > 0 then taken frame else next frame)
        | Le ->
            Some
              (fun frame v ->
                if cached_int frame v <= 0 then taken frame else next frame))
    | If_acmpeq target ->
        let taken = taken_of ~pc target in
        let next = kh kont in
        Some
          (fun frame v ->
            let a = pop frame in
            if Value.equal a v then taken frame else next frame)
    | If_acmpne target ->
        let taken = taken_of ~pc target in
        let next = kh kont in
        Some
          (fun frame v ->
            let a = pop frame in
            if not (Value.equal a v) then taken frame else next frame)
    | Ifnull target ->
        let taken = taken_of ~pc target in
        let next = kh kont in
        Some
          (fun frame v ->
            match v with Value.Null -> taken frame | _ -> next frame)
    | Ifnonnull target ->
        let taken = taken_of ~pc target in
        let next = kh kont in
        Some
          (fun frame v ->
            match v with Value.Null -> next frame | _ -> taken frame)
    | Getfield { site; offset; name = _; is_ref = _ } ->
        let slot = (offset - Classfile.header_bytes) / Classfile.slot_bytes in
        let nv = kv kont in
        Some
          (fun frame v ->
            let id = as_ref frame v in
            let addr = Heap.base_of heap id + offset in
            demand_plain t frame ~pc ~addr ~kind:`Load;
            frame.site_prev.(site) <- frame.site_addr.(site);
            frame.site_addr.(site) <- addr;
            nv frame (Heap.get_field heap id slot))
    | Putfield { offset; name = _ } ->
        let slot = (offset - Classfile.header_bytes) / Classfile.slot_bytes in
        let nh = kh kont in
        Some
          (fun frame v ->
            let id = as_ref frame (pop frame) in
            let addr = Heap.base_of heap id + offset in
            demand_plain t frame ~pc ~addr ~kind:`Store;
            Heap.set_field heap id slot v;
            nh frame)
    | Putstatic { index; name = _ } ->
        let addr = Classfile.statics_base + (index * Classfile.slot_bytes) in
        let nh = kh kont in
        Some
          (fun frame v ->
            demand_plain t frame ~pc ~addr ~kind:`Store;
            t.globals.(index) <- v;
            nh frame)
    | Aaload { len_site; elem_site } | Iaload { len_site; elem_site } ->
        let nv = kv kont in
        Some
          (fun frame v ->
            let index = cached_int frame v in
            let id = as_ref frame (pop frame) in
            let addr = array_access_plain t frame ~pc ~len_site ~id ~index in
            demand_plain t frame ~pc ~addr ~kind:`Load;
            frame.site_prev.(elem_site) <- frame.site_addr.(elem_site);
            frame.site_addr.(elem_site) <- addr;
            nv frame (Heap.get_elem heap id index))
    | Aastore { len_site } | Iastore { len_site } ->
        let nh = kh kont in
        Some
          (fun frame v ->
            let index = pop_int frame in
            let id = as_ref frame (pop frame) in
            let addr = array_access_plain t frame ~pc ~len_site ~id ~index in
            demand_plain t frame ~pc ~addr ~kind:`Store;
            Heap.set_elem heap id index v;
            nh frame)
    | Arraylength { site } ->
        let nv = kv kont in
        Some
          (fun frame v ->
            let id = as_ref frame v in
            let addr = Heap.length_addr heap id in
            demand_plain t frame ~pc ~addr ~kind:`Load;
            frame.site_prev.(site) <- frame.site_addr.(site);
            frame.site_addr.(site) <- addr;
            nv frame (Value.of_int (Heap.array_length heap id)))
    | Newarray kind ->
        let nv = kv kont in
        Some
          (fun frame v ->
            let len = cached_int frame v in
            if len < 0 then vm_error "negative array size in %s" method_name;
            let alloc () =
              match kind with
              | Bytecode.Int_array -> Heap.alloc_int_array heap len
              | Bytecode.Ref_array -> Heap.alloc_ref_array heap len
            in
            nv frame (Value.Ref (allocate t frame ~pc alloc)))
    | Invoke callee_id ->
        let callee = Classfile.method_of_id t.program callee_id in
        if callee.arity = 0 then None
        else
          let arity = callee.arity in
          let nh = kh kont in
          Some
            (fun frame v ->
              let args = scratch_args t arity in
              args.(arity - 1) <- v;
              for i = arity - 2 downto 0 do
                args.(i) <- pop frame
              done;
              (match call t callee args with
              | Some r -> push frame r
              | None -> ());
              nh frame)
    | Ireturn | Areturn -> Some (fun _frame v -> Some v)
    | Return -> Some (fun _frame _v -> None)
    | Print ->
        let nh = kh kont in
        Some
          (fun frame v ->
            let n = cached_int frame v in
            Buffer.add_string t.out (string_of_int n);
            Buffer.add_char t.out '\n';
            nh frame)
    | _ -> None
  in

  (* ---- instrumented variant: mirrors the switch engine's attributed
     path verbatim through the shared State helpers ---- *)
  let instr pc (instr_ : Bytecode.instr) : handler =
    let next = handlers.(pc + 1) in
    let bin = bin_of_instr instr_ in
    let method_id = m.method_id in
    match instr_ with
    | Iconst k ->
        let v = Value.of_int k in
        fun frame ->
          pre_i t m frame ~pc ~max_steps ~base_cost ~bin;
          push frame v;
          next frame
    | Aconst_null ->
        fun frame ->
          pre_i t m frame ~pc ~max_steps ~base_cost ~bin;
          push frame Value.Null;
          next frame
    | Iload i | Aload i ->
        fun frame ->
          pre_i t m frame ~pc ~max_steps ~base_cost ~bin;
          push frame frame.locals.(i);
          next frame
    | Istore i | Astore i ->
        fun frame ->
          pre_i t m frame ~pc ~max_steps ~base_cost ~bin;
          frame.locals.(i) <- pop frame;
          next frame
    | Dup ->
        fun frame ->
          pre_i t m frame ~pc ~max_steps ~base_cost ~bin;
          push frame (peek frame);
          next frame
    | Pop ->
        fun frame ->
          pre_i t m frame ~pc ~max_steps ~base_cost ~bin;
          ignore (pop frame);
          next frame
    | Iadd ->
        fun frame ->
          pre_i t m frame ~pc ~max_steps ~base_cost ~bin;
          let b = pop_int frame in
          let a = pop_int frame in
          push frame (Value.of_int (a + b));
          next frame
    | Isub ->
        fun frame ->
          pre_i t m frame ~pc ~max_steps ~base_cost ~bin;
          let b = pop_int frame in
          let a = pop_int frame in
          push frame (Value.of_int (a - b));
          next frame
    | Imul ->
        fun frame ->
          pre_i t m frame ~pc ~max_steps ~base_cost ~bin;
          let b = pop_int frame in
          let a = pop_int frame in
          push frame (Value.of_int (a * b));
          next frame
    | Idiv ->
        fun frame ->
          pre_i t m frame ~pc ~max_steps ~base_cost ~bin;
          let b = pop_int frame in
          let a = pop_int frame in
          if b = 0 then vm_error "division by zero in %s" method_name;
          push frame (Value.of_int (a / b));
          next frame
    | Irem ->
        fun frame ->
          pre_i t m frame ~pc ~max_steps ~base_cost ~bin;
          let b = pop_int frame in
          let a = pop_int frame in
          if b = 0 then vm_error "division by zero in %s" method_name;
          push frame (Value.of_int (a mod b));
          next frame
    | Ineg ->
        fun frame ->
          pre_i t m frame ~pc ~max_steps ~base_cost ~bin;
          push frame (Value.of_int (-pop_int frame));
          next frame
    | Iand ->
        fun frame ->
          pre_i t m frame ~pc ~max_steps ~base_cost ~bin;
          let b = pop_int frame in
          let a = pop_int frame in
          push frame (Value.of_int (a land b));
          next frame
    | Ior ->
        fun frame ->
          pre_i t m frame ~pc ~max_steps ~base_cost ~bin;
          let b = pop_int frame in
          let a = pop_int frame in
          push frame (Value.of_int (a lor b));
          next frame
    | Ixor ->
        fun frame ->
          pre_i t m frame ~pc ~max_steps ~base_cost ~bin;
          let b = pop_int frame in
          let a = pop_int frame in
          push frame (Value.of_int (a lxor b));
          next frame
    | Ishl ->
        fun frame ->
          pre_i t m frame ~pc ~max_steps ~base_cost ~bin;
          let b = pop_int frame in
          let a = pop_int frame in
          push frame (Value.of_int (a lsl (b land 63)));
          next frame
    | Ishr ->
        fun frame ->
          pre_i t m frame ~pc ~max_steps ~base_cost ~bin;
          let b = pop_int frame in
          let a = pop_int frame in
          push frame (Value.of_int (a asr (b land 63)));
          next frame
    | Goto target ->
        let taken = taken_of ~pc target in
        if goto_retired = 1 then
          fun frame ->
            pre_i t m frame ~pc ~max_steps ~base_cost ~bin;
            taken frame
        else
          fun frame ->
            pre_i t m frame ~pc ~max_steps ~base_cost ~bin;
            retire t 1;
            taken frame
    | If_icmp (c, target) ->
        let taken = taken_of ~pc target in
        fun frame ->
          pre_i t m frame ~pc ~max_steps ~base_cost ~bin;
          let b = pop_int frame in
          let a = pop_int frame in
          if icompare c a b then taken frame else next frame
    | If (c, target) ->
        let taken = taken_of ~pc target in
        fun frame ->
          pre_i t m frame ~pc ~max_steps ~base_cost ~bin;
          if icompare c (pop_int frame) 0 then taken frame else next frame
    | If_acmpeq target ->
        let taken = taken_of ~pc target in
        fun frame ->
          pre_i t m frame ~pc ~max_steps ~base_cost ~bin;
          let b = pop frame in
          let a = pop frame in
          if Value.equal a b then taken frame else next frame
    | If_acmpne target ->
        let taken = taken_of ~pc target in
        fun frame ->
          pre_i t m frame ~pc ~max_steps ~base_cost ~bin;
          let b = pop frame in
          let a = pop frame in
          if not (Value.equal a b) then taken frame else next frame
    | Ifnull target ->
        let taken = taken_of ~pc target in
        fun frame ->
          pre_i t m frame ~pc ~max_steps ~base_cost ~bin;
          (match pop frame with
          | Value.Null -> taken frame
          | _ -> next frame)
    | Ifnonnull target ->
        let taken = taken_of ~pc target in
        fun frame ->
          pre_i t m frame ~pc ~max_steps ~base_cost ~bin;
          (match pop frame with
          | Value.Null -> next frame
          | _ -> taken frame)
    | Getfield { site; offset; name = _; is_ref = _ } ->
        let slot = (offset - Classfile.header_bytes) / Classfile.slot_bytes in
        fun frame ->
          pre_i t m frame ~pc ~max_steps ~base_cost ~bin;
          let id = as_ref frame (pop frame) in
          let addr = Heap.base_of heap id + offset in
          demand_load t frame ~pc ~obj:id ~addr ~site;
          observe_load t frame ~site ~addr;
          push frame (Heap.get_field heap id slot);
          next frame
    | Putfield { offset; name = _ } ->
        let slot = (offset - Classfile.header_bytes) / Classfile.slot_bytes in
        fun frame ->
          pre_i t m frame ~pc ~max_steps ~base_cost ~bin;
          let v = pop frame in
          let id = as_ref frame (pop frame) in
          let addr = Heap.base_of heap id + offset in
          demand t frame ~pc ~obj:id ~addr ~kind:`Store;
          Heap.set_field heap id slot v;
          next frame
    | Getstatic { site; index; name = _; is_ref = _ } ->
        let addr = Classfile.statics_base + (index * Classfile.slot_bytes) in
        fun frame ->
          pre_i t m frame ~pc ~max_steps ~base_cost ~bin;
          demand_load t frame ~pc ~obj:(-1) ~addr ~site;
          observe_load t frame ~site ~addr;
          push frame t.globals.(index);
          next frame
    | Putstatic { index; name = _ } ->
        let addr = Classfile.statics_base + (index * Classfile.slot_bytes) in
        fun frame ->
          pre_i t m frame ~pc ~max_steps ~base_cost ~bin;
          demand t frame ~pc ~obj:(-1) ~addr ~kind:`Store;
          t.globals.(index) <- pop frame;
          next frame
    | Aaload { len_site; elem_site } | Iaload { len_site; elem_site } ->
        fun frame ->
          pre_i t m frame ~pc ~max_steps ~base_cost ~bin;
          retire t 1;
          charge t frame base_cost;
          prof_cycles t ~method_id ~pc ~bin:Prof_retire ~cycles:base_cost;
          let index = pop_int frame in
          let id = as_ref frame (pop frame) in
          let addr = array_access t frame ~pc ~len_site ~id ~index in
          demand_load t frame ~pc ~obj:id ~addr ~site:elem_site;
          observe_load t frame ~site:elem_site ~addr;
          push frame (Heap.get_elem heap id index);
          next frame
    | Aastore { len_site } | Iastore { len_site } ->
        fun frame ->
          pre_i t m frame ~pc ~max_steps ~base_cost ~bin;
          retire t 1;
          charge t frame base_cost;
          prof_cycles t ~method_id ~pc ~bin:Prof_retire ~cycles:base_cost;
          let v = pop frame in
          let index = pop_int frame in
          let id = as_ref frame (pop frame) in
          let addr = array_access t frame ~pc ~len_site ~id ~index in
          demand t frame ~pc ~obj:id ~addr ~kind:`Store;
          Heap.set_elem heap id index v;
          next frame
    | Arraylength { site } ->
        fun frame ->
          pre_i t m frame ~pc ~max_steps ~base_cost ~bin;
          let id = as_ref frame (pop frame) in
          let addr = Heap.length_addr heap id in
          demand_load t frame ~pc ~obj:id ~addr ~site;
          observe_load t frame ~site ~addr;
          push frame (Value.of_int (Heap.array_length heap id));
          next frame
    | New class_id ->
        let ci = Classfile.class_of_id t.program class_id in
        let alloc () = Heap.alloc_object heap ci in
        fun frame ->
          pre_i t m frame ~pc ~max_steps ~base_cost ~bin;
          let id = allocate t frame ~pc alloc in
          push frame (Value.Ref id);
          next frame
    | Newarray kind ->
        fun frame ->
          pre_i t m frame ~pc ~max_steps ~base_cost ~bin;
          let len = pop_int frame in
          if len < 0 then vm_error "negative array size in %s" method_name;
          let alloc () =
            match kind with
            | Bytecode.Int_array -> Heap.alloc_int_array heap len
            | Bytecode.Ref_array -> Heap.alloc_ref_array heap len
          in
          push frame (Value.Ref (allocate t frame ~pc alloc));
          next frame
    | Invoke callee_id ->
        let callee = Classfile.method_of_id t.program callee_id in
        fun frame ->
          pre_i t m frame ~pc ~max_steps ~base_cost ~bin;
          let args = scratch_args t callee.arity in
          for i = callee.arity - 1 downto 0 do
            args.(i) <- pop frame
          done;
          (match call t callee args with
          | Some v -> push frame v
          | None -> ());
          next frame
    | Return ->
        fun frame ->
          pre_i t m frame ~pc ~max_steps ~base_cost ~bin;
          None
    | Ireturn | Areturn ->
        fun frame ->
          pre_i t m frame ~pc ~max_steps ~base_cost ~bin;
          Some (pop frame)
    | Print ->
        fun frame ->
          pre_i t m frame ~pc ~max_steps ~base_cost ~bin;
          let v = pop_int frame in
          Buffer.add_string t.out (string_of_int v);
          Buffer.add_char t.out '\n';
          next frame
    | Prefetch_inter { site; distance } ->
        let extra = max 0 (machine.prefetch_cost - base_cost) in
        let key = Telemetry.Attrib.Inter_site { method_id; site } in
        let memo = site_memo () in
        fun frame ->
          pre_i t m frame ~pc ~max_steps ~base_cost ~bin;
          charge t frame extra;
          if extra > 0 then
            prof_cycles t ~method_id ~pc ~bin:Prof_pf_overhead ~cycles:extra;
          let anchor = frame.site_addr.(site) in
          if anchor >= 0 then begin
            let addr = anchor + distance in
            audit_prefetch_addr t addr;
            match t.telem with
            | None -> Memsim.Hierarchy.sw_prefetch mem ~addr ~now:(now t)
            | Some tl ->
                let sid = memo_site_id memo tl.registry key in
                Memsim.Hierarchy.sw_prefetch_attr mem ~attrib:tl.attrib ~addr
                  ~now:(now t) ~site:sid
          end;
          next frame
    | Spec_load { site; distance; reg } ->
        let extra = max 0 (machine.guarded_load_cost - base_cost) in
        let unguarded = Fault.mem Fault.Unguarded_spec_loads t.opts.faults in
        let key = Telemetry.Attrib.Spec_site { method_id; site; reg } in
        let memo = site_memo () in
        fun frame ->
          pre_i t m frame ~pc ~max_steps ~base_cost ~bin;
          charge t frame extra;
          if extra > 0 then
            prof_cycles t ~method_id ~pc ~bin:Prof_guard_overhead
              ~cycles:extra;
          let anchor = frame.site_addr.(site) in
          if anchor >= 0 then begin
            let addr = anchor + distance in
            audit_prefetch_addr t addr;
            (match t.telem with
            | None -> Memsim.Hierarchy.guarded_load mem ~addr ~now:(now t)
            | Some tl ->
                let sid = memo_site_id memo tl.registry key in
                Memsim.Hierarchy.guarded_load_attr mem ~attrib:tl.attrib
                  ~addr ~now:(now t) ~site:sid);
            let v =
              match Heap.value_at heap addr with
              | Some v -> v
              | None ->
                  t.spec_guard_trips <- t.spec_guard_trips + 1;
                  if unguarded then begin
                    t.faulting_prefetches <- t.faulting_prefetches + 1;
                    vm_error
                      "unguarded spec_load faulted at address 0x%x in %s" addr
                      method_name
                  end;
                  Value.Null
            in
            frame.pref_regs.(reg) <- v
          end
          else frame.pref_regs.(reg) <- Value.Null;
          next frame
    | Prefetch_dynamic { site; times } ->
        let extra = max 0 (machine.prefetch_cost - base_cost) in
        let key = Telemetry.Attrib.Dynamic_site { method_id; site } in
        let memo = site_memo () in
        fun frame ->
          pre_i t m frame ~pc ~max_steps ~base_cost ~bin;
          charge t frame extra;
          if extra > 0 then
            prof_cycles t ~method_id ~pc ~bin:Prof_pf_overhead ~cycles:extra;
          let addr = frame.site_addr.(site) in
          let prev = frame.site_prev.(site) in
          if addr >= 0 && prev >= 0 && addr <> prev then begin
            let target = addr + ((addr - prev) * times) in
            audit_prefetch_addr t target;
            match t.telem with
            | None ->
                Memsim.Hierarchy.sw_prefetch mem ~addr:target ~now:(now t)
            | Some tl ->
                let sid = memo_site_id memo tl.registry key in
                Memsim.Hierarchy.sw_prefetch_attr mem ~attrib:tl.attrib
                  ~addr:target ~now:(now t) ~site:sid
          end;
          next frame
    | Prefetch_indirect { reg; offset; guarded } ->
        let full =
          if guarded then machine.guarded_load_cost else machine.prefetch_cost
        in
        let extra = max 0 (full - base_cost) in
        let key = Telemetry.Attrib.Indirect_site { method_id; reg; offset } in
        let memo = site_memo () in
        fun frame ->
          pre_i t m frame ~pc ~max_steps ~base_cost ~bin;
          charge t frame extra;
          if extra > 0 then prof_cycles t ~method_id ~pc ~bin ~cycles:extra;
          (match frame.pref_regs.(reg) with
          | Value.Ref id when Heap.exists heap id -> (
              let addr = Heap.base_of heap id + offset in
              audit_prefetch_addr t addr;
              match t.telem with
              | None ->
                  if guarded then
                    Memsim.Hierarchy.guarded_load mem ~addr ~now:(now t)
                  else Memsim.Hierarchy.sw_prefetch mem ~addr ~now:(now t)
              | Some tl ->
                  let sid = memo_site_id memo tl.registry key in
                  if guarded then
                    Memsim.Hierarchy.guarded_load_attr mem ~attrib:tl.attrib
                      ~addr ~now:(now t) ~site:sid
                  else
                    Memsim.Hierarchy.sw_prefetch_attr mem ~attrib:tl.attrib
                      ~addr ~now:(now t) ~site:sid)
          | Value.Ref _ | Value.Int _ | Value.Null -> ());
          next frame
  in

  (* Backward fill: at pc, every handler above pc is already compiled, so
     fall-through captures its successor directly and forward branches
     bind their target handler without indirection. *)
  if cm_instrumented then
    for pc = n - 1 downto 0 do
      handlers.(pc) <- instr pc code.(pc)
    done
  else begin
    (* Block leaders: entry, every in-range branch target, and the
       instruction after any control transfer. *)
    let leaders = Array.make (n + 1) false in
    if n > 0 then leaders.(0) <- true;
    for pc = 0 to n - 1 do
      (match code.(pc) with
      | Goto target
      | If_icmp (_, target)
      | If (_, target)
      | If_acmpeq target
      | If_acmpne target
      | Ifnull target
      | Ifnonnull target ->
          if target >= 0 && target < n then leaders.(target) <- true
      | _ -> ());
      if is_terminator code.(pc) then leaders.(pc + 1) <- true
    done;
    (* Last pc of the block led by [s]: extends through straight-line
       instructions (memory accesses included — they only end a charge
       segment) and includes its control transfer; a straight-line run is
       also cut where the next pc is a leader (someone jumps there) or
       the code ends. *)
    let rec block_end j =
      if j >= n then n - 1
      else if is_terminator code.(j) then j
      else if leaders.(j + 1) then j
      else block_end (j + 1)
    in
    for pc = n - 1 downto 0 do
      (* The per-instruction handler: prologue fused with the body. Used
         directly for single-instruction blocks, and as the exact
         fallback chain when a batched budget test fires. *)
      let standalone =
        let b = body ~next:handlers.(pc + 1) pc code.(pc) in
        let retired = retired_of code.(pc) and cost = cost_of code.(pc) in
        fun frame ->
          pre t m ~max_steps ~retired ~cost;
          b frame
      in
      handlers.(pc) <- standalone;
      if leaders.(pc) then begin
        let e = block_end pc in
        if e > pc then begin
          let k = e - pc + 1 in
          let retired_k = ref 0 in
          for j = pc to e do
            retired_k := !retired_k + retired_of code.(j)
          done;
          let retired_k = !retired_k in
          (* Cost of the charge segment starting at [j]: every
             instruction up to and including the first cycle observer
             (or the block's end). *)
          let rec seg_cost j =
            let c = cost_of code.(j) in
            if j >= e || observes_cycles code.(j) then c
            else c + seg_cost (j + 1)
          in
          (* Commit one segment's cycles, preserving the cache state.
             Reads [m.compiled] at run time like the head does; every
             segment charge in a block runs before the block's only
             possible call (its terminator), so all of them see the
             value the head saw. *)
          let charged cost (kont : kont) : kont =
            match kont with
            | KH h ->
                KH
                  (fun frame ->
                    let stats = t.stats in
                    stats.cycles <- stats.cycles + cost;
                    if m.compiled then
                      t.compiled_cycles <- t.compiled_cycles + cost
                    else t.interpreted_cycles <- t.interpreted_cycles + cost;
                    h frame)
            | KV vh ->
                KV
                  (fun frame v ->
                    let stats = t.stats in
                    stats.cycles <- stats.cycles + cost;
                    if m.compiled then
                      t.compiled_cycles <- t.compiled_cycles + cost
                    else t.interpreted_cycles <- t.interpreted_cycles + cost;
                    vh frame v)
          in
          (* Compile the chain against the statically-tracked cache
             state: blocks are entered with the cache empty; a full exit
             state at the block's end (or an instruction with no
             full-cache form) gets the spill adapter. *)
          let rec build j ~full : kont =
            if j > e then
              if full then
                let succ = handlers.(e + 1) in
                KV
                  (fun frame v ->
                    spill frame v;
                    succ frame)
              else KH handlers.(e + 1)
            else
              let instr_ = code.(j) in
              let kont = build (j + 1) ~full:(exits_full instr_) in
              let kont =
                if j < e && observes_cycles instr_ then
                  charged (seg_cost (j + 1)) kont
                else kont
              in
              if full then
                KV
                  (match body_full kont j instr_ with
                  | Some vh -> vh
                  | None ->
                      let h = body_empty kont j instr_ in
                      fun frame v ->
                        spill frame v;
                        h frame)
              else KH (body_empty kont j instr_)
          in
          let first = kh (build pc ~full:false) in
          let cost_1 = seg_cost pc in
          handlers.(pc) <-
            (fun frame ->
              let steps = t.steps + k in
              if steps > max_steps then standalone frame
              else begin
                t.steps <- steps;
                let stats = t.stats in
                stats.retired_instructions <-
                  stats.retired_instructions + retired_k;
                stats.cycles <- stats.cycles + cost_1;
                if m.compiled then
                  t.compiled_cycles <- t.compiled_cycles + cost_1
                else t.interpreted_cycles <- t.interpreted_cycles + cost_1;
                first frame
              end)
        end
      end
    done
  end;
  { cm_code = code; cm_compiled; cm_instrumented; cm_handlers = handlers }

(* Fetch (compiling or recompiling as needed) the method's artifact. The
   three-way validation catches every way an artifact can go stale: the
   JIT swapped the body (fresh code array), the method's compiled flag
   flipped (different baked base cost), or the observer set changed
   (different specialization). *)
let get (t : t) (m : Classfile.method_info) =
  let id = m.method_id in
  match t.closure_cache.(id) with
  | Some cm
    when cm.cm_code == m.code
         && cm.cm_compiled = m.compiled
         && cm.cm_instrumented = instrumented t ->
      cm
  | _ ->
      let cm = compile t m in
      t.closure_cache.(id) <- Some cm;
      cm

let exec (t : t) (frame : Frame.t) =
  (get t frame.method_info).cm_handlers.(0) frame

let precompile (t : t) (m : Classfile.method_info) = ignore (get t m)
