(* The prefetch instructions spliced here execute on whichever engine the
   VM selected: the reference switch interpreter or the closure-compiled
   engine (DESIGN.md section 10). Codegen does not get to know — the
   engines' bit-identity contract (same cycles, same stats, enforced by
   test/test_engine.ml and the fuzz oracle's engine axis) means the emitted
   code must not rely on any dispatch-order or timing property beyond the
   bytecode semantics itself. *)

module B = Vm.Bytecode

type deref_target = { target_site : int; offset : int; via_intra : bool }

type action_kind =
  | Prefetch_direct of { distance : int }
  | Prefetch_deref of {
      distance : int;
      reg : int;
      targets : deref_target list;
    }
  | Prefetch_phased of { times : int; phases : Stride.pattern list }
      (** dynamic-stride prefetch for Wu-style phased loads (extension) *)

type action = { anchor_site : int; anchor_pc : int; kind : action_kind }

type plan = {
  actions : action list;
  rejected : (int * string) list;
  regs_used : int;
}

(* Follow intra-strided dependence chains from [site], accumulating the
   cumulative byte stride along each path ("directly or transitively"). *)
let intra_chain ldg intra site =
  let seen = Hashtbl.create 8 in
  let acc = ref [] in
  let rec walk from acc_stride =
    List.iter
      (fun next ->
        if not (Hashtbl.mem seen next) then
          match intra from next with
          | Some (p : Stride.pattern) ->
              Hashtbl.replace seen next ();
              let cumulative = acc_stride + p.stride in
              acc := (next, cumulative) :: !acc;
              walk next cumulative
          | None -> ())
      (Ldg.succs ldg from)
  in
  walk site 0;
  List.rev !acc

let plan ~(opts : Options.t) ~(machine : Memsim.Config.machine) ~code ~ldg
    ~inter ~intra ~phased ~first_reg =
  let line =
    match machine.prefetch_target with
    | Memsim.Config.To_l2 -> machine.l2.line_bytes
    | Memsim.Config.To_l1 -> machine.l1.line_bytes
  in
  let actions = ref [] in
  let rejected = ref [] in
  let next_reg = ref first_reg in
  let reject site reason = rejected := (site, reason) :: !rejected in
  (* Cross-anchor duplicate suppression (profitability condition 2): two
     direct prefetches whose anchors load through the same producer at
     known offsets will predict addresses on the same line whenever their
     offsets are within a line of each other — e.g. the field loads s.x,
     s.y, s.z of one strided object. Track (producer, offset) pairs
     already covered. *)
  let covered : (Jit.Stack_model.source, int list) Hashtbl.t =
    Hashtbl.create 8
  in
  let covers_same_line info =
    match
      (info.Jit.Stack_model.base, Jit.Stack_model.address_offset_of info)
    with
    | Jit.Stack_model.Unknown, _ | _, None -> false
    | base, Some offset ->
        let seen = Option.value ~default:[] (Hashtbl.find_opt covered base) in
        if List.exists (fun o -> abs (o - offset) < line / 2) seen then true
        else begin
          Hashtbl.replace covered base (offset :: seen);
          false
        end
  in
  List.iter
    (fun anchor_site ->
      match Ldg.node ldg anchor_site with
      | None -> ()
      | Some node -> (
          let anchor_pc = node.info.pc in
          match inter anchor_site with
          | None -> (
              (* extension: a load without a single dominant stride may
                 still have Wu's phased multiple-stride pattern *)
              match (if opts.enable_phased then phased anchor_site else [])
              with
              | (_ : Stride.pattern) :: _ as phases
                when List.for_all
                       (fun (p : Stride.pattern) ->
                         Profitability.inter_stride_ok
                           ?threshold:opts.inter_stride_threshold
                           ~line_bytes:line p.stride)
                       phases
                     && Profitability.has_dependents code ~pc:anchor_pc ->
                  actions :=
                    {
                      anchor_site;
                      anchor_pc;
                      kind =
                        Prefetch_phased
                          { times = opts.scheduling_distance; phases };
                    }
                    :: !actions
              | _ -> reject anchor_site "no inter-iteration stride pattern")
          | Some p when Stride.is_invariant p ->
              reject anchor_site "loop-invariant address"
          | Some p -> (
              let distance = p.stride * opts.scheduling_distance in
              let deps = Ldg.succs ldg anchor_site in
              let deref_candidates =
                match opts.mode with
                | Options.Inter | Options.Off -> []
                | Options.Inter_intra ->
                    List.filter_map
                      (fun dep ->
                        match (inter dep, Ldg.node ldg dep) with
                        | Some _, _ ->
                            (* The dependent strides on its own. *)
                            None
                        | None, Some dep_node -> (
                            match
                              Jit.Stack_model.address_offset_of dep_node.info
                            with
                            | Some offset -> Some (dep, offset)
                            | None -> None)
                        | None, None -> None)
                      deps
              in
              match deref_candidates with
              | [] ->
                  (* Plain inter-iteration prefetching of Lx's own data:
                     subject to the half-line and dependents conditions
                     (Section 3.3's profitability analysis). A deref anchor
                     below is exempt — its spec_load fetches a pointer for
                     loads that are far away, not Lx's own line. *)
                  if
                    not
                      (Profitability.inter_stride_ok
                         ?threshold:opts.inter_stride_threshold
                         ~line_bytes:line p.stride)
                  then reject anchor_site "stride within half a cache line"
                  else if
                    not (Profitability.has_dependents code ~pc:anchor_pc)
                  then reject anchor_site "no dependent instructions"
                  else if covers_same_line node.info then
                    reject anchor_site
                      "shares a cache line with an issued prefetch"
                  else
                    actions :=
                      {
                        anchor_site;
                        anchor_pc;
                        kind = Prefetch_direct { distance };
                      }
                      :: !actions
              | candidates ->
                  (* One spec_load serves every dependent and every
                     intra-strided load reachable from them. *)
                  let reg = !next_reg in
                  incr next_reg;
                  let raw_targets =
                    List.concat_map
                      (fun (dep, offset) ->
                        { target_site = dep; offset; via_intra = false }
                        :: List.map
                             (fun (site, cumulative) ->
                               {
                                 target_site = site;
                                 offset = offset + cumulative;
                                 via_intra = true;
                               })
                             (intra_chain ldg intra dep))
                      candidates
                  in
                  (* Profitability condition (2): drop targets sharing a
                     line with an already-kept target. Direct dependents
                     are ordered first, so they win ties. *)
                  let kept_offsets =
                    Profitability.dedup_offsets ~line_bytes:line
                      (List.map (fun t -> t.offset) raw_targets)
                  in
                  let targets =
                    List.filter
                      (fun t -> List.mem t.offset kept_offsets)
                      raw_targets
                    (* A duplicate offset may survive the filter twice;
                       keep the first occurrence only. *)
                    |> List.fold_left
                         (fun (seen, acc) t ->
                           if List.mem t.offset seen then (seen, acc)
                           else (t.offset :: seen, t :: acc))
                         ([], [])
                    |> snd |> List.rev
                  in
                  actions :=
                    {
                      anchor_site;
                      anchor_pc;
                      kind = Prefetch_deref { distance; reg; targets };
                    }
                    :: !actions)))
    (Ldg.sites ldg);
  {
    actions = List.rev !actions;
    rejected = List.rev !rejected;
    regs_used = !next_reg - first_reg;
  }

(* The paper's instruction mapping (Section 4): on the machine with the
   small DTLB, intra-iteration stride prefetches use a guarded load (TLB
   priming); everything else uses the hardware prefetch instruction, which
   the processor cancels on a DTLB miss. *)
let splice_of_action ?(faults = Vm.Fault.none) ~guarded action =
  match action.kind with
  | Prefetch_direct { distance } ->
      [ B.Prefetch_inter { site = action.anchor_site; distance } ]
  | Prefetch_phased { times; phases = _ } ->
      [ B.Prefetch_dynamic { site = action.anchor_site; times } ]
  | Prefetch_deref { distance; reg; targets } ->
      let guard = B.Spec_load { site = action.anchor_site; distance; reg } in
      let derefs =
        List.map
          (fun t ->
            B.Prefetch_indirect
              { reg; offset = t.offset; guarded = guarded && t.via_intra })
          targets
      in
      if Vm.Fault.mem Vm.Fault.Skip_guard_dominance faults then
        (* injected miscompile: dereferences escape their guard (the
           spec_load lands after them). Runtime-benign — the register
           still holds its initial null, so the indirect prefetches are
           no-ops — but statically unsound; the analysis layer must
           report it. *)
        derefs @ [ guard ]
      else guard :: derefs

let apply ?faults ~guarded code plans =
  let n = Array.length code in
  let splices = Array.make n [] in
  List.iter
    (fun plan ->
      List.iter
        (fun action ->
          if action.anchor_pc >= 0 && action.anchor_pc < n then
            splices.(action.anchor_pc) <-
              splices.(action.anchor_pc)
              @ splice_of_action ?faults ~guarded action)
        plan.actions)
    plans;
  let out = ref [] in
  let new_pc = Array.make (n + 1) 0 in
  let count = ref 0 in
  for pc = 0 to n - 1 do
    new_pc.(pc) <- !count;
    out := code.(pc) :: !out;
    incr count;
    List.iter
      (fun instr ->
        out := instr :: !out;
        incr count)
      splices.(pc)
  done;
  new_pc.(n) <- !count;
  let arr = Array.of_list (List.rev !out) in
  Array.map
    (fun instr ->
      match B.branch_target instr with
      | Some t -> Jit.Optimize.retarget instr new_pc.(t)
      | None -> instr)
    arr

(* Stable one-line identity of an action, for provenance diffs. Keyed on
   the anchor *site* (not its pc): splicing renumbers pcs, and the diff
   engine compares plans across configurations where the rewritten
   bodies differ. *)
let action_descriptor { anchor_site; anchor_pc = _; kind } =
  match kind with
  | Prefetch_direct { distance } ->
      Printf.sprintf "direct s%d d=%d" anchor_site distance
  | Prefetch_deref { distance; reg; targets } ->
      Printf.sprintf "deref s%d d=%d r%d targets=%d" anchor_site distance reg
        (List.length targets)
  | Prefetch_phased { times; phases } ->
      Printf.sprintf "phased s%d times=%d phases=%d" anchor_site times
        (List.length phases)
