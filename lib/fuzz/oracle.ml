(* Differential oracle: one generated program, a matrix of configurations,
   and the claim that the prefetching pass is invisible except for speed.

   The baseline cell (mode Off, standard passes on, pentium4) fixes the
   expected observable behaviour; every other cell must reproduce its
   stdout and its statics-reachable heap graph exactly. On top of the
   differential check, each cell is audited on its own: no faulting
   prefetch addresses, object inspection leaves the real heap bit-
   identical, and the memory-system counters satisfy the structural
   invariants that hold for any run. *)

module O = Strideprefetch.Options

type cell = {
  mode : O.mode;
  standard_passes : bool;
  machine : Memsim.Config.machine;
}

let cell_name c =
  Printf.sprintf "%s/%s/%s" (O.mode_name c.mode)
    (if c.standard_passes then "pipeline" else "bare")
    c.machine.Memsim.Config.name

let default_cells =
  (* Baseline first: [check] treats the head of the list as the reference
     cell. 3 modes x {pipeline, bare} x 2 machines = 12 cells. *)
  let modes = [ O.Off; O.Inter; O.Inter_intra ] in
  let pipelines = [ true; false ] in
  let machines = [ Memsim.Config.pentium4; Memsim.Config.athlon_mp ] in
  List.concat_map
    (fun machine ->
      List.concat_map
        (fun standard_passes ->
          List.map (fun mode -> { mode; standard_passes; machine }) modes)
        pipelines)
    machines
  |> List.sort (fun a b ->
         (* stable sort key: baseline cell to the front *)
         let key c =
           ( (if c.mode = O.Off && c.standard_passes
              && c.machine.Memsim.Config.name
                 = Memsim.Config.pentium4.Memsim.Config.name
             then 0
             else 1),
             0 )
         in
         compare (key a) (key b))

type failure =
  | Compile_error of string
  | Crash of { cell : cell; message : string }
  | Output_divergence of {
      cell : cell;
      baseline_output : string;
      output : string;
    }
  | Heap_divergence of { cell : cell; diff : string }
  | Inspection_side_effect of { cell : cell; meth : string; diff : string }
  | Stats_violation of { cell : cell; message : string }
  | Faulting_prefetch of { cell : cell; count : int }
  | Lint_violation of { cell : cell; meth : string; message : string }
  | Telemetry_divergence of { cell : cell; message : string }
  | Engine_divergence of { cell : cell; message : string }
  | Hw_divergence of { cell : cell; hw : string; message : string }
  | Prediction_divergence of { cell : cell; tier : string; message : string }
  | Monitor_divergence of { cell : cell; message : string }
  | Diff_divergence of { cell : cell; message : string }

type verdict = Pass of { cells_run : int } | Fail of failure

let describe = function
  | Compile_error msg -> Printf.sprintf "front end rejected program: %s" msg
  | Crash { cell; message } ->
      Printf.sprintf "[%s] runtime crash: %s" (cell_name cell) message
  | Output_divergence { cell; baseline_output; output } ->
      Printf.sprintf
        "[%s] output differs from baseline\n--- baseline\n%s--- got\n%s"
        (cell_name cell) baseline_output output
  | Heap_divergence { cell; diff } ->
      Printf.sprintf "[%s] reachable heap differs from baseline: %s"
        (cell_name cell) diff
  | Inspection_side_effect { cell; meth; diff } ->
      Printf.sprintf
        "[%s] heap/statics changed across JIT compilation of %s: %s"
        (cell_name cell) meth diff
  | Stats_violation { cell; message } ->
      Printf.sprintf "[%s] stats invariant violated: %s" (cell_name cell)
        message
  | Faulting_prefetch { cell; count } ->
      Printf.sprintf "[%s] %d prefetch op(s) computed a negative address"
        (cell_name cell) count
  | Lint_violation { cell; meth; message } ->
      Printf.sprintf "[%s] %s is not lint-clean: %s" (cell_name cell) meth
        message
  | Telemetry_divergence { cell; message } ->
      Printf.sprintf
        "[%s] telemetry perturbed the simulation (must be observe-only): %s"
        (cell_name cell) message
  | Engine_divergence { cell; message } ->
      Printf.sprintf
        "[%s] switch and closure engines diverged (bit-identity is their \
         contract): %s"
        (cell_name cell) message
  | Hw_divergence { cell; hw; message } ->
      Printf.sprintf
        "[%s] hw=%s perturbed the architectural state (the hardware \
         prefetcher may only move cycles and memory counters): %s"
        (cell_name cell) hw message
  | Prediction_divergence { cell; tier; message } ->
      Printf.sprintf
        "[%s] prediction tier %s diverged from dynamic inspection \
         (static/hybrid plans must stay observationally equivalent): %s"
        (cell_name cell) tier message
  | Monitor_divergence { cell; message } ->
      Printf.sprintf
        "[%s] the live monitor perturbed the simulation (must be \
         observe-only) or its window books don't balance: %s"
        (cell_name cell) message
  | Diff_divergence { cell; message } ->
      Printf.sprintf
        "[%s] the differential-diagnosis join broke its identity law (a \
         run diffed against itself must blame nothing, conservation \
         exact): %s"
        (cell_name cell) message

(* Structural invariants any run must satisfy, whatever the program. *)
let stats_invariants (cell : cell) (r : Workloads.Harness.run_result) =
  let s = r.stats in
  let fail fmt =
    Printf.ksprintf (fun message -> Some (Stats_violation { cell; message })) fmt
  in
  let open Memsim.Stats in
  if s.l1_load_misses > s.loads then
    fail "l1_load_misses (%d) > loads (%d)" s.l1_load_misses s.loads
  else if s.l1_store_misses > s.stores then
    fail "l1_store_misses (%d) > stores (%d)" s.l1_store_misses s.stores
  else if s.l2_load_misses > s.l1_load_misses then
    fail "l2_load_misses (%d) > l1_load_misses (%d)" s.l2_load_misses
      s.l1_load_misses
  else if s.l2_store_misses > s.l1_store_misses then
    fail "l2_store_misses (%d) > l1_store_misses (%d)" s.l2_store_misses
      s.l1_store_misses
  else if s.dtlb_load_misses > s.loads + s.guarded_loads + s.sw_prefetches
  then
    fail "dtlb_load_misses (%d) > loads+guarded+prefetches (%d)"
      s.dtlb_load_misses
      (s.loads + s.guarded_loads + s.sw_prefetches)
  else if s.retired_instructions <= 0 then
    fail "no instructions retired (%d)" s.retired_instructions
  else if s.stall_cycles > s.cycles then
    fail "stall_cycles (%d) > cycles (%d)" s.stall_cycles s.cycles
  else if s.sw_prefetches_cancelled > s.sw_prefetches then
    fail "cancelled prefetches (%d) > issued prefetches (%d)"
      s.sw_prefetches_cancelled s.sw_prefetches
  else if s.sw_prefetch_useless > s.sw_prefetches + s.guarded_loads then
    (* the hierarchy counts an already-cached line as useless for both
       hardware-form prefetches and guarded loads *)
    fail "useless prefetches (%d) > issued prefetches+guarded loads (%d)"
      s.sw_prefetch_useless
      (s.sw_prefetches + s.guarded_loads)
  else if s.sw_prefetch_useful + s.sw_prefetch_late > s.sw_prefetches + s.guarded_loads
  then
    (* every useful/late classification is pinned to one issued software
       prefetch or guarded load *)
    fail "useful+late attributions (%d+%d) > issued prefetches+guarded (%d)"
      s.sw_prefetch_useful s.sw_prefetch_late
      (s.sw_prefetches + s.guarded_loads)
  else if s.in_flight_demand_hits + s.sw_prefetch_late > s.in_flight_hits then
    (* the attribution split of in-flight demand hits cannot exceed the
       aggregate counter it refines *)
    fail "in_flight_demand_hits+late (%d+%d) > in_flight_hits (%d)"
      s.in_flight_demand_hits s.sw_prefetch_late s.in_flight_hits
  else if
    cell.mode = O.Off
    && (s.sw_prefetches <> 0 || s.guarded_loads <> 0
       || s.sw_prefetches_cancelled <> 0)
  then
    fail "mode Off issued prefetch work (sw=%d guarded=%d cancelled=%d)"
      s.sw_prefetches s.guarded_loads s.sw_prefetches_cancelled
  else if r.spec_guard_trips > 0 && cell.mode = O.Off then
    fail "mode Off tripped %d spec_load guards" r.spec_guard_trips
  else None

let workload_of ~source ~heap_limit_bytes : Workloads.Workload.t =
  {
    Workloads.Workload.name = "fuzz";
    suite = `Specjvm;
    description = "generated program (fuzzer)";
    paper_note = "";
    source;
    heap_limit_bytes;
  }

(* The lint cell: after a run, every JIT-transformed method body must be
   clean under the whole analysis stack — type-state verifier, prefetch-
   safety checkers, and the plan-aware lints cross-checked against the
   loop reports the pass produced. Warnings count as violations: the
   codegen of a correct pass never emits a redundant prefetch or a dead
   spec-load register. *)
let lint_failure ~opts (cell : cell) (r : Workloads.Harness.run_result) =
  let program = r.program in
  let require_guarded = O.use_guarded opts cell.machine in
  let violation = ref None in
  Array.iter
    (fun (m : Vm.Classfile.method_info) ->
      if !violation = None && m.compiled then
        match
          Analysis.Check.check_method ~program ~reports:r.reports
            ~scheduling_distance:opts.O.scheduling_distance ~require_guarded
            ~inter_stride_threshold:
              (O.resolved_inter_stride_threshold opts cell.machine)
            m
        with
        | [] -> ()
        | d :: _ ->
            violation :=
              Some
                (Lint_violation
                   {
                     cell;
                     meth = m.method_name;
                     message = Analysis.Diag.render ~meth:m d;
                   }))
    program.Vm.Classfile.methods;
  !violation

let with_faults faults o = { o with Vm.Interp.faults }

(* Telemetry/profiler-observer cross-check: one fresh cell pair, plain vs
   fully attributed AND profiled, at the headline configuration. The
   observability stack must observe the simulation without participating:
   program output, cycle count and every core (non-telemetry) counter
   must be bit-identical, the attributed run's effectiveness books must
   balance (issued = cancelled + redundant + useful + late + useless),
   and the profiler's cycle bins must sum exactly to the run's cycle
   count (the conservation law of lib/profile). *)
let telemetry_crosscheck ~opts ~faults workload =
  let cell =
    {
      mode = O.Inter_intra;
      standard_passes = true;
      machine = Memsim.Config.pentium4;
    }
  in
  let run ~telemetry ~profile =
    Workloads.Harness.run ~opts ~tweak_options:(with_faults faults)
      ~telemetry ~profile ~mode:cell.mode ~machine:cell.machine workload
  in
  match
    (run ~telemetry:false ~profile:false, run ~telemetry:true ~profile:true)
  with
  | exception e -> Some (Crash { cell; message = Printexc.to_string e })
  | plain, attributed ->
      let diverged message = Some (Telemetry_divergence { cell; message }) in
      if plain.output <> attributed.output then
        diverged "program output differs"
      else if plain.cycles <> attributed.cycles then
        diverged
          (Printf.sprintf "cycles differ: plain=%d telemetry=%d" plain.cycles
             attributed.cycles)
      else if
        plain.faulting_prefetches <> attributed.faulting_prefetches
        || plain.spec_guard_trips <> attributed.spec_guard_trips
      then diverged "fault/guard counters differ"
      else begin
        match
          List.find_opt
            (fun ((k, a), (k', b)) -> k <> k' || a <> b)
            (List.combine
               (Memsim.Stats.core_alist plain.stats)
               (Memsim.Stats.core_alist attributed.stats))
        with
        | Some ((k, a), (_, b)) ->
            diverged
              (Printf.sprintf "core counter %s differs: plain=%d telemetry=%d"
                 k a b)
        | None -> (
            match attributed.effectiveness with
            | None -> diverged "telemetry run produced no effectiveness report"
            | Some eff ->
                let t = eff.Workloads.Effectiveness.totals in
                let classified =
                  t.Memsim.Attribution.cancelled + t.redundant
                  + t.redundant_hw + t.useful + t.late + t.useless
                in
                if t.issued <> classified then
                  diverged
                    (Printf.sprintf
                       "attribution books don't balance: issued=%d but \
                        cancelled+redundant+redundant_hw+useful+late+\
                        useless=%d"
                       t.issued classified)
                else begin
                  (* The profiler rode along on the attributed run; its
                     conservation law must hold on every fuzzed program. *)
                  match attributed.profile with
                  | None -> diverged "profiled run produced no profile report"
                  | Some rep -> (
                      match Profile.Report.conservation_error rep with
                      | Some msg ->
                          diverged
                            ("profiler conservation law violated: " ^ msg)
                      | None ->
                          (* The diff engine's identity law, on the same
                             attributed run: snapshot it and diff it
                             against itself — the blame must be empty
                             (zero total delta, zero per-loop deltas)
                             and the conservation check exact. A breach
                             is a join bug in lib/diff, invisible to
                             every cell above. *)
                          let diff_diverged message =
                            Some (Diff_divergence { cell; message })
                          in
                          let config =
                            {
                              Diff.Rundata.c_workload =
                                workload.Workloads.Workload.name;
                              c_machine = cell.machine.Memsim.Config.name;
                              c_mode = O.mode_name cell.mode;
                              c_engine = "closure";
                              c_hw =
                                Memsim.Config.hw_prefetch_to_string
                                  cell.machine.Memsim.Config.hw_prefetch;
                              c_prediction =
                                O.prediction_name opts.O.prediction;
                              c_threshold = opts.O.inter_stride_threshold;
                              c_passes = true;
                              c_phased = opts.O.enable_phased;
                              c_interproc = opts.O.inspect_calls;
                            }
                          in
                          (match
                             Diff.Rundata.of_run ~config attributed
                           with
                          | Error msg ->
                              diff_diverged
                                ("snapshot of a profiled run failed: " ^ msg)
                          | Ok rd -> (
                              let bl =
                                Diff.Blame.build ~faults ~a:rd ~b:rd ()
                              in
                              if bl.Diff.Blame.total_delta <> 0 then
                                diff_diverged
                                  (Printf.sprintf
                                     "self-diff total delta is %+d, want 0"
                                     bl.Diff.Blame.total_delta)
                              else
                                match Diff.Blame.check bl with
                                | Some msg -> diff_diverged msg
                                | None ->
                                    if
                                      List.exists
                                        (fun (d : Diff.Blame.loop_delta) ->
                                          d.d_delta <> 0)
                                        bl.Diff.Blame.loops
                                    then
                                      diff_diverged
                                        "self-diff blames a loop for a \
                                         nonzero delta"
                                    else None)))
                end)
      end

(* Engine cross-check: one fresh cell pair at the headline configuration,
   reference switch engine vs closure-compiled engine. Bit-identity is
   the engines' contract, so on a completed run {e everything} must
   agree: program output, the statics-reachable heap graph, and the full
   stats surface — every core memory-system counter plus the VM-side
   books (cycle split, GC count, methods compiled, fault/guard
   counters). A crashing program must crash {e identically} in both
   engines (same exception, same message) and is compared on the crash
   alone: the closure engine's block batching commits a whole block's
   step/cycle bookkeeping before a mid-block error where the switch
   engine stops at the faulting instruction (documented in
   lib/vm/engine.ml), so post-crash counters are deliberately not
   comparable — and no stats counter is readable from an aborted run
   anyway. *)
let engine_crosscheck ~opts ~faults workload =
  let cell =
    {
      mode = O.Inter_intra;
      standard_passes = true;
      machine = Memsim.Config.pentium4;
    }
  in
  let run engine =
    match
      Workloads.Harness.run ~opts ~tweak_options:(with_faults faults) ~engine
        ~capture_observables:true ~mode:cell.mode ~machine:cell.machine
        workload
    with
    | r -> Ok r
    | exception e -> Error (Printexc.to_string e)
  in
  let diverged message = Some (Engine_divergence { cell; message }) in
  match (run Vm.Interp.Switch, run Vm.Interp.Closure) with
  | Error sw, Error cl ->
      if sw = cl then None
      else
        diverged
          (Printf.sprintf "engines crash differently: switch raised %s, \
                           closure raised %s" sw cl)
  | Error sw, Ok _ ->
      diverged
        (Printf.sprintf "switch engine crashed (%s) but closure completed" sw)
  | Ok _, Error cl ->
      diverged
        (Printf.sprintf "closure engine crashed (%s) but switch completed" cl)
  | Ok sw, Ok cl ->
      if sw.output <> cl.output then diverged "program output differs"
      else begin
        let counter name f =
          if f sw = f cl then None
          else
            Some
              (Printf.sprintf "%s differs: switch=%d closure=%d" name (f sw)
                 (f cl))
        in
        let vm_books =
          List.filter_map
            (fun (name, f) -> counter name f)
            [
              ("cycles", fun (r : Workloads.Harness.run_result) -> r.cycles);
              ("interpreted_cycles", fun r -> r.interpreted_cycles);
              ("compiled_cycles", fun r -> r.compiled_cycles);
              ("gc_count", fun r -> r.gc_count);
              ("methods_compiled", fun r -> r.methods_compiled);
              ("faulting_prefetches", fun r -> r.faulting_prefetches);
              ("spec_guard_trips", fun r -> r.spec_guard_trips);
            ]
        in
        match vm_books with
        | msg :: _ -> diverged msg
        | [] -> (
            match
              List.find_opt
                (fun ((k, a), (k', b)) -> k <> k' || a <> b)
                (List.combine
                   (Memsim.Stats.core_alist sw.stats)
                   (Memsim.Stats.core_alist cl.stats))
            with
            | Some ((k, a), (_, b)) ->
                diverged
                  (Printf.sprintf "core counter %s differs: switch=%d \
                                   closure=%d" k a b)
            | None -> (
                match (sw.observables, cl.observables) with
                | Some a, Some b -> (
                    match Workloads.Observables.diff a b with
                    | None -> None
                    | Some diff ->
                        diverged ("reachable heap differs: " ^ diff))
                | _ -> diverged "a run captured no observables"))
      end

(* Hardware-prefetcher cross-check: the headline configuration re-run
   under each hardware prefetch model (none, stream, RPT). The hardware
   prefetcher lives entirely below the architectural surface: program
   output and the statics-reachable heap graph must be identical across
   the three models — only cycles and memory-system counters may move. A
   model that changes what the program computes (or crashes it) is a
   co-simulation bug — the class the [Hw_desync] self-test
   injects, invisible to every same-machine check above because the
   default matrix never varies the hardware model. *)
let hw_crosscheck ~opts ~faults workload =
  let models =
    [
      Memsim.Config.Hw_none;
      Memsim.Config.default_stream;
      Memsim.Config.default_rpt;
    ]
  in
  let cell_of hw =
    {
      mode = O.Inter_intra;
      standard_passes = true;
      machine =
        { Memsim.Config.pentium4 with Memsim.Config.hw_prefetch = hw };
    }
  in
  let run hw =
    let cell = cell_of hw in
    match
      Workloads.Harness.run ~opts ~tweak_options:(with_faults faults)
        ~capture_observables:true ~mode:cell.mode ~machine:cell.machine
        workload
    with
    | r -> Ok (cell, Memsim.Config.hw_prefetch_to_string hw, r)
    | exception e -> Error (Crash { cell; message = Printexc.to_string e })
  in
  let runs = List.map run models in
  match List.find_map (function Error f -> Some f | Ok _ -> None) runs with
  | Some f -> Some f
  | None -> (
      match
        List.filter_map (function Ok x -> Some x | Error _ -> None) runs
      with
      | [] | [ _ ] -> None
      | (_, _, base) :: rest ->
          let compare_to_base (cell, hw, (r : Workloads.Harness.run_result))
              =
            if r.output <> base.Workloads.Harness.output then
              Some
                (Hw_divergence
                   {
                     cell;
                     hw;
                     message = "program output differs from the hw=none run";
                   })
            else
              match (base.observables, r.observables) with
              | Some a, Some b -> (
                  match Workloads.Observables.diff a b with
                  | None -> None
                  | Some diff ->
                      Some
                        (Hw_divergence
                           {
                             cell;
                             hw;
                             message =
                               "reachable heap differs from the hw=none \
                                run: " ^ diff;
                           }))
              | _ ->
                  Some
                    (Hw_divergence
                       { cell; hw; message = "a run captured no observables" })
          in
          List.find_map compare_to_base rest)

(* Prediction cross-check: the headline configuration re-run under the
   static and hybrid prediction tiers, compared to the inspect-tier run.
   Tiers may only change *when* a stride is discovered (compile time,
   inspection iterations) — never what the program computes: output and
   the statics-reachable heap graph must match, and no static claim may
   turn into a faulting prefetch address. Per-site disagreement between
   static claims and inspected strides is a scored metric ([spf lint
   --predict]), not a failure; divergence here is a crash class — the one
   the [Prediction_desync] self-test injects, invisible to every
   check above because the default matrix never leaves the inspect
   tier. *)
let prediction_crosscheck ~opts ~faults workload =
  let cell =
    {
      mode = O.Inter_intra;
      standard_passes = true;
      machine = Memsim.Config.pentium4;
    }
  in
  let run tier =
    let opts = { opts with O.prediction = tier } in
    match
      Workloads.Harness.run ~opts ~tweak_options:(with_faults faults)
        ~capture_observables:true ~mode:cell.mode ~machine:cell.machine
        workload
    with
    | r -> Ok r
    | exception e ->
        Error
          (Crash
             {
               cell;
               message =
                 Printf.sprintf "under prediction tier %s: %s"
                   (O.prediction_name tier) (Printexc.to_string e);
             })
  in
  match run O.Inspect with
  | Error f -> Some f
  | Ok base ->
      let check_tier tier =
        let name = O.prediction_name tier in
        let diverged message =
          Some (Prediction_divergence { cell; tier = name; message })
        in
        match run tier with
        | Error f -> Some f
        | Ok r ->
            if r.Workloads.Harness.output <> base.Workloads.Harness.output
            then diverged "program output differs from the inspect-tier run"
            else if r.faulting_prefetches > 0 then
              diverged
                (Printf.sprintf
                   "%d prefetch op(s) computed a negative address"
                   r.faulting_prefetches)
            else (
              match (base.observables, r.observables) with
              | Some a, Some b -> (
                  match Workloads.Observables.diff a b with
                  | None -> None
                  | Some diff ->
                      diverged
                        ("reachable heap differs from the inspect-tier \
                          run: " ^ diff))
              | _ -> diverged "a run captured no observables")
      in
      (match check_tier O.Static with
      | Some f -> Some f
      | None -> check_tier O.Hybrid)

(* Monitor cross-check: the headline configuration re-run with the live
   windowed monitor armed (4096-cycle windows — small enough that even
   tiny fuzzed programs close several) against its plain twin. The
   monitor must observe without participating: program output, cycles
   and every core counter bit-identical to the unmonitored run — the
   class of bug the [Monitor_desync] self-test injects (a
   window-boundary fire that charges a cycle), invisible to every check
   above because the default matrix never arms a monitor. And the
   monitor's own books must balance: the per-window stats deltas and
   attribution outcomes must sum back exactly to the end-of-run totals
   (the tail partial window included), else windowing lost or invented
   events. *)
let monitor_crosscheck ~opts ~faults workload =
  let cell =
    {
      mode = O.Inter_intra;
      standard_passes = true;
      machine = Memsim.Config.pentium4;
    }
  in
  let run_plain () =
    Workloads.Harness.run ~opts ~tweak_options:(with_faults faults)
      ~mode:cell.mode ~machine:cell.machine workload
  in
  let run_monitored () =
    Workloads.Harness.run ~opts ~tweak_options:(with_faults faults)
      ~monitor:4096 ~mode:cell.mode ~machine:cell.machine workload
  in
  match (run_plain (), run_monitored ()) with
  | exception e -> Some (Crash { cell; message = Printexc.to_string e })
  | plain, mon -> (
      let diverged message = Some (Monitor_divergence { cell; message }) in
      if plain.Workloads.Harness.output <> mon.Workloads.Harness.output then
        diverged "program output differs"
      else if plain.cycles <> mon.cycles then
        diverged
          (Printf.sprintf "cycles differ: plain=%d monitored=%d" plain.cycles
             mon.cycles)
      else if
        plain.faulting_prefetches <> mon.faulting_prefetches
        || plain.spec_guard_trips <> mon.spec_guard_trips
      then diverged "fault/guard counters differ"
      else
        match
          List.find_opt
            (fun ((k, a), (k', b)) -> k <> k' || a <> b)
            (List.combine
               (Memsim.Stats.core_alist plain.stats)
               (Memsim.Stats.core_alist mon.stats))
        with
        | Some ((k, a), (_, b)) ->
            diverged
              (Printf.sprintf "core counter %s differs: plain=%d monitored=%d"
                 k a b)
        | None -> (
            match mon.monitor with
            | None -> diverged "monitored run produced no monitor report"
            | Some rep -> (
                let windows = rep.Monitor.Report.windows in
                let totals = Memsim.Stats.core_alist mon.stats in
                let sums = Array.make (List.length totals) 0 in
                Array.iter
                  (fun (w : Monitor.Window.t) ->
                    List.iteri
                      (fun i (_, v) -> sums.(i) <- sums.(i) + v)
                      (Memsim.Stats.core_alist w.Monitor.Window.stats))
                  windows;
                let rec first_mismatch i = function
                  | [] -> None
                  | (k, total) :: rest ->
                      if sums.(i) <> total then Some (k, sums.(i), total)
                      else first_mismatch (i + 1) rest
                in
                match first_mismatch 0 totals with
                | Some (k, s, total) ->
                    diverged
                      (Printf.sprintf
                         "window deltas for %s sum to %d but the run total \
                          is %d"
                         k s total)
                | None -> (
                    match mon.effectiveness with
                    | None ->
                        diverged "monitored run produced no attribution"
                    | Some eff -> (
                        let t = eff.Workloads.Effectiveness.totals in
                        let sum f =
                          Array.fold_left (fun a w -> a + f w) 0 windows
                        in
                        let books =
                          [
                            ( "issued",
                              sum (fun (w : Monitor.Window.t) -> w.issued),
                              t.Memsim.Attribution.issued );
                            ( "useful",
                              sum (fun (w : Monitor.Window.t) -> w.useful),
                              t.useful );
                            ( "late",
                              sum (fun (w : Monitor.Window.t) -> w.late),
                              t.late );
                            ( "useless",
                              sum (fun (w : Monitor.Window.t) -> w.useless),
                              t.useless );
                          ]
                        in
                        match
                          List.find_opt (fun (_, s, tot) -> s <> tot) books
                        with
                        | Some (k, s, tot) ->
                            diverged
                              (Printf.sprintf
                                 "window %s deltas sum to %d but the \
                                  attribution total is %d"
                                 k s tot)
                        | None -> None)))))

let check ?(cells = default_cells) ?(faults = Vm.Fault.none) ~source
    ~heap_limit_bytes () =
  match
    (* Surface front-end failures as their own verdict: the generator is
       supposed to emit well-typed programs, so a compile error is a
       generator bug (or, during shrinking, an invalid candidate). *)
    try
      Ok (ignore (Minijava.Compile.program_of_source_exn source))
    with e -> Error (Printexc.to_string e)
  with
  | Error msg -> Fail (Compile_error msg)
  | Ok () -> (
      let workload = workload_of ~source ~heap_limit_bytes in
      let opts = Strideprefetch.Options.default in
      let run cell =
        let side_effect = ref None in
        let compile_observer ~meth ~before ~after =
          if !side_effect = None then
            match Workloads.Observables.diff before after with
            | None -> ()
            | Some diff ->
                side_effect :=
                  Some
                    (Inspection_side_effect
                       {
                         cell;
                         meth = meth.Vm.Classfile.method_name;
                         diff;
                       })
        in
        match
          Workloads.Harness.run ~opts ~standard_passes:cell.standard_passes
            ~compile_observer ~tweak_options:(with_faults faults)
            ~capture_observables:true ~mode:cell.mode ~machine:cell.machine
            workload
        with
        | exception Jit.Pipeline.Verification_failed
            { pass_name; method_name; message } ->
            Error
              (Lint_violation
                 {
                   cell;
                   meth = method_name;
                   message = Printf.sprintf "after pass %s: %s" pass_name message;
                 })
        | exception e ->
            Error (Crash { cell; message = Printexc.to_string e })
        | r -> (
            match !side_effect with
            | Some f -> Error f
            | None ->
                if r.faulting_prefetches > 0 then
                  Error
                    (Faulting_prefetch
                       { cell; count = r.faulting_prefetches })
                else (
                  match stats_invariants cell r with
                  | Some f -> Error f
                  | None -> (
                      match lint_failure ~opts cell r with
                      | Some f -> Error f
                      | None -> Ok r)))
      in
      match cells with
      | [] -> Pass { cells_run = 0 }
      | baseline_cell :: rest -> (
          match run baseline_cell with
          | Error f -> Fail f
          | Ok baseline ->
              let compare_to_baseline cell (r : Workloads.Harness.run_result)
                  =
                if r.output <> baseline.output then
                  Some
                    (Output_divergence
                       {
                         cell;
                         baseline_output = baseline.output;
                         output = r.output;
                       })
                else
                  match (baseline.observables, r.observables) with
                  | Some a, Some b -> (
                      match Workloads.Observables.diff a b with
                      | None -> None
                      | Some diff -> Some (Heap_divergence { cell; diff }))
                  | _ -> None
              in
              let rec loop n = function
                | [] -> (
                    (* Differential matrix clean: append the telemetry
                       observer-effect pair, the switch-vs-closure
                       engine pair, the hardware-model triple, the
                       prediction-tier triple, then the monitored twin
                       pair. *)
                    match telemetry_crosscheck ~opts ~faults workload with
                    | Some f -> Fail f
                    | None -> (
                        match
                          engine_crosscheck ~opts ~faults workload
                        with
                        | Some f -> Fail f
                        | None -> (
                            match
                              hw_crosscheck ~opts ~faults workload
                            with
                            | Some f -> Fail f
                            | None -> (
                                match
                                  prediction_crosscheck ~opts ~faults
                                    workload
                                with
                                | Some f -> Fail f
                                | None -> (
                                    match
                                      monitor_crosscheck ~opts ~faults
                                        workload
                                    with
                                    | Some f -> Fail f
                                    | None -> Pass { cells_run = n + 12 })))))
                | cell :: cells -> (
                    match run cell with
                    | Error f -> Fail f
                    | Ok r -> (
                        match compare_to_baseline cell r with
                        | Some f -> Fail f
                        | None -> loop (n + 1) cells))
              in
              loop 1 rest))
