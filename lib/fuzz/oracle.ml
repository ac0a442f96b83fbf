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
  | Engine_divergence of { cell : cell; message : string }
  | Hw_divergence of { cell : cell; hw : string; message : string }
  | Prediction_divergence of { cell : cell; tier : string; message : string }
  | Observer_divergence of { cell : cell; law : string; message : string }

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
  | Observer_divergence { cell; law; message } ->
      Printf.sprintf
        "[%s] observer law %s broken (attribution, profiler, monitor and \
         run record must observe only and balance their books): %s"
        (cell_name cell) law message

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

(* The configuration every cross-check below runs at: the run-config
   default, whose plain run is also one of the default matrix cells. *)
let headline_config = Diff.Bisect.default_config

let headline =
  {
    mode = headline_config.mode;
    standard_passes = headline_config.passes;
    machine = headline_config.machine;
  }

let cross_check_runs = 8

let with_headline cells =
  if List.mem headline cells then cells else cells @ [ headline ]

let runs_per_program cells =
  List.length (with_headline cells) + cross_check_runs

(* One cross-check run: the headline configuration (on [machine], for
   the hardware triple), with the injected faults and an end-of-run
   heap snapshot. *)
let headline_run ~opts ~faults ?engine ?profile ?monitor
    ?(machine = headline.machine) workload =
  Workloads.Harness.run ~opts ~tweak_options:(with_faults faults) ?engine
    ?profile ?monitor ~capture_observables:true ~mode:headline.mode ~machine
    workload

(* The first leg that reports a problem. *)
let first legs = List.find_map (fun leg -> leg ()) legs

(* Bit-identity of two completed runs of one configuration: program
   output, cycles, the fault/guard counters and every core stats
   counter. [a] and [b] name the two sides in the message. *)
let twin_identity ~a ~b (ra : Workloads.Harness.run_result)
    (rb : Workloads.Harness.run_result) =
  if ra.output <> rb.output then Some "program output differs"
  else if ra.cycles <> rb.cycles then
    Some (Printf.sprintf "cycles differ: %s=%d %s=%d" a ra.cycles b rb.cycles)
  else if
    ra.faulting_prefetches <> rb.faulting_prefetches
    || ra.spec_guard_trips <> rb.spec_guard_trips
  then Some "fault/guard counters differ"
  else
    List.find_map
      (fun ((k, x), (_, y)) ->
        if x = y then None
        else
          Some
            (Printf.sprintf "core counter %s differs: %s=%d %s=%d" k a x b y))
      (List.combine
         (Memsim.Stats.core_alist ra.stats)
         (Memsim.Stats.core_alist rb.stats))

(* The statics-reachable heap graphs of two runs. *)
let heap_diff (a : Workloads.Harness.run_result)
    (b : Workloads.Harness.run_result) =
  match (a.observables, b.observables) with
  | Some x, Some y ->
      Option.map
        (( ^ ) "reachable heap differs: ")
        (Workloads.Observables.diff x y)
  | _ -> Some "a run captured no observables"

let attribution_books (t : Memsim.Attribution.site_counters) =
  let classified =
    t.cancelled + t.redundant + t.redundant_hw + t.useful + t.late + t.useless
  in
  if t.issued = classified then None
  else
    Some
      (Printf.sprintf
         "issued=%d but cancelled+redundant+redundant_hw+useful+late+useless=%d"
         t.issued classified)

(* The monitor's books: per-window core-counter deltas and attribution
   outcomes must sum back exactly to the run totals. *)
let monitor_books (r : Workloads.Harness.run_result) (rep : Monitor.Report.t)
    (t : Memsim.Attribution.site_counters) =
  let windows = rep.Monitor.Report.windows in
  let sum f = Array.fold_left (fun acc w -> acc + f w) 0 windows in
  let mismatch what (k, s, total) =
    if s = total then None
    else
      Some
        (Printf.sprintf "window %s for %s sum to %d but the run total is %d"
           what k s total)
  in
  let totals = Memsim.Stats.core_alist r.stats in
  let sums = Array.make (List.length totals) 0 in
  Array.iter
    (fun (w : Monitor.Window.t) ->
      List.iteri
        (fun i (_, v) -> sums.(i) <- sums.(i) + v)
        (Memsim.Stats.core_alist w.stats))
    windows;
  first
    [
      (fun () ->
        List.find_map (mismatch "deltas")
          (List.mapi (fun i (k, total) -> (k, sums.(i), total)) totals));
      (fun () ->
        List.find_map (mismatch "outcomes")
          [
            ("issued", sum (fun (w : Monitor.Window.t) -> w.issued), t.issued);
            ("useful", sum (fun (w : Monitor.Window.t) -> w.useful), t.useful);
            ("late", sum (fun (w : Monitor.Window.t) -> w.late), t.late);
            ( "useless",
              sum (fun (w : Monitor.Window.t) -> w.useless),
              t.useless );
          ]);
    ]

(* A run record diffed against itself must blame nothing, with the
   blame conservation law exact. *)
let self_diff ~faults (r : Workloads.Harness.run_result) =
  match Diff.Rundata.of_run ~config:headline_config r with
  | Error msg -> Some msg
  | Ok rd -> (
      let bl = Diff.Blame.build ~faults ~a:rd ~b:rd () in
      match Diff.Blame.check bl with
      | Some _ as broken -> broken
      | None ->
          if
            bl.total_delta <> 0
            || List.exists
                 (fun (d : Diff.Blame.loop_delta) -> d.d_delta <> 0)
                 bl.loops
          then Some "a run diffed against itself blames a nonzero delta"
          else None)

(* The observer law: the headline configuration re-run with every
   observer on — attribution, the object-centric profiler and a live
   monitor with 4096-cycle windows (small enough that even tiny fuzzed
   programs close several) — against its plain twin. Each observer must
   observe without participating, and each must balance its books:

   - observe-only: output, cycles, fault/guard and core counters are
     bit-identical to the plain twin (the [Monitor_desync] fault, a
     window-boundary fire that charges a cycle, breaks this);
   - attribution-books: issued = cancelled + redundant + redundant_hw +
     useful + late + useless;
   - profile-conservation: the profiler's bins plus GC sum to the
     run's cycles;
   - monitor-books: the per-window stats deltas and attribution outcomes
     sum back to the run totals, tail partial window included;
   - self-diff: the run record diffed against itself blames nothing
     (the [Diff_desync] fault breaks this). *)
let observer_crosscheck ~opts ~faults workload
    (plain : Workloads.Harness.run_result) =
  match headline_run ~opts ~faults ~profile:true ~monitor:4096 workload with
  | exception e ->
      Some (Crash { cell = headline; message = Printexc.to_string e })
  | observed ->
      let missing what = Some ("the observed run produced no " ^ what) in
      let with_attribution f =
        match observed.effectiveness with
        | None -> missing "attribution report"
        | Some eff -> f eff.Workloads.Effectiveness.totals
      in
      List.find_map
        (fun (law, leg) ->
          Option.map
            (fun message -> Observer_divergence { cell = headline; law; message })
            (leg ()))
        [
          ( "observe-only",
            fun () -> twin_identity ~a:"plain" ~b:"observed" plain observed );
          ("attribution-books", fun () -> with_attribution attribution_books);
          ( "profile-conservation",
            fun () ->
              match observed.profile with
              | None -> missing "profile"
              | Some p -> Profile.Report.conservation_error p );
          ( "monitor-books",
            fun () ->
              match observed.monitor with
              | None -> missing "monitor report"
              | Some rep -> with_attribution (monitor_books observed rep) );
          ("self-diff", fun () -> self_diff ~faults observed);
        ]

(* Engine cross-check: the headline configuration on the reference switch
   engine against its plain twin on the closure-compiled engine.
   Bit-identity is the engines' contract, so everything must agree: the
   twin identity above, the VM-side books (cycle split, GC count,
   methods compiled) and the statics-reachable heap graph. The plain
   twin completed (a crash fails the matrix first), so a switch crash is
   a divergence; post-crash counters are never compared — the closure
   engine's block batching commits a whole block's bookkeeping before a
   mid-block error (documented in lib/vm/engine.ml). *)
let engine_crosscheck ~opts ~faults workload
    (closure : Workloads.Harness.run_result) =
  let diverged message = Engine_divergence { cell = headline; message } in
  match headline_run ~opts ~faults ~engine:Vm.Interp.Switch workload with
  | exception e ->
      Some
        (diverged
           (Printf.sprintf "switch engine crashed (%s) but closure completed"
              (Printexc.to_string e)))
  | sw ->
      let vm_book (name, f) =
        if f sw = f closure then None
        else
          Some
            (Printf.sprintf "%s differs: switch=%d closure=%d" name (f sw)
               (f closure))
      in
      Option.map diverged
        (first
           [
             (fun () -> twin_identity ~a:"switch" ~b:"closure" sw closure);
             (fun () ->
               List.find_map vm_book
                 [
                   ( "interpreted_cycles",
                     fun (r : Workloads.Harness.run_result) ->
                       r.interpreted_cycles );
                   ("compiled_cycles", fun r -> r.compiled_cycles);
                   ("gc_count", fun r -> r.gc_count);
                   ("methods_compiled", fun r -> r.methods_compiled);
                 ]);
             (fun () -> heap_diff sw closure);
           ])

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
  let run hw =
    let machine = { headline.machine with Memsim.Config.hw_prefetch = hw } in
    let cell = { headline with machine } in
    match headline_run ~opts ~faults ~machine workload with
    | r -> Ok (cell, r)
    | exception e -> Error (Crash { cell; message = Printexc.to_string e })
  in
  let diverges (base : Workloads.Harness.run_result) (cell, r) =
    Option.map
      (fun message ->
        Hw_divergence
          {
            cell;
            hw = Memsim.Config.hw_prefetch_to_string cell.machine.hw_prefetch;
            message = message ^ " (against the hw=none run)";
          })
      (if r.Workloads.Harness.output <> base.output then
         Some "program output differs"
       else heap_diff base r)
  in
  let runs =
    List.map run
      Memsim.Config.[ Hw_none; default_stream; default_rpt ]
  in
  match List.find_map (function Error f -> Some f | Ok _ -> None) runs with
  | Some f -> Some f
  | None -> (
      match List.filter_map Result.to_option runs with
      | (_, base) :: rest -> List.find_map (diverges base) rest
      | [] -> None)

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
  let run tier =
    match headline_run ~opts:{ opts with O.prediction = tier } ~faults workload
    with
    | r -> Ok r
    | exception e ->
        Error
          (Crash
             {
               cell = headline;
               message =
                 Printf.sprintf "under prediction tier %s: %s"
                   (O.prediction_name tier) (Printexc.to_string e);
             })
  in
  let check_tier (base : Workloads.Harness.run_result) tier =
    match run tier with
    | Error f -> Some f
    | Ok r ->
        Option.map
          (fun message ->
            Prediction_divergence
              {
                cell = headline;
                tier = O.prediction_name tier;
                message = message ^ " (against the inspect-tier run)";
              })
          (if r.output <> base.output then Some "program output differs"
           else if r.faulting_prefetches > 0 then
             Some
               (Printf.sprintf "%d prefetch op(s) computed a negative address"
                  r.faulting_prefetches)
           else heap_diff base r)
  in
  match run O.Inspect with
  | Error f -> Some f
  | Ok base -> List.find_map (check_tier base) [ O.Static; O.Hybrid ]

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
      match with_headline cells with
      | [] -> assert false
      | baseline_cell :: rest -> (
          match run baseline_cell with
          | Error f -> Fail f
          | Ok baseline -> (
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
              let rec matrix runs = function
                | [] -> Ok runs
                | cell :: cells -> (
                    match run cell with
                    | Error f -> Error f
                    | Ok r -> (
                        match compare_to_baseline cell r with
                        | Some f -> Error f
                        | None -> matrix ((cell, r) :: runs) cells))
              in
              match matrix [ (baseline_cell, baseline) ] rest with
              | Error f -> Fail f
              | Ok runs -> (
                  (* Differential matrix clean: the cross-checks, the
                     first two against the matrix's own headline run. *)
                  let plain = List.assoc headline runs in
                  match
                    List.find_map
                      (fun cross_check -> cross_check ())
                      [
                        (fun () ->
                          observer_crosscheck ~opts ~faults workload plain);
                        (fun () ->
                          engine_crosscheck ~opts ~faults workload plain);
                        (fun () -> hw_crosscheck ~opts ~faults workload);
                        (fun () ->
                          prediction_crosscheck ~opts ~faults workload);
                      ]
                  with
                  | Some f -> Fail f
                  | None ->
                      Pass { cells_run = List.length runs + cross_check_runs }
                  ))))
