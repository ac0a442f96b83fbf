(* spf: the command-line driver of the stride-prefetching simulator.

   One binary, six subcommands: [list] the workloads; [run] one workload
   or MiniJava file with the telemetry, profiler and monitor views;
   [compare] the three prefetching modes; [diff] two runs (blame and
   axis bisection); [lint] the JIT-transformed bytecode; [fuzz]
   generated programs across the configuration matrix. They share one
   workload lookup, one run-configuration term, one [--inject] fault set
   and one exit-code table. *)

open Cmdliner
module H = Workloads.Harness
module O = Strideprefetch.Options
module B = Diff.Bisect

(* ---- exit codes -------------------------------------------------------- *)

let exit_finding = 1
let exit_input = 2
let exit_budget = 3

let exits =
  Cmd.Exit.info exit_finding
    ~doc:
      "a check failed: a fuzz or lint finding, a broken conservation law, \
       a missed detection-latency or agreement floor, or a bisection \
       assertion. Every $(b,--inject) self-test that is caught exits so."
  :: Cmd.Exit.info exit_input
       ~doc:
         "bad input: an unknown workload, an unreadable or malformed file \
          or a MiniJava compile error."
  :: Cmd.Exit.info exit_budget
       ~doc:"the run exhausted its step budget ($(b,--max-steps))."
  :: Cmd.Exit.defaults

let die code fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("spf: " ^ msg);
      exit code)
    fmt

(* ---- workloads --------------------------------------------------------- *)

let workloads =
  Workloads.Specjvm.all @ Workloads.Javagrande.all @ Workloads.Phase.all

(* A workload name (any case) or the path of a MiniJava source file. *)
let workload_of name =
  let same (w : Workloads.Workload.t) =
    String.lowercase_ascii w.name = String.lowercase_ascii name
  in
  match List.find_opt same workloads with
  | Some w -> w
  | None when Sys.file_exists name -> (
      let source =
        try In_channel.with_open_text name In_channel.input_all
        with Sys_error e -> die exit_input "%s: %s" name e
      in
      match Minijava.Compile.program_of_source source with
      | Error e ->
          die exit_input "%s: %s" name (Minijava.Compile.string_of_error e)
      | Ok _ ->
          {
            Workloads.Workload.name = Filename.basename name;
            suite = `Specjvm;
            description = "user program";
            paper_note = "";
            source;
            heap_limit_bytes = 64 * 1024 * 1024;
          })
  | None -> die exit_input "unknown workload %s (see spf list)" name

let write_file path contents =
  Out_channel.with_open_text path (fun oc -> output_string oc contents)

let write_json path json =
  write_file path (Telemetry.Json.to_string json ^ "\n")

(* ---- the run configuration --------------------------------------------- *)

let conv_of parse print =
  Arg.conv
    ( (fun s -> Result.map_error (fun e -> `Msg e) (parse s)),
      fun ppf v -> Format.pp_print_string ppf (print v) )

(* A converter over a finite set of values, each with one spelling. *)
let named what all name parse =
  conv_of
    (fun s ->
      Option.to_result (parse s)
        ~none:
          (Printf.sprintf "unknown %s %S (expected %s)" what s
             (String.concat ", " (List.map name all))))
    name

let machine_conv =
  named "machine" Memsim.Config.machines
    (fun (m : Memsim.Config.machine) -> m.name)
    Memsim.Config.machine_of_name

let engine_conv =
  named "engine" [ Vm.Interp.Closure; Vm.Interp.Switch ] Vm.Interp.engine_name
    (fun s -> Vm.Interp.engine_of_string (String.lowercase_ascii s))

let fault_conv = named "fault" Vm.Fault.all Vm.Fault.name Vm.Fault.of_name

type config = {
  axes : B.config;  (** the axes [spf diff --vs] overrides and bisects *)
  max_steps : int option;
  faults : Vm.Fault.set;
}

let machine_arg =
  Arg.(
    value
    & opt machine_conv Memsim.Config.pentium4
    & info [ "m"; "machine" ] ~docv:"MACHINE"
        ~doc:"Simulated machine (pentium4 or athlonmp).")

let hw_arg =
  Arg.(
    value
    & opt
        (some
           (conv_of Memsim.Config.hw_prefetch_of_string
              Memsim.Config.hw_prefetch_to_string))
        None
    & info [ "hw-prefetch" ] ~docv:"SPEC"
        ~doc:
          "Override the machine's hardware prefetcher: $(b,none), \
           $(b,stream[:STREAMS]) (the default sequential stream unit), or \
           $(b,rpt[:TABLExDEGREE@DISTANCE]) (a Chen/Baer reference \
           prediction table, e.g. $(b,rpt:64x2@4)). Only cycles and memory \
           counters move.")

let prediction_arg =
  Arg.(
    value
    & opt (conv_of O.prediction_of_string O.prediction_name) O.Inspect
    & info [ "prediction" ] ~docv:"TIER"
        ~doc:
          "Stride-prediction source: $(b,inspect) (the paper's dynamic \
           object inspection; the default), $(b,static) (the \
           address-algebra analysis alone) or $(b,hybrid) (static verdicts \
           shorten or skip inspection). Program results are identical \
           under every tier.")

let config_term =
  let make machine hw mode engine prediction threshold phased interproc
      max_steps =
    {
      axes =
        {
          B.machine;
          hw;
          mode;
          engine;
          prediction;
          threshold;
          phased;
          interproc;
          passes = true;
        };
      max_steps;
      faults = Vm.Fault.none;
    }
  in
  Term.(
    const make $ machine_arg $ hw_arg
    $ Arg.(
        value
        & opt (conv_of O.mode_of_string O.mode_name) O.Inter_intra
        & info [ "p"; "mode" ] ~docv:"MODE"
            ~doc:"Prefetching mode: off, inter, or inter+intra.")
    $ Arg.(
        value
        & opt engine_conv Vm.Interp.Closure
        & info [ "engine" ] ~docv:"ENGINE"
            ~doc:
              "Execution engine: $(b,closure) (direct-threaded closure \
               arrays; the default) or $(b,switch) (the reference \
               fetch/decode loop). Simulated results are bit-identical.")
    $ prediction_arg
    $ Arg.(
        value
        & opt (some int) None
        & info [ "threshold" ] ~docv:"BYTES"
            ~doc:
              "Inter-stride profitability threshold (default: the paper's \
               half-line rule).")
    $ Arg.(
        value & flag
        & info [ "phased" ]
            ~doc:"Detect and prefetch Wu-style phased multiple-stride loads.")
    $ Arg.(
        value & flag
        & info [ "interprocedural" ]
            ~doc:
              "Object inspection steps into callees instead of skipping \
               them.")
    $ Arg.(
        value
        & opt (some int) None
        & info [ "max-steps" ] ~docv:"N"
            ~doc:
              "Step budget: exit with code 3 once the VM has dispatched more \
               than $(docv) instructions (default: 2e9)."))

(* [caught] says which of the faults this subcommand's own checks
   report; the others are injected all the same, and their description
   names the check that catches them. *)
let inject_arg ~caught =
  let doc =
    "Self-test: inject $(docv), a deliberate defect (repeatable). " ^ caught
    ^ " $(docv) is one of: "
    ^ String.concat "; "
        (List.map
           (fun f ->
             Printf.sprintf "$(b,%s): %s" (Vm.Fault.name f) (Vm.Fault.doc f))
           Vm.Fault.all)
    ^ "."
  in
  Term.(
    const Vm.Fault.of_list
    $ Arg.(
        value & opt_all fault_conv [] & info [ "inject" ] ~docv:"FAULT" ~doc))

let with_faults ~caught =
  Term.(
    const (fun c faults -> { c with faults })
    $ config_term $ inject_arg ~caught)

(* Every workload-running path goes through here, so an exhausted budget
   and a broken conservation law exit the same way everywhere. *)
let harness_run ?(check = false) ?predict ?verify_each_pass ?telemetry
    ?sink_capacity ?profile ?monitor c w =
  let tweak_options (o : Vm.Interp.options) =
    {
      o with
      Vm.Interp.faults = c.faults;
      max_steps = Option.value c.max_steps ~default:o.max_steps;
    }
  in
  try
    H.run
      ~opts:{ (B.options c.axes) with O.check_invariants = check }
      ~standard_passes:c.axes.passes ~engine:c.axes.engine ~tweak_options
      ?predict ?verify_each_pass ?telemetry ?sink_capacity ?profile ?monitor ~mode:c.axes.mode
      ~machine:(B.machine_of c.axes) w
  with
  | Vm.Interp.Budget_exhausted n ->
      die exit_budget "step budget exceeded (max_steps=%d)" n
  | H.Invariant_violation msg -> die exit_finding "invariant violation: %s" msg

(* ---- list -------------------------------------------------------------- *)

let list_cmd =
  let run () =
    List.iter
      (fun (w : Workloads.Workload.t) ->
        Printf.printf "%-12s %-10s %s\n" w.name
          (match w.suite with
          | `Specjvm -> "SPECjvm98"
          | `Javagrande -> "JavaGrande"
          | `Phase -> "Phase")
          w.description)
      workloads
  in
  Cmd.v
    (Cmd.info "list" ~exits ~doc:"List the available workloads.")
    Term.(const run $ const ())

(* ---- run --------------------------------------------------------------- *)

let target_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"WORKLOAD|FILE.mj"
        ~doc:"Workload name (see $(b,spf list)) or MiniJava source file.")

let flag names doc = Arg.(value & flag & info names ~doc)
let file_opt name doc =
  Arg.(value & opt (some string) None & info [ name ] ~docv:"FILE" ~doc)

let print_result ~verbose (r : H.run_result) =
  Printf.printf "workload: %s  machine: %s  mode: %s\n" r.workload r.machine
    (O.mode_name r.mode);
  Printf.printf "cycles: %d  (compiled %.1f%%)  GCs: %d\n" r.cycles
    (100.0 *. H.compiled_fraction r)
    r.gc_count;
  Format.printf "%a@." Memsim.Stats.pp r.stats;
  Format.printf "MPI: %a@." Memsim.Stats.pp_mpi r.stats;
  Printf.printf
    "methods compiled: %d  compile time: %.3f ms (prefetch pass %.3f ms)\n"
    r.methods_compiled
    (1000.0 *. r.total_compile_seconds)
    (1000.0 *. r.prefetch_pass_seconds);
  Printf.printf "program output:\n%s" r.output;
  if verbose then
    List.iter (Format.printf "%a@." Strideprefetch.Pass.pp_report) r.reports

(* Telemetry view: effectiveness table, event count and the exports. *)
let telemetry_view ~trace ~metrics (r : H.run_result) =
  (match r.effectiveness with
  | Some eff when eff.Workloads.Effectiveness.rows <> [] ->
      Format.printf "@.%a@." Workloads.Effectiveness.pp_table eff
  | Some _ ->
      print_endline
        "no prefetch sites executed (mode off, or nothing qualified)"
  | None -> ());
  let sink = Option.get r.sink in
  Printf.printf "telemetry: %d events recorded (%d dropped)\n"
    (Telemetry.Sink.total_events sink)
    (Telemetry.Sink.dropped sink);
  let other =
    [
      ("workload", Telemetry.Json.Str r.workload);
      ("machine", Telemetry.Json.Str r.machine);
      ("mode", Telemetry.Json.Str (O.mode_name r.mode));
    ]
  in
  Option.iter
    (fun path ->
      Telemetry.Trace.write_chrome ~other sink ~path;
      Printf.printf "chrome trace written to %s\n" path)
    trace;
  Option.iter
    (fun path ->
      Telemetry.Trace.write_jsonl ~extra:other sink ~path;
      Printf.printf "JSONL metrics written to %s (%d events + summary)\n" path
        (List.length (Telemetry.Sink.events sink)))
    metrics

(* Profiler view. Every simulated cycle lands in exactly one bin, so the
   tables must sum to the run's cycle count; refuse to print otherwise. *)
let profile_view ~topdown ~objects ~loops ~loop ~folded rep =
  let top = 20 in
  Option.iter
    (fun msg -> die exit_finding "profiler conservation law broken: %s" msg)
    (Profile.Report.conservation_error rep);
  if topdown || not (objects || loops || loop <> None) then
    Format.printf "@.%a@." (Profile.Report.pp_topdown ~top) rep;
  if loops then Format.printf "@.%a@." (Profile.Report.pp_loops ~top) rep;
  if objects then Format.printf "@.%a@." (Profile.Report.pp_objects ~top) rep;
  Option.iter
    (fun id ->
      Format.printf "@.%a@." (Profile.Report.pp_loop_detail ~loop:id) rep)
    loop;
  Option.iter
    (fun path ->
      write_file path (Profile.Report.folded rep);
      Printf.printf "folded stacks written to %s\n" path)
    folded

(* The run record: what [spf diff -a/-b] reads back. *)
let record_of_run c (r : H.run_result) =
  match Diff.Rundata.of_run ~config:c.axes r with
  | Ok rd -> rd
  | Error e -> die exit_finding "%s" e

let write_record c r path =
  write_json path (Diff.Rundata.to_json (record_of_run c r));
  Printf.printf "run record written to %s (%s)\n" path Diff.Rundata.schema

(* Monitor view: dashboard, JSONL time series, and the detection latency
   of a phase workload's planted shift, gated by [max_latency]. *)
let monitor_view ~jsonl ~max_latency (r : H.run_result) rep =
  Format.printf "@.%a" (Monitor.Report.pp_dashboard ~top:5) rep;
  Option.iter
    (fun path ->
      Out_channel.with_open_text path (Monitor.Report.write_jsonl rep);
      Printf.printf "per-window JSONL written to %s (%d windows)\n" path
        (Array.length rep.Monitor.Report.windows))
    jsonl;
  match Workloads.Phase.marker_offset r.output with
  | None -> ()
  | Some off -> (
      match Monitor.Report.detection_latency rep ~marker_offset:off with
      | Monitor.Report.No_shift ->
          print_endline "phase shift: marker past the last window"
      | Monitor.Report.Undetected shift ->
          Printf.printf "phase shift at window %d: NOT detected\n" shift;
          if max_latency <> None then exit exit_finding
      | Monitor.Report.Detected { shift; degraded; latency } -> (
          Printf.printf
            "phase shift at window %d: degraded at window %d (latency %d \
             windows)\n"
            shift degraded latency;
          match max_latency with
          | Some gate when latency > gate ->
              Printf.printf "latency gate FAILED (> %d windows)\n" gate;
              exit exit_finding
          | _ -> ()))

let run_cmd =
  let run target c verbose explain trace metrics sink_capacity profile topdown
      objects loops loop folded json check monitor window jsonl max_latency =
    let w = workload_of target in
    let monitor =
      match window with
      | Some n -> Some n
      | None when monitor || jsonl <> None || max_latency <> None ->
          Some Monitor.Collector.default_window_cycles
      | None -> None
    in
    if Option.fold ~none:false ~some:(fun n -> n <= 0) monitor then
      die Cmd.Exit.cli_error "the monitor window must be positive";
    let telemetry = trace <> None || metrics <> None in
    let profile =
      profile || topdown || objects || loops || loop <> None || folded <> None
      || json <> None || check
    in
    let r =
      harness_run ~check ~telemetry ~sink_capacity ~profile ?monitor c w
    in
    print_result ~verbose:(verbose || explain) r;
    if telemetry then telemetry_view ~trace ~metrics r;
    Option.iter (profile_view ~topdown ~objects ~loops ~loop ~folded) r.profile;
    Option.iter (write_record c r) json;
    Option.iter (monitor_view ~jsonl ~max_latency r) r.monitor
  in
  Cmd.v
    (Cmd.info "run" ~exits
       ~doc:
         "Run one workload or MiniJava file under one configuration, \
          optionally with telemetry, the object-centric profiler and the \
          live windowed monitor.")
    Term.(
      const run $ target_arg
      $ with_faults
          ~caught:
            "$(b,run) itself catches $(b,monitor-desync) under $(b,--profile \
             --monitor): the profiler's conservation law breaks (exit 1). \
             The other faults are caught by $(b,diff), $(b,lint) and \
             $(b,fuzz)."
      $ flag [ "v"; "verbose" ] "Print per-loop prefetching reports."
      $ flag [ "explain" ]
          "Print per-loop decision provenance: candidate sites, observed \
           delta histograms, detected patterns, the emitted plan and the \
           rejection reasons (same reports as $(b,--verbose))."
      $ file_opt "trace"
          "Run with telemetry and write the event stream as Chrome \
           trace_event JSON (chrome://tracing, ui.perfetto.dev); also \
           prints the per-site effectiveness table."
      $ file_opt "metrics"
          "Run with telemetry and write the event stream as JSONL (one \
           event per line)."
      $ Arg.(
          value & opt int 65536
          & info [ "sink-capacity" ] ~docv:"N"
              ~doc:
                "Telemetry event-ring capacity; the oldest events are \
                 overwritten beyond it (the drop count is recorded).")
      $ flag [ "profile" ]
          "Run with the object-centric profiler and print the top-down \
           cycle accounting."
      $ flag [ "topdown" ]
          "Profiler: the bin summary and hottest pcs (the default view)."
      $ flag [ "objects" ]
          "Profiler: demand stall cycles keyed by the allocation site of \
           the referenced object."
      $ flag [ "loops" ]
          "Profiler: the per-loop rollup, joined with the pass's planned \
           actions."
      $ Arg.(
          value
          & opt (some int) None
          & info [ "loop" ] ~docv:"ID"
              ~doc:"Profiler: every profiled pc of loop $(docv), in pc order.")
      $ file_opt "folded"
          "Profiler: write flamegraph.pl collapsed stacks \
           (method;loop;pc:instr;bin count)."
      $ file_opt "json"
          "Profiler: write the run record (spf_run/v1: configuration, \
           profile, attribution totals and pass provenance) for \
           $(b,spf diff -a/-b)."
      $ flag [ "check-invariants" ]
          "Assert the attribution and profiler conservation laws inside the \
           harness (implies $(b,--profile)); a breach exits 1."
      $ flag [ "monitor" ]
          "Run with the live windowed monitor and print its dashboard."
      $ Arg.(
          value
          & opt (some int) None
          & info [ "window" ] ~docv:"CYCLES"
              ~doc:
                "Monitor window size in simulated cycles (default 262144); \
                 implies $(b,--monitor).")
      $ file_opt "jsonl"
          "Monitor: write the per-window time series as JSONL (implies \
           $(b,--monitor))."
      $ Arg.(
          value
          & opt (some int) None
          & info [ "max-latency" ] ~docv:"WINDOWS"
              ~doc:
                "Monitor: exit 1 unless a phase workload's planted shift is \
                 flagged Degraded within $(docv) windows (implies \
                 $(b,--monitor))."))

(* ---- compare ----------------------------------------------------------- *)

let compare_cmd =
  let run target c =
    let w = workload_of target in
    let one mode = harness_run { c with axes = { c.axes with mode } } w in
    let baseline = one O.Off in
    let inter = one O.Inter in
    let both = one O.Inter_intra in
    Printf.printf "%s on %s:\n" w.name (B.machine_of c.axes).Memsim.Config.name;
    Printf.printf "  BASELINE     %12d cycles\n" baseline.cycles;
    Printf.printf "  INTER        %12d cycles  %+.1f%%\n" inter.cycles
      (H.percent_speedup ~baseline inter);
    Printf.printf "  INTER+INTRA  %12d cycles  %+.1f%%\n" both.cycles
      (H.percent_speedup ~baseline both)
  in
  Cmd.v
    (Cmd.info "compare" ~exits
       ~doc:
         "Run BASELINE / INTER / INTER+INTRA under the configuration (its \
          $(b,--mode) is swept) and print the speedups.")
    Term.(const run $ target_arg $ config_term)

(* ---- diff -------------------------------------------------------------- *)

let diff_cmd =
  let rundata_of_live c w =
    record_of_run c (harness_run ~check:true ~profile:true c w)
  in
  (* A loaded record must be readable (exit 2 otherwise) and keep the
     profiler's conservation law (exit 1): a blame over a record whose
     bins do not sum to its cycles would explain nothing. *)
  let load f =
    match Diff.Rundata.load f with
    | Error e -> die exit_input "%s" e
    | Ok rd -> (
        match Profile.Report.conservation_error rd.Diff.Rundata.profile with
        | Some msg -> die exit_finding "%s: %s" f msg
        | None -> rd)
  in
  let emit_blame ~json ~top blame =
    print_string (Diff.Blame.render ~top blame);
    Option.iter
      (fun path ->
        write_json path (Diff.Blame.to_json blame);
        Printf.printf "blame JSON written to %s\n" path)
      json;
    Option.iter (die exit_finding "%s") (Diff.Blame.check blame)
  in
  let bisect ~expect_axis ~max_replays c w b =
    let replay axes = (harness_run ~check:true { c with axes } w).cycles in
    let outcome = B.run ~replay ~a:c.axes ~b in
    print_string (B.render ~a:c.axes ~b outcome);
    (match max_replays with
    | Some n when outcome.B.replays > n ->
        die exit_finding "bisection took %d replays (max %d)" outcome.B.replays
          n
    | _ -> ());
    match (expect_axis, outcome.B.responsible) with
    | None, _ -> ()
    | Some name, top :: _ when B.axis_of_name name = Some top -> ()
    | Some name, axes ->
        die exit_finding "expected responsible axis %s, bisection found [%s]"
          name
          (String.concat ", " (List.map B.axis_name axes))
  in
  let main c no_passes workload vs bisect_flag expect_axis max_replays a_file
      b_file json top =
    let c = { c with axes = { c.axes with passes = not no_passes } } in
    let workload () =
      match workload with
      | Some name -> workload_of name
      | None ->
          die Cmd.Exit.cli_error
            "need --workload with --vs (live diff), or -a/-b (recorded diff)"
    in
    let blame ~a ~b =
      emit_blame ~json ~top (Diff.Blame.build ~faults:c.faults ~a ~b ())
    in
    match (a_file, b_file) with
    | Some fa, Some fb -> blame ~a:(load fa) ~b:(load fb)
    | Some _, None | None, Some _ ->
        die Cmd.Exit.cli_error "-a and -b go together"
    | None, None -> (
        let w = workload () in
        let b =
          match vs with
          | None -> die Cmd.Exit.cli_error "a live diff needs --vs overrides"
          | Some spec -> (
              match B.apply_overrides c.axes spec with
              | Ok b -> b
              | Error e -> die Cmd.Exit.cli_error "%s" e)
        in
        if bisect_flag then bisect ~expect_axis ~max_replays c w b
        else
          blame ~a:(rundata_of_live c w)
            ~b:(rundata_of_live { c with axes = b } w))
  in
  let opt kind names docv doc =
    Arg.(value & opt (some kind) None & info names ~docv ~doc)
  in
  Cmd.v
    (Cmd.info "diff" ~exits
       ~doc:
         "Differential run diagnosis: blame a cycle delta between two runs \
          on loops, allocation sites, attribution classes and pass \
          decisions (the per-loop deltas plus the GC delta must equal the \
          total delta exactly), or bisect the configuration axes.")
    Term.(
      const main
      $ with_faults
          ~caught:
            "$(b,diff) catches $(b,diff-desync): the blame conservation law \
             breaks (exit 1)."
      $ flag [ "no-passes" ] "Disable the standard JIT passes in the base run."
      $ opt Arg.string [ "w"; "workload" ] "WORKLOAD"
          "Workload or MiniJava file to run (live diffs)."
      $ opt Arg.string [ "vs" ] "KEY=VALUE[,...]"
          "The B side: the base configuration with these axes overridden, \
           named like the flags: $(b,machine), $(b,mode), $(b,engine), \
           $(b,hw-prefetch), $(b,prediction), $(b,threshold) (int or \
           $(b,default)), $(b,phased), $(b,interprocedural) and \
           $(b,passes) (on/off; its base flag is $(b,--no-passes)). The \
           step budget $(b,--max-steps) is not an axis."
      $ flag [ "bisect" ]
          "Bisect the axes instead of profiling: replay intermediate \
           configurations and name the minimal responsible axis set."
      $ opt Arg.string [ "expect-axis" ] "AXIS"
          "With $(b,--bisect): exit 1 unless the top responsible axis is \
           $(docv)."
      $ opt Arg.int [ "max-replays" ] "N"
          "With $(b,--bisect): exit 1 if more than $(docv) replays were spent."
      $ opt Arg.string [ "a" ] "FILE"
          "Baseline run record, as written by $(b,spf run --json) \
           (spf_run/v1; the older spf_prof/v1 and spf_diff/v1 files load \
           too)."
      $ opt Arg.string [ "b" ] "FILE" "New run record to diff against $(b,-a)."
      $ file_opt "json" "Also write the blame report as JSON."
      $ Arg.(
          value & opt int 10
          & info [ "top" ] ~docv:"N" ~doc:"Rows per blame table."))

(* ---- lint -------------------------------------------------------------- *)

let seed_arg default =
  Arg.(
    value & opt int default
    & info [ "s"; "seed" ] ~docv:"SEED"
        ~doc:
          "Campaign seed: program $(i,i) is generated from derived seed \
           SEED+$(i,i), so $(b,spf fuzz --seed) SEED+$(i,i) $(b,--count 1) \
           replays it.")

let max_size_arg =
  Arg.(
    value & opt int 8
    & info [ "max-size" ] ~docv:"SIZE"
        ~doc:
          "Size budget of generated programs: scales classes, structures, \
           kernels and trip counts.")

let fuzz_workload ~seed ~max_size index : Workloads.Workload.t =
  let g = Fuzz.Gen.generate ~seed:(seed + index) ~max_size in
  {
    Workloads.Workload.name = Printf.sprintf "fuzz-%d" (seed + index);
    suite = `Specjvm;
    description = "generated program";
    paper_note = "";
    source = Fuzz.Gen.source g;
    heap_limit_bytes = g.Fuzz.Gen.heap_limit_bytes;
  }

(* Lint one (workload, machine, mode) cell; returns (methods, findings). *)
let lint_one ~run ~verbose (w : Workloads.Workload.t) (axes : B.config) =
  let opts = B.options axes and machine = B.machine_of axes in
  let name =
    Printf.sprintf "%s/%s/%s" w.name machine.Memsim.Config.name
      (O.mode_name axes.mode)
  in
  if verbose then Printf.printf "-- %s\n%!" name;
  match run axes w with
  | exception
      Jit.Pipeline.Verification_failed { pass_name; method_name; message } ->
      Printf.printf "[%s] %s failed verification after pass '%s':\n  %s\n" name
        method_name pass_name message;
      (0, 1)
  | (r : H.run_result) ->
      let require_guarded = O.use_guarded opts machine in
      let findings = ref 0 in
      Array.iter
        (fun (m : Vm.Classfile.method_info) ->
          List.iter
            (fun d ->
              incr findings;
              Printf.printf "[%s] %s\n" name (Analysis.Diag.render ~meth:m d))
            (Analysis.Check.check_method ~program:r.program ~reports:r.reports
               ~scheduling_distance:opts.O.scheduling_distance
               ~require_guarded m))
        r.program.Vm.Classfile.methods;
      (Array.length r.program.Vm.Classfile.methods, !findings)

(* Agreement mode: one run per workload x machine with the predictor
   attached but inspection at full depth, so every static claim has its
   inspected counterpart to be judged against. *)
let predict_run ~run ~verbose ~min_agreement ~machines workloads =
  let module P = Strideprefetch.Predict in
  let min_samples = O.default.O.min_samples in
  let all_rows = ref [] and scored = ref [] and disagreements = ref 0 in
  List.iter
    (fun (w : Workloads.Workload.t) ->
      let wrows = ref [] in
      List.iter
        (fun (axes : B.config) ->
          let cell = w.name ^ "/" ^ axes.machine.Memsim.Config.name in
          if verbose then Printf.printf "-- predict %s\n%!" cell;
          let (r : H.run_result) = run { axes with mode = O.Inter_intra } w in
          let rows =
            Strideprefetch.Pass.prediction_rows ~workload:w.name r.reports
          in
          wrows := !wrows @ rows;
          List.iter
            (fun (row : P.row) ->
              if P.classify ~min_samples row = P.Disagree then begin
                incr disagreements;
                let stride = function
                  | Some s -> Printf.sprintf "stride %d" s
                  | None -> "no dominant stride"
                in
                let d =
                  Analysis.Diag.warning ~checker:"predict-agreement"
                    ~pc:row.r_pc
                    "loop L%d site %d: static analysis predicted %s but %d \
                     inspected addresses concluded %s"
                    row.r_loop row.r_site (stride row.r_static)
                    row.r_observations (stride row.r_inspected)
                in
                match
                  Array.find_opt
                    (fun (m : Vm.Classfile.method_info) ->
                      m.method_name = row.r_method)
                    r.program.Vm.Classfile.methods
                with
                | Some m ->
                    Printf.printf "[%s] %s\n" cell
                      (Analysis.Diag.render ~meth:m d)
                | None ->
                    Printf.printf "[%s] %s: %s\n" cell row.r_method
                      (Analysis.Diag.render_plain d)
              end)
            rows)
        machines;
      all_rows := !all_rows @ !wrows;
      scored := (w.name, P.score ~min_samples !wrows) :: !scored)
    workloads;
  print_string (P.render_table (List.rev !scored));
  print_newline ();
  let total = P.score ~min_samples !all_rows in
  let pct = P.agreement_pct total in
  Printf.printf
    "spf lint --predict: %d site(s), %d claimed, %d disagreement(s), \
     agreement %.1f%%\n"
    total.P.sites total.P.claimed !disagreements pct;
  match min_agreement with
  | Some floor when pct < floor ->
      Printf.printf "spf lint: agreement %.1f%% is below the %.1f%% floor\n"
        pct floor;
      exit_finding
  | _ -> 0

let lint_cmd =
  let run workload fuzz seed max_size verify_each_pass verbose hw prediction
      faults predict min_agreement =
    let workloads =
      match workload with
      | None -> Workloads.Specjvm.all @ Workloads.Javagrande.all
      | Some name -> [ workload_of name ]
    in
    let workloads =
      workloads @ List.init fuzz (fuzz_workload ~seed ~max_size)
    in
    let run axes w =
      harness_run ~predict ~verify_each_pass
        { axes; max_steps = None; faults }
        w
    in
    let machines =
      List.map
        (fun machine -> { B.default_config with machine; hw; prediction })
        Memsim.Config.machines
    in
    if predict then
      exit (predict_run ~run ~verbose ~min_agreement ~machines workloads);
    let runs = ref 0 and methods = ref 0 and findings = ref 0 in
    List.iter
      (fun w ->
        List.iter
          (fun axes ->
            List.iter
              (fun mode ->
                let m, f = lint_one ~run ~verbose w { axes with B.mode } in
                incr runs;
                methods := !methods + m;
                findings := !findings + f)
              [ O.Off; O.Inter; O.Inter_intra ])
          machines)
      workloads;
    Printf.printf
      "spf lint: %d configuration(s), %d method bodies checked: %d finding(s)\n"
      !runs !methods !findings;
    if !findings > 0 then exit exit_finding
  in
  Cmd.v
    (Cmd.info "lint" ~exits
       ~doc:
         "Static analysis of prefetch-optimized bytecode: run workloads \
          across both machines and all three modes, then lint every \
          JIT-transformed method body with the type-state verifier, the \
          prefetch-safety checkers and the plan-aware lints. Any finding \
          exits 1.")
    Term.(
      const run
      $ Arg.(
          value
          & opt (some string) None
          & info [ "w"; "workload" ] ~docv:"WORKLOAD"
              ~doc:
                "Lint only this workload or file (default: the seed \
                 workloads).")
      $ Arg.(
          value & opt int 0
          & info [ "fuzz" ] ~docv:"N"
              ~doc:"Also lint $(docv) generated programs.")
      $ seed_arg 2026 $ max_size_arg
      $ flag [ "verify-each-pass" ]
          "Re-verify the method body after every JIT pass; the first finding \
           aborts compilation naming the offending pass."
      $ flag [ "v"; "verbose" ] "Print a line per configuration run."
      $ hw_arg $ prediction_arg
      $ inject_arg
          ~caught:
            "$(b,lint) catches $(b,skip-guard-dominance) (a guard-dominance \
             finding, exit 1)."
      $ flag [ "predict" ]
          "Agreement mode: score the address-algebra predictor's strides \
           against full dynamic inspection per LDG site; disagreements are \
           pc-level diagnostics, followed by a per-workload table."
      $ Arg.(
          value
          & opt (some float) None
          & info [ "min-agreement" ] ~docv:"PCT"
              ~doc:
                "With $(b,--predict): exit 1 if overall agreement falls \
                 below $(docv) percent."))

(* ---- fuzz -------------------------------------------------------------- *)

let fuzz_cmd =
  let run seed count max_size shrink shrink_attempts dump faults quiet =
    if dump then
      for index = 0 to count - 1 do
        let g = Fuzz.Gen.generate ~seed:(seed + index) ~max_size in
        Printf.printf "// seed %d (heap limit %d bytes)\n%s\n" (seed + index)
          g.Fuzz.Gen.heap_limit_bytes (Fuzz.Gen.source g)
      done
    else
      let progress ~index ~seed:_ =
        if (not quiet) && index > 0 && index mod 50 = 0 then
          Printf.printf "  ... %d programs checked\n%!" index
      in
      let campaign =
        Fuzz.Driver.run ~faults ~shrink ~shrink_attempts ~progress
          ~campaign_seed:seed ~count ~max_size ()
      in
      List.iter
        (fun (f : Fuzz.Driver.finding) ->
          if quiet then Printf.printf "FAIL seed=%d index=%d\n" f.seed f.index
          else Format.printf "%a@.@." Fuzz.Driver.pp_finding f)
        campaign.findings;
      Printf.printf
        "fuzz: %d program(s), %d cell(s) each, seed %d: %d failure(s)\n"
        campaign.programs_run campaign.cells_per_program campaign.campaign_seed
        (List.length campaign.findings);
      if campaign.findings <> [] then exit exit_finding
  in
  Cmd.v
    (Cmd.info "fuzz" ~exits
       ~doc:
         "Differential fuzzing: generated MiniJava programs must behave \
          identically with stride prefetching off and on, across the \
          machine, pipeline, engine, hardware-prefetcher, prediction-tier \
          and observer axes.")
    Term.(
      const run $ seed_arg 1
      $ Arg.(
          value & opt int 100
          & info [ "n"; "count" ] ~docv:"N"
              ~doc:"Number of programs to generate.")
      $ max_size_arg
      $ Arg.(
          value & opt bool true
          & info [ "shrink" ] ~docv:"BOOL"
              ~doc:"Minimize failing programs before reporting them.")
      $ Arg.(
          value & opt int 400
          & info [ "shrink-attempts" ] ~docv:"N"
              ~doc:"Budget of oracle invocations per shrink.")
      $ flag [ "dump" ] "Print each generated program instead of checking it."
      $ inject_arg
          ~caught:
            "$(b,fuzz)'s oracle has a cell for every fault and reports it \
             (exit 1) on any program that exercises the faulty path."
      $ flag [ "q"; "quiet" ] "Only print the summary line.")

let () =
  let info =
    Cmd.info "spf" ~version:"1.0" ~exits
      ~doc:
        "Stride prefetching by dynamically inspecting objects: simulator \
         driver."
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [ list_cmd; run_cmd; compare_cmd; diff_cmd; lint_cmd; fuzz_cmd ]))
