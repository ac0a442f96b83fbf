(* The repository benchmark's measuring program. One invocation runs one
   workload serially in this process and prints one JSON document on
   stdout; perfbench/run.py checks it against the committed references and
   turns it into the benchmark's metrics. See README.md for the workloads,
   the metrics and how each layer is timed.

   Every cell builds a fresh interpreter and memory hierarchy, so the
   simulated caches start empty in every cell. There is no Domain pool:
   the figures measure the simulator, not a scheduler. *)

module H = Workloads.Harness
module O = Strideprefetch.Options
module J = Telemetry.Json

let now = Unix.gettimeofday

(* ------------------------------------------------------------------ *)
(* Cells                                                                *)

type cell = {
  label : string;
  workload : Workloads.Workload.t;
  machine : Memsim.Config.machine;
  mode : O.mode;
  observed : bool;  (** run with the profiler and the live monitor *)
  mutable reference : (string, string) result option;
      (** jit-storm: output of a switch-engine run without JIT passes, or
          why that run failed *)
  mutable baseline_cycles : int option;  (** jit-storm: BASELINE twin *)
}

let make_cell ?(observed = false) (workload : Workloads.Workload.t) machine
    mode =
  {
    label =
      String.concat "/"
        [ workload.name; machine.Memsim.Config.name; O.mode_name mode ];
    workload;
    machine;
    mode;
    observed;
    reference = None;
    baseline_cycles = None;
  }

let p4 = Memsim.Config.pentium4
let athlon = Memsim.Config.athlon_mp
let workloads = [ "mem-bound"; "dispatch-bound"; "jit-storm"; "observed" ]

(* jit-storm's program count, and its i-th program's generator seed: a
   fixed function of the run's seed. *)
let programs = 1000
let program_seed seed i = (seed * 100_003) + i

let storm_cell seed i =
  let g = Fuzz.Gen.generate ~seed:(program_seed seed i) ~max_size:8 in
  let workload =
    {
      Workloads.Workload.name = Printf.sprintf "gen%d" g.seed;
      suite = `Specjvm;
      description = "generated program";
      paper_note = "";
      source = Fuzz.Gen.source g;
      heap_limit_bytes = g.heap_limit_bytes;
    }
  in
  make_cell workload p4 O.Inter_intra

(* The named workloads are fixed programs; the seed picks only jit-storm's
   programs. *)
let cells_of name ~seed =
  let open Workloads in
  match name with
  | "mem-bound" ->
      List.concat_map
        (fun w ->
          List.concat_map
            (fun m -> [ make_cell w m O.Off; make_cell w m O.Inter_intra ])
            [ p4; athlon ])
        [ Specjvm.db; Specjvm.javac ]
  | "dispatch-bound" ->
      List.map
        (fun w -> make_cell w p4 O.Inter_intra)
        [ Specjvm.mtrt; Specjvm.jess; Javagrande.search; Javagrande.montecarlo ]
  | "observed" ->
      List.map
        (fun w -> make_cell ~observed:true w p4 O.Inter_intra)
        [ Specjvm.db; Javagrande.euler ]
  | "jit-storm" -> List.init programs (storm_cell seed)
  | other -> invalid_arg ("unknown workload " ^ other)

(* The cell each named workload runs once, untimed, at the end of set-up:
   its cheapest one. *)
let warm_up_label = function
  | "mem-bound" -> Some "javac/Pentium4/BASELINE"
  | "dispatch-bound" -> Some "MonteCarlo/Pentium4/INTER+INTRA"
  | "observed" -> Some "Euler/Pentium4/INTER+INTRA"
  | _ -> None

let harness_run (c : cell) =
  if c.observed then
    H.run ~profile:true ~monitor:Monitor.Collector.default_window_cycles
      ~mode:c.mode ~machine:c.machine c.workload
  else H.run ~mode:c.mode ~machine:c.machine c.workload

let error_of_exn e = Error (Printexc.to_string e)

(* ------------------------------------------------------------------ *)
(* Checking every run of every cell                                     *)

type outcome = {
  cycles : int;
  output : string;
  insns : int;  (** simulated instructions retired *)
  faulting : int;  (** faulting prefetches; must be 0 *)
}

type tally = {
  mutable first : (int * string) option;  (** cycles, output digest *)
  mutable runs : int;
  mutable failed : int;
  mutable why : string list;
}

let tallies : (string, tally) Hashtbl.t = Hashtbl.create 64

let tally_of (c : cell) =
  match Hashtbl.find_opt tallies c.label with
  | Some t -> t
  | None ->
      let t = { first = None; runs = 0; failed = 0; why = [] } in
      Hashtbl.add tallies c.label t;
      t

(* A run fails on an exception (step-budget exhaustion included), a
   faulting prefetch, output that differs from the jit-storm reference,
   or cycles/output that differ from the cell's first run: untraced,
   traced, capture and plain-twin runs of a cell must all agree
   bit-for-bit. The committed references are checked by run.py. *)
let judge (c : cell) (r : (outcome, string) result) =
  let t = tally_of c in
  t.runs <- t.runs + 1;
  let failure =
    match r with
    | Error msg -> Some msg
    | Ok o -> (
        let digest = Digest.to_hex (Digest.string o.output) in
        if o.faulting <> 0 then
          Some (Printf.sprintf "%d faulting prefetches" o.faulting)
        else
          match (c.reference, t.first) with
          | Some (Error msg), _ -> Some ("reference run failed: " ^ msg)
          | Some (Ok out), _ when out <> o.output ->
              Some "output differs from the reference run"
          | _, None ->
              t.first <- Some (o.cycles, digest);
              None
          | _, Some (cycles, d) when cycles <> o.cycles || d <> digest ->
              Some
                (Printf.sprintf "cycles %d or output differ from first run (%d)"
                   o.cycles cycles)
          | _, Some _ -> None)
  in
  match failure with
  | None -> ()
  | Some why ->
      t.failed <- t.failed + 1;
      if List.length t.why < 3 then t.why <- why :: t.why

(* ------------------------------------------------------------------ *)
(* Set-up                                                               *)

(* Everything before the first timed pass: build the inputs, compute the
   jit-storm references (output of a switch-engine run with no JIT pass;
   cycles of a BASELINE twin) and, for a named workload, run its cheapest
   cell once. *)
let set_up name ~seed =
  let cells = cells_of name ~seed in
  List.iter (fun c -> ignore (Workloads.Workload.compile c.workload)) cells;
  (match warm_up_label name with
  | Some label -> (
      match List.find_opt (fun c -> c.label = label) cells with
      | Some c -> ( try ignore (harness_run c) with _ -> ())
      | None -> ())
  | None ->
      List.iter
        (fun c ->
          c.reference <-
            Some
              (match
                 H.run ~engine:Vm.Interp.Switch ~standard_passes:false
                   ~mode:O.Off ~machine:c.machine c.workload
               with
              | r -> Ok r.output
              | exception e -> error_of_exn e);
          c.baseline_cycles <-
            (match H.run ~mode:O.Off ~machine:c.machine c.workload with
            | r -> Some r.cycles
            | exception _ -> None))
        cells);
  cells

(* ------------------------------------------------------------------ *)
(* Host-speed calibration                                               *)

(* On a host shared with other work the CPU's speed drifts by tens of
   percent over tens of seconds: more than the regressions the benchmark
   must catch. So every set-up and every pass also times a fixed kernel,
   and run.py reports end-to-end times at the kernel's reference speed
   (raw seconds x [kernel_reference_s] / the kernel sample taken before
   them). The kernel is the benchmark's own code, so no change to the
   simulator moves it, and it does not allocate, so the OCaml heap does
   not move it either. It chases a pseudo-random chain through 4 MiB, as
   the simulator's tables and heap make it do. *)
let kernel_reference_s = 0.008
let chain_size = 1 lsl 19

let chain =
  Array.init chain_size (fun i -> ((i * 7919) + 13) land (chain_size - 1))

let scratch = Array.make 4096 0

let kernel () =
  let x = ref 0 and acc = ref 0 in
  for i = 1 to 200_000 do
    x := chain.(!x lxor (i land 1023));
    (acc := !acc + if !x land 1 = 0 then !x else - !x);
    scratch.(!x land 4095) <- !acc
  done

(* The untimed first round brings the chain back into the caches the
   cell before it evicted, so the timed round does not depend on how much
   memory the simulator touched. *)
let kernel_s () =
  kernel ();
  let start = now () in
  kernel ();
  now () -. start

(* ------------------------------------------------------------------ *)
(* Untraced passes: Harness.run, exactly as every other tool calls it   *)

type pass = {
  cell_s : float list;  (** host seconds of each cell, kernel samples excluded *)
  kernel_s : float list;  (** for each cell, the kernel sample taken before it *)
  insns : int;
  sim_cycles : int;
}

let wall p = List.fold_left ( +. ) 0. p.cell_s

(* About ten kernel samples per pass, spread between the cells. *)
let untraced_pass cells =
  let every = max 1 (List.length cells / 10) in
  let kernel = ref 0. and cell_s = ref [] and kernels = ref [] in
  let insns = ref 0 and sim_cycles = ref 0 in
  List.iteri
    (fun i c ->
      if i mod every = 0 then kernel := kernel_s ();
      let start = now () in
      let r = try Ok (harness_run c) with e -> error_of_exn e in
      cell_s := (now () -. start) :: !cell_s;
      kernels := !kernel :: !kernels;
      judge c
        (Result.map
           (fun (r : H.run_result) ->
             insns := !insns + r.stats.retired_instructions;
             sim_cycles := !sim_cycles + r.cycles;
             {
               cycles = r.cycles;
               output = r.output;
               insns = r.stats.retired_instructions;
               faulting = r.faulting_prefetches;
             })
           r))
    cells;
  {
    cell_s = List.rev !cell_s;
    kernel_s = List.rev !kernels;
    insns = !insns;
    sim_cycles = !sim_cycles;
  }

(* ------------------------------------------------------------------ *)
(* The traced wiring                                                    *)

(* What one wired run yields beyond its outcome. *)
type wired = {
  outcome : outcome;
  steps : int;
  stats : Memsim.Stats.t;
  gc_count : int;
  gc_cycles : int;
  methods : int;
  reports : Strideprefetch.Pass.loop_report list;
  alloc_words : float;  (** host minor words allocated during [Interp.run] *)
  events : int;
  dropped : int;
  windows : int;
  issued : int;
  useful : int;
  demand_misses : int;
}

(* Harness.run rebuilt from the libraries' public functions, with a span
   around every call into a library. It must reproduce Harness.run's
   cycles and output bit-for-bit, which [judge] checks on every run.
   [observe] installs the telemetry sink, the object profiler and the
   live monitor as Harness.run's [~profile:true ~monitor] does; [capture]
   records every demand load. *)
let wired_run ?(observe = false) ?capture (c : cell) =
  let span = Span.record in
  let opts = O.with_mode c.mode O.default in
  let machine = c.machine in
  let program =
    span ~layer:"minijava" ~name:"program_of_source" (fun () ->
        Minijava.Compile.program_of_source_exn c.workload.source)
  in
  let options =
    {
      (Vm.Interp.default_options machine) with
      Vm.Interp.heap_limit_bytes = c.workload.heap_limit_bytes;
    }
  in
  let interp =
    span ~layer:"vm" ~name:"create" (fun () ->
        Vm.Interp.create ~options machine program)
  in
  let sink, registry =
    if observe then
      span ~layer:"telemetry" ~name:"set_telemetry" (fun () ->
          let sink = Telemetry.Sink.create () in
          let registry = Telemetry.Attrib.create () in
          Vm.Interp.set_telemetry interp ~registry ~sink ();
          (Some sink, Some registry))
    else (None, None)
  in
  let collector =
    if observe then
      Some (span ~layer:"profile" ~name:"create" Profile.Collector.create)
    else None
  in
  let mon =
    if observe then
      Some
        (span ~layer:"monitor" ~name:"create" (fun () ->
             Monitor.Collector.create ?registry ?sink
               ~window_cycles:Monitor.Collector.default_window_cycles interp))
    else None
  in
  (match (collector, mon) with
  | Some col, Some m ->
      Vm.Interp.set_profile interp
        (Vm.Interp.combine_profile_hooks
           (Profile.Collector.hooks col)
           (Monitor.Collector.hooks m))
  | _ -> ());
  let reports = ref [] in
  let timed layer (p : Jit.Pipeline.pass) =
    {
      p with
      apply =
        (fun m args -> span ~layer ~name:p.pass_name (fun () -> p.apply m args));
    }
  in
  let passes =
    List.map (timed "jit") (Jit.Pipeline.standard_passes ())
    @
    match c.mode with
    | O.Off -> []
    | O.Inter | O.Inter_intra ->
        [
          timed "strideprefetch"
            (Strideprefetch.Pass.make_pass ~opts ~interp
               ~report_sink:(fun r -> reports := !reports @ r)
               ?registry ?sink ());
        ]
  in
  let span_hook =
    Option.map
      (fun s ~name ~meth f ->
        Telemetry.Sink.span s ~cat:"jit" ~args:[ ("method", J.Str meth) ] name f)
      sink
  in
  let pipeline =
    Jit.Pipeline.create ?span:span_hook
      ~on_mutate:(fun m ->
        span ~layer:"vm" ~name:"precompile" (fun () ->
            Vm.Interp.precompile_method interp m))
      passes
  in
  Vm.Interp.set_compile_hook interp (fun _ m args ->
      span ~layer:"jit" ~name:"compile" (fun () ->
          Jit.Pipeline.compile pipeline m args));
  Option.iter
    (fun buf ->
      Vm.Interp.set_load_observer interp (fun ~method_id ~site ~addr ->
          Loads.add buf
            ~pc:((method_id lsl 16) lor site)
            ~addr ~now:(Vm.Interp.stats interp).cycles))
    capture;
  let words = Gc.minor_words () in
  span ~layer:"vm" ~name:"run" (fun () -> ignore (Vm.Interp.run interp));
  let alloc_words = Gc.minor_words () -. words in
  if observe then
    span ~layer:"telemetry" ~name:"finalize_telemetry" (fun () ->
        Vm.Interp.finalize_telemetry interp);
  Option.iter
    (fun m -> span ~layer:"monitor" ~name:"finalize" (fun () ->
         Monitor.Collector.finalize m))
    mon;
  let stats = Memsim.Stats.copy (Vm.Interp.stats interp) in
  let attrib = Vm.Interp.attribution interp in
  let issued, useful, demand_misses =
    match (registry, attrib) with
    | Some registry, Some attrib ->
        let e =
          span ~layer:"telemetry" ~name:"effectiveness" (fun () ->
              Workloads.Effectiveness.build ~registry ~attrib)
        in
        ( e.totals.issued,
          e.totals.useful,
          List.fold_left
            (fun acc (_, m) -> acc + m)
            0
            (Memsim.Attribution.demand_miss_buckets attrib) )
    | _ -> (0, 0, 0)
  in
  Option.iter
    (fun col ->
      ignore
        (span ~layer:"profile" ~name:"report" (fun () ->
             Profile.Report.build ~program ~reports:!reports
               ~cycles:stats.cycles col)))
    collector;
  Option.iter
    (fun s ->
      span ~layer:"telemetry" ~name:"final-stats" (fun () ->
          Telemetry.Sink.counter s ~cat:"stats" "final-stats"
            (List.map
               (fun (k, v) -> (k, J.Int v))
               (Memsim.Stats.to_alist stats))))
    sink;
  let windows =
    match mon with
    | Some m ->
        ignore
          (span ~layer:"monitor" ~name:"report" (fun () ->
               Monitor.Collector.report m));
        Monitor.Collector.n_windows m
    | None -> 0
  in
  {
    outcome =
      {
        cycles = stats.cycles;
        output = Vm.Interp.output interp;
        insns = stats.retired_instructions;
        faulting = Vm.Interp.faulting_prefetches interp;
      };
    steps = Vm.Interp.steps interp;
    stats;
    gc_count = Vm.Interp.gc_count interp;
    gc_cycles = Vm.Interp.gc_cycles interp;
    methods = Jit.Pipeline.methods_compiled pipeline;
    reports = !reports;
    alloc_words;
    events = Option.fold ~none:0 ~some:Telemetry.Sink.total_events sink;
    dropped = Option.fold ~none:0 ~some:Telemetry.Sink.dropped sink;
    windows;
    issued;
    useful;
    demand_misses;
  }

(* ------------------------------------------------------------------ *)
(* Traced passes                                                        *)

let run_ids = ref 0

(* One wired run of [c] as its own span tree; the outermost span is the
   cell, whose self time is the run's unattributed residual. *)
let traced_cell ?(observe = false) ?capture c =
  incr run_ids;
  Span.start_run !run_ids ~cell:c.label
    ~kind:
      (if capture <> None then "capture"
       else if c.observed && not observe then "plain-twin"
       else "traced");
  let r =
    match
      Span.record ~layer:"cell" ~name:c.label (fun () ->
          wired_run ~observe ?capture c)
    with
    | w -> Ok w
    | exception e -> error_of_exn e
  in
  judge c (Result.map (fun w -> w.outcome) r);
  r

(* Per cell, from the one capture run: demand loads seen and the best of
   three replays. *)
type replay = { loads : int; replay_s : float }

let capture_and_replay cells =
  let replays = Hashtbl.create 16 in
  List.iter
    (fun c ->
      let buf = Loads.create () in
      match traced_cell ~capture:buf c with
      | Ok _ ->
          let best =
            List.fold_left min infinity
              (List.init 3 (fun _ -> Loads.replay c.machine buf))
          in
          Hashtbl.replace replays c.label
            { loads = Loads.count buf; replay_s = best }
      | Error _ -> ())
    cells;
  replays

(* Per-cell host-time ledger of one traced run: layer self times plus the
   unattributed residual add up to [wall]. The memory simulator runs
   inside [Interp.run], so its replay estimate is carved out of [vm]; so
   is the in-run cost of the observers (observed run minus plain twin). *)
type ledger = {
  cell : string;
  wall : float;
  layers : (string * float) list;
}

let layer_names =
  [ "minijava"; "jit"; "strideprefetch"; "vm"; "telemetry"; "profile"; "monitor" ]

(* Summed over the cells of one traced pass. *)
type acc = {
  mutable wall_s : float;
  mutable source_bytes : int;
  mutable minijava_s : float;
  mutable jit_passes_s : float;
  mutable compile_s : float;
  mutable spf_s : float;
  mutable exec_s : float;
  mutable plain_exec_s : float;  (** [exec_s] minus the observers' in-run cost *)
  mutable twin_exec_s : float;
  mutable observed_exec_s : float;
  mutable layer_s : (string * float) list;
  mutable steps : int;
  mutable alloc_words : float;
  mutable methods : int;
  mutable gc_count : int;
  mutable gc_cycles : int;
  mutable reports : Strideprefetch.Pass.loop_report list;
  mutable stats : Memsim.Stats.t;
  mutable events : int;
  mutable dropped : int;
  mutable windows : int;
  mutable issued : int;
  mutable useful : int;
  mutable demand_misses : int;
  mutable ledgers : ledger list;
}

let new_acc () =
  {
    wall_s = 0.;
    source_bytes = 0;
    minijava_s = 0.;
    jit_passes_s = 0.;
    compile_s = 0.;
    spf_s = 0.;
    exec_s = 0.;
    plain_exec_s = 0.;
    twin_exec_s = 0.;
    observed_exec_s = 0.;
    layer_s = [];
    steps = 0;
    alloc_words = 0.;
    methods = 0;
    gc_count = 0;
    gc_cycles = 0;
    reports = [];
    stats = Memsim.Stats.create ();
    events = 0;
    dropped = 0;
    windows = 0;
    issued = 0;
    useful = 0;
    demand_misses = 0;
    ledgers = [];
  }

let add_layers acc (l : ledger) =
  acc.layer_s <-
    List.map
      (fun (name, s) ->
        (name, s +. Option.value ~default:0. (List.assoc_opt name acc.layer_s)))
      l.layers

let traced_pass cells replays =
  let acc = new_acc () in
  List.iter
    (fun c ->
      match traced_cell ~observe:c.observed c with
      | Error _ -> ()
      | Ok w ->
          (* Read the run's span totals before the plain twin starts a new
             run and resets them. *)
          let self = List.map (fun l -> (l, Span.layer_self l)) layer_names in
          let unattributed = Span.layer_self "cell" in
          let wall = Span.duration "cell" c.label in
          let exec = Span.self "vm" "run" in
          let jit_passes = Span.layer_self "jit" -. Span.self "jit" "compile" in
          let compile = Span.duration "jit" "compile" in
          let minijava = Span.layer_self "minijava" in
          let spf = Span.layer_self "strideprefetch" in
          let observers =
            if c.observed then (
              match traced_cell c with
              | Ok _ ->
                  let twin = Span.self "vm" "run" in
                  acc.twin_exec_s <- acc.twin_exec_s +. twin;
                  acc.observed_exec_s <- acc.observed_exec_s +. exec;
                  Float.max 0. (exec -. twin)
              | Error _ -> 0.)
            else 0.
          in
          let memsim =
            match Hashtbl.find_opt replays c.label with
            | Some r -> Float.min r.replay_s (exec -. observers)
            | None -> 0.
          in
          let ledger =
            {
              cell = c.label;
              wall;
              layers =
                List.map
                  (fun (l, s) ->
                    if l = "vm" then (l, s -. memsim -. observers) else (l, s))
                  self
                @ [
                    ("memsim", memsim);
                    ("observers_in_run", observers);
                    ("unattributed", unattributed);
                  ];
            }
          in
          acc.wall_s <- acc.wall_s +. wall;
          acc.source_bytes <- acc.source_bytes + String.length c.workload.source;
          acc.minijava_s <- acc.minijava_s +. minijava;
          acc.jit_passes_s <- acc.jit_passes_s +. jit_passes;
          acc.compile_s <- acc.compile_s +. compile;
          acc.spf_s <- acc.spf_s +. spf;
          acc.exec_s <- acc.exec_s +. exec;
          acc.plain_exec_s <- acc.plain_exec_s +. exec -. observers;
          acc.steps <- acc.steps + w.steps;
          acc.alloc_words <- acc.alloc_words +. w.alloc_words;
          acc.methods <- acc.methods + w.methods;
          acc.gc_count <- acc.gc_count + w.gc_count;
          acc.gc_cycles <- acc.gc_cycles + w.gc_cycles;
          acc.reports <- List.rev_append w.reports acc.reports;
          acc.stats <- Memsim.Stats.add acc.stats w.stats;
          acc.events <- acc.events + w.events;
          acc.dropped <- acc.dropped + w.dropped;
          acc.windows <- acc.windows + w.windows;
          acc.issued <- acc.issued + w.issued;
          acc.useful <- acc.useful + w.useful;
          acc.demand_misses <- acc.demand_misses + w.demand_misses;
          add_layers acc ledger;
          acc.ledgers <- ledger :: acc.ledgers)
    cells;
  acc

let ratio a b = if b = 0. then 0. else a /. b

(* The per-layer metrics of one traced pass, by name. *)
let layer_values acc replays ~untraced_wall =
  let f = float_of_int in
  let replay_s, loads =
    Hashtbl.fold
      (fun _ r (s, n) -> (s +. r.replay_s, n + r.loads))
      replays (0., 0)
  in
  let reports = acc.reports in
  let count p = List.length (List.filter p reports) in
  let sum g = List.fold_left (fun a r -> a + g r) 0 reports in
  let s = acc.stats in
  let share name =
    ( "share." ^ name,
      ratio (Option.value ~default:0. (List.assoc_opt name acc.layer_s)) acc.wall_s
    )
  in
  [
    ("minijava.compile_s", acc.minijava_s);
    ("minijava.kb_per_s", ratio (f acc.source_bytes /. 1024.) acc.minijava_s);
    ("jit.passes_s", acc.jit_passes_s);
    ("jit.us_per_method", 1e6 *. ratio acc.compile_s (f acc.methods));
    ("jit.methods_compiled", f acc.methods);
    ("spf.pass_s", acc.spf_s);
    ("spf.compile_overhead", ratio acc.spf_s acc.compile_s);
    ("spf.inspection_steps", f (sum (fun r -> r.inspection_steps)));
    ("spf.loops_inspected", f (count (fun r -> r.inspection_steps > 0)));
    ( "spf.prefetch_actions",
      f (sum (fun r -> List.length r.plan.Strideprefetch.Codegen.actions)) );
    ("vm.exec_s", acc.exec_s);
    ("vm.ns_per_step", 1e9 *. ratio acc.exec_s (f acc.steps));
    ("vm.alloc_words_per_step", ratio acc.alloc_words (f acc.steps));
    ("vm.steps", f acc.steps);
    ("vm.gc_count", f acc.gc_count);
    ("vm.gc_sim_cycles", f acc.gc_cycles);
    ("memsim.replay_s", replay_s);
    ("memsim.ns_per_load", 1e9 *. ratio replay_s (f loads));
    ("memsim.share", ratio replay_s acc.plain_exec_s);
    ("memsim.loads_per_step", ratio (f loads) (f acc.steps));
    ("memsim.l1_misses", f (s.l1_load_misses + s.l1_store_misses));
    ("memsim.l2_misses", f (s.l2_load_misses + s.l2_store_misses));
    ("memsim.dtlb_misses", f (s.dtlb_load_misses + s.dtlb_store_misses));
    ("memsim.sw_prefetches", f s.sw_prefetches);
    ("memsim.hw_prefetches", f s.hw_prefetches);
    ("observe.slowdown", ratio acc.observed_exec_s acc.twin_exec_s);
    ("telemetry.events", f acc.events);
    ("telemetry.dropped", f acc.dropped);
    ("monitor.windows", f acc.windows);
    ("memsim.prefetch_accuracy", ratio (f acc.useful) (f acc.issued));
    ( "memsim.prefetch_coverage",
      ratio (f acc.useful) (f (acc.useful + acc.demand_misses)) );
    ("trace.overhead", ratio acc.wall_s untraced_wall);
    ("trace.wall_s", acc.wall_s);
  ]
  @ List.map share
      [
        "minijava"; "jit"; "strideprefetch"; "vm"; "memsim"; "telemetry";
        "profile"; "monitor"; "observers_in_run"; "unattributed";
      ]

(* ------------------------------------------------------------------ *)
(* Output                                                               *)

let peak_rss_mb () =
  match In_channel.with_open_text "/proc/self/status" In_channel.input_all with
  | status ->
      List.find_map
        (fun line ->
          Scanf.sscanf_opt line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.))
        (String.split_on_char '\n' status)
      |> Option.value ~default:0.
  | exception Sys_error _ -> 0.

let floats l = J.List (List.map (fun x -> J.Float x) l)

let cell_json c =
  let t = tally_of c in
  J.Obj
    ([
       ("label", J.Str c.label);
       ("workload", J.Str c.workload.name);
       ("machine", J.Str c.machine.name);
       ("mode", J.Str (O.mode_name c.mode));
       ("runs", J.Int t.runs);
       ("failed", J.Int t.failed);
       ("why", J.List (List.rev_map (fun s -> J.Str s) t.why));
     ]
    @ (match t.first with
      | Some (cycles, digest) ->
          [ ("cycles", J.Int cycles); ("output_md5", J.Str digest) ]
      | None -> [])
    @
    match c.baseline_cycles with
    | Some b -> [ ("baseline_cycles", J.Int b) ]
    | None -> [])

let ledger_json (l : ledger) =
  J.Obj
    [
      ("cell", J.Str l.cell);
      ("wall_s", J.Float l.wall);
      ("layers_s", J.Obj (List.map (fun (k, v) -> (k, J.Float v)) l.layers));
    ]

let write_spans path =
  let oc = open_out path in
  List.iter
    (fun (s : Span.t) ->
      output_string oc
        (J.to_string
           (J.Obj
              [
                ("run", J.Int s.run);
                ("cell", J.Str s.cell);
                ("kind", J.Str s.kind);
                ("layer", J.Str s.layer);
                ("name", J.Str s.name);
                ("start", J.Float s.start);
                ("stop", J.Float s.stop);
                ("self", J.Float s.self);
              ]));
      output_char oc '\n')
    (List.rev !Span.kept);
  close_out oc

(* ------------------------------------------------------------------ *)
(* Main                                                                 *)

(* The committed references of a named workload: each cell's cycles and
   output digest from Harness.run, and the cycles of its BASELINE twin. *)
let reference_doc name =
  let md5 s = Digest.to_hex (Digest.string s) in
  J.Obj
    [
      ( "cells",
        J.Obj
          (List.map
             (fun c ->
               let r = harness_run c in
               let base = H.run ~mode:O.Off ~machine:c.machine c.workload in
               ( c.label,
                 J.Obj
                   [
                     ("cycles", J.Int r.cycles);
                     ("output_md5", J.Str (md5 r.output));
                     ("baseline_cycles", J.Int base.cycles);
                   ] ))
             (cells_of name ~seed:0)) );
    ]

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 in
  let reference = ref false in
  let trace = ref 0 and spans = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " " ^ String.concat "|" workloads);
      ("--seed", Arg.Set_int seed, " input seed");
      ("--seconds", Arg.Set_float seconds, " how long to measure");
      ("--trace", Arg.Set_int trace, " 0: end-to-end run, 1: traced run");
      ("--spans", Arg.Set_string spans, " file for the first traced pass's spans");
      ("--reference", Arg.Set reference, " print the committed references");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload W --seed N --seconds S --trace 0|1";
  if not (List.mem !workload workloads) then begin
    prerr_endline ("bench.exe: unknown workload " ^ !workload);
    exit 2
  end;
  if !reference then begin
    print_endline (J.to_string (reference_doc !workload));
    exit 0
  end;
  (* Set up several times, each between two kernel samples; setup_s is
     the median. *)
  let setups = ref [] and cells = ref [] in
  for _ = 1 to 3 do
    let before = kernel_s () in
    let start = now () in
    cells := set_up !workload ~seed:!seed;
    let took = now () -. start in
    setups := (took, (before +. kernel_s ()) /. 2.) :: !setups
  done;
  let setups = List.rev !setups in
  let cells = !cells in
  let start = now () in
  let elapsed () = now () -. start in
  let untraced = ref [] and traced = ref [] in
  if !trace = 0 then
    while !untraced = [] || elapsed () < !seconds do
      untraced := untraced_pass cells :: !untraced
    done
  else begin
    untraced := [ untraced_pass cells ];
    let replays = capture_and_replay cells in
    while !traced = [] || elapsed () < !seconds do
      Span.keep := !traced = [];
      let acc = traced_pass cells replays in
      Span.keep := false;
      let u = List.hd !untraced in
      traced := (acc, layer_values acc replays ~untraced_wall:(wall u)) :: !traced;
      if elapsed () < !seconds then untraced := untraced_pass cells :: !untraced
    done
  end;
  if !spans <> "" then write_spans !spans;
  let untraced = List.rev !untraced and traced = List.rev !traced in
  let doc =
    J.Obj
      [
        ("workload", J.Str !workload);
        ("seed", J.Int !seed);
        ("ocaml_version", J.Str Sys.ocaml_version);
        ("kernel_reference_s", J.Float kernel_reference_s);
        ("setup_s", floats (List.map fst setups));
        ("setup_kernel_s", floats (List.map snd setups));
        ("pass_cell_s", J.List (List.map (fun p -> floats p.cell_s) untraced));
        ( "pass_kernel_s",
          J.List (List.map (fun p -> floats p.kernel_s) untraced) );
        ( "pass_insns",
          J.List (List.map (fun (p : pass) -> J.Int p.insns) untraced) );
        ( "pass_sim_cycles",
          J.List (List.map (fun (p : pass) -> J.Int p.sim_cycles) untraced) );
        ("peak_rss_mb", J.Float (peak_rss_mb ()));
        ("cells", J.List (List.map cell_json cells));
        ( "traced",
          J.List
            (List.map
               (fun (_, values) ->
                 J.Obj (List.map (fun (k, v) -> (k, J.Float v)) values))
               traced) );
        ( "ledger",
          match traced with
          | (acc, _) :: _ -> J.List (List.rev_map ledger_json acc.ledgers)
          | [] -> J.List [] );
      ]
  in
  print_endline (J.to_string doc)
