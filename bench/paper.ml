(* The paper's evaluation: every table and figure (DESIGN.md section 4
   indexes them), an ablation sweep, and bechamel microbenchmarks of the
   compiler machinery. Each experiment declares the simulation cells it
   reads; spf_bench's paper subcommand runs them all once, deduplicated,
   on the Domain pool, and the experiments then only print from the
   finished matrix. Simulated cycle counts are independent of --jobs. *)

module SP = Strideprefetch
module W = Workloads.Workload
module H = Workloads.Harness
module Runner = Bench_runner.Runner

(* The finished matrix: the result of a cell an experiment declared. *)
type lookup = Runner.cell -> H.run_result

let specjvm_names = List.map (fun (w : W.t) -> w.name) Workloads.Specjvm.all

let heading title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

let subheading title = Printf.printf "\n-- %s --\n" title

let speedup_percent (run : lookup) w machine mode =
  let baseline = run (Runner.cell w machine SP.Options.Off) in
  H.percent_speedup ~baseline (run (Runner.cell w machine mode))

(* ------------------------------------------------------------------ *)
(* Table 1: the load instructions of findInMemory. *)

let kernel_and_infos () =
  let program = Workloads.Figure1.compile () in
  let meth =
    Option.get (Vm.Classfile.find_method program Workloads.Figure1.kernel_name)
  in
  let infos =
    Jit.Stack_model.analyze meth.code ~arity:meth.arity
      ~callee_arity:(fun m -> (Vm.Classfile.method_of_id program m).arity)
      ~callee_returns:(fun m ->
        (Vm.Classfile.method_of_id program m).returns_value)
  in
  (program, meth, infos)

let table1 () =
  heading "Table 1: load instructions in the findInMemory() method";
  let _, meth, infos = kernel_and_infos () in
  Printf.printf "%-6s %-20s %s\n" "Load" "Memory address" "instruction";
  for site = 0 to meth.n_sites - 1 do
    let instr =
      Array.to_list meth.code
      |> List.find_opt (fun i -> List.mem site (Vm.Bytecode.all_sites i))
    in
    Printf.printf "%-6s %-20s %s\n"
      (Printf.sprintf "L%d" site)
      (Workloads.Figure1.describe_site infos site)
      (match instr with Some i -> Vm.Bytecode.to_string i | None -> "?")
  done

(* ------------------------------------------------------------------ *)

let table2 () =
  heading "Table 2: parameters related to prefetching";
  Printf.printf "%-10s %-8s %-9s %-8s %-9s %-6s %s\n" "Processor" "L1(KB)"
    "L1 line" "L2(KB)" "L2 line" "#DTLB" "prefetch target";
  List.iter
    (fun (m : Memsim.Config.machine) ->
      Printf.printf "%-10s %-8d %-9d %-8d %-9d %-6d %s\n" m.name
        (m.l1.size_bytes / 1024) m.l1.line_bytes (m.l2.size_bytes / 1024)
        m.l2.line_bytes m.dtlb.entries
        (match m.prefetch_target with
        | Memsim.Config.To_l2 -> "L2"
        | Memsim.Config.To_l1 -> "L1"))
    Runner.machines

(* ------------------------------------------------------------------ *)

let table3 (run : lookup) =
  heading "Table 3: benchmarks and % of cycles in compiled code (Pentium 4)";
  Printf.printf "%-11s %-10s %-14s %s\n" "Program" "Suite" "Compiled (%)"
    "Description";
  List.iter
    (fun (w : W.t) ->
      let r = run (Runner.cell w Memsim.Config.pentium4 SP.Options.Off) in
      Printf.printf "%-11s %-10s %-14.1f %s\n" w.name
        (if List.mem w.name specjvm_names then "SPECjvm98" else "JavaGrande")
        (100.0 *. H.compiled_fraction r)
        w.description)
    Runner.workloads

(* ------------------------------------------------------------------ *)
(* Figures 3 and 4: the generated prefetching code, INTER vs INTER+INTRA. *)

let optimized_kernel mode machine =
  let program = Workloads.Figure1.compile () in
  let opts = SP.Options.with_mode mode SP.Options.default in
  let interp = Vm.Interp.create machine program in
  let reports = ref [] in
  let pipeline =
    Jit.Pipeline.create
      (Jit.Pipeline.standard_passes ()
      @
      match mode with
      | SP.Options.Off -> []
      | _ ->
          [
            SP.Pass.make_pass ~opts ~interp
              ~report_sink:(fun r -> reports := !reports @ r)
              ();
          ])
  in
  Vm.Interp.set_compile_hook interp (fun _ m args ->
      Jit.Pipeline.compile pipeline m args);
  ignore (Vm.Interp.run interp);
  let meth =
    Option.get (Vm.Classfile.find_method program Workloads.Figure1.kernel_name)
  in
  (meth, !reports)

let fig34 () =
  heading "Figures 3 & 4: generated prefetching code for findInMemory";
  subheading "Figure 3 analogue: INTER only (Wu-style, in-loop loads)";
  let meth, _ = optimized_kernel SP.Options.Inter Memsim.Config.pentium4 in
  Format.printf "%a@." Vm.Classfile.pp_method meth;
  subheading "Figure 4 analogue: INTER+INTRA (dereference + intra-stride)";
  let meth, reports =
    optimized_kernel SP.Options.Inter_intra Memsim.Config.pentium4
  in
  Format.printf "%a@." Vm.Classfile.pp_method meth;
  subheading "per-loop pass reports";
  List.iter (fun r -> Format.printf "%a@." SP.Pass.pp_report r) reports

(* ------------------------------------------------------------------ *)

let fig5 () =
  heading "Figure 5: load dependence graph for findInMemory";
  let _, meth, infos = kernel_and_infos () in
  let sites = List.init meth.n_sites Fun.id in
  let ldg = SP.Ldg.build infos ~sites in
  Format.printf "%a@." SP.Ldg.pp ldg;
  subheading "GraphViz rendering";
  print_string
    (SP.Ldg.to_dot ldg ~labels:(fun site ->
         Printf.sprintf "L%d: %s" site
           (Workloads.Figure1.describe_site infos site)))

(* ------------------------------------------------------------------ *)

let speedup_figure ~figure ~machine (run : lookup) =
  heading
    (Printf.sprintf "Figure %s: speedup ratios on the %s" figure
       machine.Memsim.Config.name);
  Printf.printf "%-11s %12s %12s\n" "Program" "INTER" "INTER+INTRA";
  List.iter
    (fun (w : W.t) ->
      Printf.printf "%-11s %+11.1f%% %+11.1f%%\n" w.name
        (speedup_percent run w machine SP.Options.Inter)
        (speedup_percent run w machine SP.Options.Inter_intra))
    Runner.workloads

(* ------------------------------------------------------------------ *)

let mpi_figure ~figure ~label ~extract (run : lookup) =
  heading
    (Printf.sprintf "Figure %s: %s on the Pentium 4 (x1000)" figure label);
  Printf.printf "%-11s %12s %12s\n" "Program" "BASELINE" "INTER+INTRA";
  List.iter
    (fun (w : W.t) ->
      let base = run (Runner.cell w Memsim.Config.pentium4 SP.Options.Off) in
      let opt =
        run (Runner.cell w Memsim.Config.pentium4 SP.Options.Inter_intra)
      in
      Printf.printf "%-11s %12.3f %12.3f\n" w.name
        (1000.0 *. extract base.H.stats)
        (1000.0 *. extract opt.H.stats))
    Runner.workloads

(* ------------------------------------------------------------------ *)

let fig11 (run : lookup) =
  heading "Figure 11: compilation time of the prefetching pass (Pentium 4)";
  Printf.printf "%-11s %10s %15s %15s %12s\n" "Program" "methods"
    "prefetch (ms)" "rest of JIT(ms)" "per hot method";
  let worst_per_method = ref 0.0 in
  List.iter
    (fun (w : W.t) ->
      let r =
        run (Runner.cell w Memsim.Config.pentium4 SP.Options.Inter_intra)
      in
      let per_method =
        if r.methods_compiled = 0 then 0.0
        else 1000.0 *. r.prefetch_pass_seconds /. float_of_int r.methods_compiled
      in
      if per_method > !worst_per_method then worst_per_method := per_method;
      Printf.printf "%-11s %10d %15.3f %15.3f %9.3f ms\n" w.name
        r.methods_compiled
        (1000.0 *. r.prefetch_pass_seconds)
        (1000.0
        *. (r.total_compile_seconds -. r.prefetch_pass_seconds))
        per_method)
    Runner.workloads;
  Printf.printf
    "\nWorst-case prefetch-pass cost: %.3f ms per hot method.\n\
     The paper reports the pass adds < 3.0%% to total JIT compilation time\n\
     and < 0.4%% to total execution time. A ratio against OUR baseline\n\
     pipeline would be meaningless: this reproduction's non-prefetch JIT\n\
     work (CFG/loops/fold/inline) is a deliberately thin stand-in, tens of\n\
     microseconds per method, where the IBM JIT's full compilation\n\
     (native code generation, register allocation, inlining, ...) runs\n\
     milliseconds to tens of milliseconds per hot method. Against such a\n\
     baseline, the measured sub-millisecond pass cost is the same order\n\
     as the paper's < 3%% claim. EXPERIMENTS.md discusses this further.\n"
    !worst_per_method

(* ------------------------------------------------------------------ *)
(* Ablation: knob sweeps on the Pentium 4, expressed as custom-opts
   cells so they run on the same Domain pool as everything else. Each
   section is (title, workload, mode, [(label, knobs)]); speedups are
   against the workload's BASELINE. *)

let ablation_sections =
  let d = SP.Options.default in
  let iterations =
    List.map
      (fun n ->
        (Printf.sprintf "%2d iterations" n, { d with inspect_iterations = n }))
      [ 5; 10; 20; 40 ]
  and distances =
    List.map
      (fun c -> (Printf.sprintf "c = %d" c, { d with scheduling_distance = c }))
      [ 1; 2; 4 ]
  and majorities =
    List.map
      (fun m -> (Printf.sprintf "majority %.2f" m, { d with majority = m }))
      [ 0.5; 0.75; 0.95 ]
  in
  [
    ("db: INTER+INTRA speedup vs inspected iterations", "db",
     SP.Options.Inter_intra, iterations);
    ("db: INTER+INTRA speedup vs scheduling distance c", "db",
     SP.Options.Inter_intra, distances);
    ("Euler: INTER speedup vs scheduling distance c", "Euler",
     SP.Options.Inter, distances);
    ("jess: majority threshold", "jess", SP.Options.Inter_intra, majorities);
  ]

let ablation_cells =
  List.concat_map
    (fun (_, name, mode, points) ->
      let w = Runner.workload name and p4 = Memsim.Config.pentium4 in
      Runner.cell w p4 SP.Options.Off
      :: List.map (fun (_, opts) -> Runner.cell ~opts w p4 mode) points)
    ablation_sections

let ablation (run : lookup) =
  heading "Ablation: inspected iterations and scheduling distance (Pentium 4)";
  List.iter
    (fun (title, name, mode, points) ->
      let w = Runner.workload name and p4 = Memsim.Config.pentium4 in
      let baseline = run (Runner.cell w p4 SP.Options.Off) in
      subheading title;
      List.iter
        (fun (label, opts) ->
          Printf.printf "  %s: %+6.1f%%\n" label
            (H.percent_speedup ~baseline (run (Runner.cell ~opts w p4 mode))))
        points)
    ablation_sections

(* ------------------------------------------------------------------ *)
(* Bechamel microbenchmarks of the compiler-side machinery. *)

let micro ~smoke () =
  heading "Microbenchmarks (bechamel): compiler-side costs";
  let program, meth, infos = kernel_and_infos () in
  let cfg_built = Jit.Cfg.build meth.code in
  let forest = Jit.Loops.analyze cfg_built in
  let target = List.hd (List.rev (Jit.Loops.postorder forest)) in
  (* a populated interpreter for object inspection *)
  let interp = Vm.Interp.create Memsim.Config.pentium4 program in
  ignore (Vm.Interp.run interp);
  let opts = SP.Options.default in
  let args =
    let heap = Vm.Interp.heap interp in
    let node = ref Vm.Value.Null
    and tv = ref Vm.Value.Null
    and tok = ref Vm.Value.Null in
    let class_id name =
      (Option.get (Vm.Classfile.find_class program name)).Vm.Classfile.class_id
    in
    Vm.Heap.iter_ids_in_address_order heap (fun id ->
        match Vm.Heap.class_id_of heap id with
        | Some c when c = class_id "Node2" -> node := Vm.Value.Ref id
        | Some c when c = class_id "TokenVector" -> tv := Vm.Value.Ref id
        | Some c when c = class_id "Token" && !tok = Vm.Value.Null ->
            tok := Vm.Value.Ref id
        | _ -> ());
    [| !node; !tv; !tok |]
  in
  let fresh_meth () =
    Vm.Classfile.make_method ~method_id:meth.method_id
      ~method_name:meth.method_name ~arity:meth.arity
      ~returns_value:meth.returns_value ~max_locals:meth.max_locals
      ~code:(Array.copy meth.original_code)
  in
  let tests =
    [
      Bechamel.Test.make ~name:"cfg+dominators+loops"
        (Bechamel.Staged.stage (fun () ->
             let cfg = Jit.Cfg.build meth.code in
             let idom = Jit.Dominators.compute cfg in
             ignore (Jit.Loops.analyze cfg);
             ignore idom));
      Bechamel.Test.make ~name:"stack-model"
        (Bechamel.Staged.stage (fun () ->
             ignore
               (Jit.Stack_model.analyze meth.code ~arity:meth.arity
                  ~callee_arity:(fun m ->
                    (Vm.Classfile.method_of_id program m).arity)
                  ~callee_returns:(fun m ->
                    (Vm.Classfile.method_of_id program m).returns_value))));
      Bechamel.Test.make ~name:"ldg-build"
        (Bechamel.Staged.stage (fun () ->
             ignore
               (SP.Ldg.build infos ~sites:(List.init meth.n_sites Fun.id))));
      Bechamel.Test.make ~name:"object-inspection"
        (Bechamel.Staged.stage (fun () ->
             ignore
               (SP.Inspection.inspect ~program ~heap:(Vm.Interp.heap interp)
                  ~globals:(Vm.Interp.global interp) ~opts ~cfg:cfg_built
                  ~forest ~target ~meth ~args)));
      Bechamel.Test.make ~name:"whole-prefetch-pass"
        (Bechamel.Staged.stage (fun () ->
             let m = fresh_meth () in
             ignore (SP.Pass.run ~opts ~interp ~meth:m ~args ())));
      Bechamel.Test.make ~name:"stride-detection-1k"
        (Bechamel.Staged.stage
           (let records = List.init 1000 (fun i -> (i, 4096 + (i * 60))) in
            fun () -> ignore (SP.Stride.inter ~opts records)));
      Bechamel.Test.make ~name:"cache-sim-4k-accesses"
        (Bechamel.Staged.stage
           (let hier = Memsim.Hierarchy.create Memsim.Config.pentium4 in
            fun () ->
              for i = 0 to 4095 do
                ignore
                  (Memsim.Hierarchy.demand_access hier ~pc:0
                     ~addr:(i * 64 * 7) ~kind:`Load ~now:i)
              done));
    ]
  in
  let open Bechamel in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let benchmark_cfg =
    (* The smoke config (dune runtest) only checks the harness runs end to
       end; the quota is slashed so the whole alias stays well under 30s. *)
    if smoke then
      Benchmark.cfg ~limit:50 ~quota:(Time.second 0.02) ~stabilize:false ()
    else Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:false ()
  in
  Printf.printf "%-26s %16s\n" "benchmark" "time/run";
  List.iter
    (fun test ->
      let results = Benchmark.all benchmark_cfg [ instance ] test in
      Hashtbl.iter
        (fun name raw ->
          let ols_result = Analyze.one ols instance raw in
          match Analyze.OLS.estimates ols_result with
          | Some [ ns ] ->
              let pretty =
                if smoke then "ok"
                else if ns > 1e6 then Printf.sprintf "%10.3f ms" (ns /. 1e6)
                else if ns > 1e3 then Printf.sprintf "%10.3f us" (ns /. 1e3)
                else Printf.sprintf "%10.0f ns" ns
              in
              Printf.printf "%-26s %16s\n" name pretty
          | _ -> Printf.printf "%-26s %16s\n" name "n/a")
        results)
    tests

(* ------------------------------------------------------------------ *)
(* Experiment index, in paper order, with the cells each one reads. *)

type experiment = {
  name : string;
  needs : Runner.cell list;
  print : lookup -> unit;
}

let matrix_cells ~machine ~modes =
  List.concat_map
    (fun (w : W.t) -> List.map (fun mode -> Runner.cell w machine mode) modes)
    Runner.workloads

let experiments ~smoke =
  let p4 = Memsim.Config.pentium4 in
  let printing name print = { name; needs = []; print } in
  let matrix name ~machine ~modes print =
    { name; needs = matrix_cells ~machine ~modes; print }
  in
  let mpi name ~figure ~label ~extract =
    matrix name ~machine:p4 ~modes:[ SP.Options.Off; SP.Options.Inter_intra ]
      (mpi_figure ~figure ~label ~extract)
  in
  [
    printing "table1" (fun _ -> table1 ());
    printing "table2" (fun _ -> table2 ());
    matrix "table3" ~machine:p4 ~modes:[ SP.Options.Off ] table3;
    printing "fig34" (fun _ -> fig34 ());
    printing "fig5" (fun _ -> fig5 ());
    matrix "fig6" ~machine:p4 ~modes:Runner.modes
      (speedup_figure ~figure:"6" ~machine:p4);
    matrix "fig7" ~machine:Memsim.Config.athlon_mp ~modes:Runner.modes
      (speedup_figure ~figure:"7" ~machine:Memsim.Config.athlon_mp);
    mpi "fig8" ~figure:"8" ~label:"L1 cache load MPI"
      ~extract:Memsim.Stats.l1_load_mpi;
    mpi "fig9" ~figure:"9" ~label:"L2 cache load MPI"
      ~extract:Memsim.Stats.l2_load_mpi;
    mpi "fig10" ~figure:"10" ~label:"DTLB load MPI"
      ~extract:Memsim.Stats.dtlb_load_mpi;
    matrix "fig11" ~machine:p4 ~modes:[ SP.Options.Inter_intra ] fig11;
    { name = "ablation"; needs = ablation_cells; print = ablation };
    printing "micro" (fun _ -> micro ~smoke ());
  ]
