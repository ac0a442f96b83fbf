(* Workload and harness tests. Full benchmark runs live in `spf_bench paper`;
   here we verify that every workload compiles and that the harness
   machinery (speedup, output equality, fractions) behaves. *)

module W = Workloads.Workload
module H = Workloads.Harness

let all = Workloads.Specjvm.all @ Workloads.Javagrande.all

let test_twelve_workloads () =
  Alcotest.(check int) "twelve benchmarks (Table 3)" 12 (List.length all);
  let names = List.map (fun (w : W.t) -> w.name) all in
  List.iter
    (fun expected ->
      Alcotest.(check bool) (expected ^ " present") true
        (List.mem expected names))
    [
      "mtrt"; "jess"; "compress"; "db"; "mpegaudio"; "jack"; "javac";
      "Euler"; "MolDyn"; "MonteCarlo"; "RayTracer"; "Search";
    ]

let test_all_workloads_compile () =
  List.iter
    (fun (w : W.t) ->
      match Minijava.Compile.program_of_source w.source with
      | Ok program ->
          Alcotest.(check bool)
            (w.name ^ " has methods")
            true
            (Array.length program.methods > 0)
      | Error e ->
          Alcotest.failf "%s does not compile: %s" w.name
            (Minijava.Compile.string_of_error e))
    all

let tiny_workload =
  {
    W.name = "tiny";
    suite = `Specjvm;
    description = "harness test fixture";
    paper_note = "";
    heap_limit_bytes = 4 * 1024 * 1024;
    source =
      {|
class Node { int v; Node(int x) { v = x; } }
class T {
  static int walk(Node[] ns) {
    int acc = 0;
    for (int i = 0; i < ns.length; i = i + 1) { acc = acc + ns[i].v; }
    return acc;
  }
  static void main() {
    Node[] ns = new Node[500];
    for (int i = 0; i < 500; i = i + 1) { ns[i] = new Node(i); }
    int acc = 0;
    for (int r = 0; r < 5; r = r + 1) { acc = (acc + T.walk(ns)) % 9973; }
    print(acc);
  }
}
|};
  }

let test_harness_runs_and_checks_output () =
  let machine = Memsim.Config.pentium4 in
  let baseline =
    H.run ~mode:Strideprefetch.Options.Off ~machine tiny_workload
  in
  let optimized =
    H.run ~mode:Strideprefetch.Options.Inter_intra ~machine tiny_workload
  in
  Alcotest.(check string) "identical program output" baseline.output
    optimized.output;
  Alcotest.(check bool) "baseline cycles positive" true (baseline.cycles > 0);
  let s = H.speedup ~baseline optimized in
  Alcotest.(check bool) "speedup is finite and sane" true
    (s > 0.5 && s < 10.0);
  Alcotest.(check (float 1e-9)) "percent consistent"
    ((s -. 1.0) *. 100.0)
    (H.percent_speedup ~baseline optimized)

let test_harness_mode_recorded () =
  let machine = Memsim.Config.athlon_mp in
  let r = H.run ~mode:Strideprefetch.Options.Inter ~machine tiny_workload in
  Alcotest.(check bool) "mode" true (r.mode = Strideprefetch.Options.Inter);
  Alcotest.(check string) "machine" "AthlonMP" r.machine;
  Alcotest.(check bool) "methods compiled" true (r.methods_compiled > 0)

let test_harness_compiled_fraction () =
  let machine = Memsim.Config.pentium4 in
  let r = H.run ~mode:Strideprefetch.Options.Off ~machine tiny_workload in
  let f = H.compiled_fraction r in
  Alcotest.(check bool) "fraction in (0,1)" true (f > 0.0 && f < 1.0)

let test_harness_prefetch_overhead () =
  let machine = Memsim.Config.pentium4 in
  let r =
    H.run ~mode:Strideprefetch.Options.Inter_intra ~machine tiny_workload
  in
  let f = H.prefetch_overhead_fraction r in
  Alcotest.(check bool) "overhead fraction in [0,1)" true (f >= 0.0 && f < 1.0);
  Alcotest.(check bool) "prefetch pass timed" true
    (r.prefetch_pass_seconds >= 0.0)

let test_harness_rejects_output_mismatch () =
  let machine = Memsim.Config.pentium4 in
  let a = H.run ~mode:Strideprefetch.Options.Off ~machine tiny_workload in
  let forged = { a with H.output = "different\n"; cycles = 1 } in
  Alcotest.(check bool) "mismatch detected" true
    (try
       ignore (H.speedup ~baseline:a forged);
       false
     with Invalid_argument _ -> true)

let test_workload_determinism () =
  (* same workload, same machine, same mode: identical cycle counts *)
  let machine = Memsim.Config.pentium4 in
  let r1 = H.run ~mode:Strideprefetch.Options.Inter_intra ~machine tiny_workload in
  let r2 = H.run ~mode:Strideprefetch.Options.Inter_intra ~machine tiny_workload in
  Alcotest.(check int) "deterministic cycles" r1.cycles r2.cycles;
  Alcotest.(check string) "deterministic output" r1.output r2.output

let test_jess_outputs_agree_across_modes () =
  (* one real benchmark end-to-end on both machines and all three modes;
     the rest are covered by `spf_bench paper` *)
  let w = List.find (fun (w : W.t) -> w.name = "jess") all in
  List.iter
    (fun machine ->
      let baseline = H.run ~mode:Strideprefetch.Options.Off ~machine w in
      let inter = H.run ~mode:Strideprefetch.Options.Inter ~machine w in
      let both = H.run ~mode:Strideprefetch.Options.Inter_intra ~machine w in
      Alcotest.(check string) "INTER agrees" baseline.output inter.output;
      Alcotest.(check string) "INTER+INTRA agrees" baseline.output both.output)
    [ Memsim.Config.pentium4 ]

let suite =
  [
    ("the twelve benchmarks exist", `Quick, test_twelve_workloads);
    ("all workloads compile", `Quick, test_all_workloads_compile);
    ("harness: run + output equality", `Quick,
     test_harness_runs_and_checks_output);
    ("harness: metadata recorded", `Quick, test_harness_mode_recorded);
    ("harness: compiled fraction", `Quick, test_harness_compiled_fraction);
    ("harness: prefetch overhead fraction", `Quick,
     test_harness_prefetch_overhead);
    ("harness: output mismatch rejected", `Quick,
     test_harness_rejects_output_mismatch);
    ("harness: determinism", `Quick, test_workload_determinism);
    ("jess: modes agree end-to-end", `Slow, test_jess_outputs_agree_across_modes);
  ]

(* --- side-effect freedom of object inspection (fuzzing-oracle satellite) ---

   The JIT's object inspection executes bytecode against the real heap
   through a read-only shim; any write would be a correctness bug that the
   differential oracle might only catch probabilistically. Here it is
   checked directly: a bit-identical [`All]-scope snapshot (every live
   object with its address, every static) taken around every JIT
   compilation of every seed workload must be unchanged. *)

let test_inspection_leaves_heap_and_globals_intact () =
  let machine = Memsim.Config.pentium4 in
  List.iter
    (fun (w : W.t) ->
      let compilations = ref 0 in
      let observer ~meth ~before ~after =
        incr compilations;
        match Workloads.Observables.diff before after with
        | None -> ()
        | Some diff ->
            Alcotest.failf "%s: compiling %s changed the heap/statics: %s"
              w.W.name meth.Vm.Classfile.method_name diff
      in
      let r =
        H.run ~compile_observer:observer
          ~mode:Strideprefetch.Options.Inter_intra ~machine w
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s: something was compiled" w.W.name)
        true
        (!compilations > 0 && r.H.methods_compiled = !compilations))
    all

let side_effect_suite =
  [
    ("inspection leaves heap and globals bit-identical", `Slow,
     test_inspection_leaves_heap_and_globals_intact);
  ]

let suite = suite @ side_effect_suite
