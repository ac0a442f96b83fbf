(* Cross-engine bit-identity tests (DESIGN.md section 10).

   The switch engine (the reference fetch/decode loop) and the closure
   engine (direct-threaded, pre-compiled) implement one semantics; their
   contract is bit-identity in every observable — program output, cycle
   count, the full core stats vector, the interpreted/compiled split, GC
   activity. The closure engine batches step/cycle commits per basic
   block and caches the top of stack in a register, so these tests pin
   exactly the places where such batching could drift: observer
   specialization, GC compaction in mid-loop, and budget exhaustion
   (where the batched prologue must fall back to per-instruction
   accounting to die on precisely the same step). *)

module W = Workloads.Workload
module H = Workloads.Harness

let all_workloads = Workloads.Specjvm.all @ Workloads.Javagrande.all

let workload name =
  match List.find_opt (fun (w : W.t) -> w.name = name) all_workloads with
  | Some w -> w
  | None -> Alcotest.failf "no workload named %s" name

let check_same_run ~ctx (sw : H.run_result) (cl : H.run_result) =
  Alcotest.(check string) (ctx ^ ": output") sw.output cl.output;
  Alcotest.(check int) (ctx ^ ": cycles") sw.cycles cl.cycles;
  Alcotest.(check int)
    (ctx ^ ": interpreted_cycles")
    sw.interpreted_cycles cl.interpreted_cycles;
  Alcotest.(check int) (ctx ^ ": compiled_cycles") sw.compiled_cycles
    cl.compiled_cycles;
  Alcotest.(check int) (ctx ^ ": gc_count") sw.gc_count cl.gc_count;
  Alcotest.(check int) (ctx ^ ": methods_compiled") sw.methods_compiled
    cl.methods_compiled;
  Alcotest.(check int)
    (ctx ^ ": faulting_prefetches")
    sw.faulting_prefetches cl.faulting_prefetches;
  Alcotest.(check int) (ctx ^ ": spec_guard_trips") sw.spec_guard_trips
    cl.spec_guard_trips;
  List.iter2
    (fun (name_a, a) (name_b, b) ->
      Alcotest.(check string) (ctx ^ ": stats key order") name_a name_b;
      Alcotest.(check int) (ctx ^ ": stats " ^ name_a) a b)
    (Memsim.Stats.core_alist sw.stats)
    (Memsim.Stats.core_alist cl.stats)

(* Full matrix over two representative workloads (MonteCarlo exercises
   the JIT + prefetch path heavily, Euler is array/loop dense), both
   machines, prefetching off and fully on. *)
let test_bit_identity_matrix () =
  List.iter
    (fun name ->
      let w = workload name in
      List.iter
        (fun machine ->
          List.iter
            (fun mode ->
              let run engine = H.run ~engine ~mode ~machine w in
              let ctx =
                Printf.sprintf "%s/%s" name machine.Memsim.Config.name
              in
              check_same_run ~ctx (run Vm.Interp.Switch)
                (run Vm.Interp.Closure))
            [ Strideprefetch.Options.Off; Strideprefetch.Options.Inter_intra ])
        [ Memsim.Config.pentium4; Memsim.Config.athlon_mp ])
    [ "MonteCarlo"; "Euler" ]

(* The closure engine specializes its artifact on the observer
   fingerprint: with telemetry + profiling installed it compiles the
   instrumented per-instruction variant, without them the batched plain
   variant. Both must charge identical cycles — observation is free. *)
let test_observer_specialization_twins () =
  let w = workload "MonteCarlo" in
  let machine = Memsim.Config.athlon_mp in
  let mode = Strideprefetch.Options.Inter_intra in
  let plain = H.run ~engine:Vm.Interp.Closure ~mode ~machine w in
  let instrumented =
    H.run ~engine:Vm.Interp.Closure ~telemetry:true ~profile:true ~mode
      ~machine w
  in
  check_same_run ~ctx:"observer twins" plain instrumented

(* A workload sized to overflow its heap limit repeatedly while the hot
   loop is executing: compaction rewrites every simulated address (and
   flushes caches and DTLB) between two iterations of a closure-compiled
   block. The engines must agree on when collections happen and on every
   cycle before and after. *)
let gc_churn =
  {
    W.name = "gc_churn";
    suite = `Specjvm;
    description = "engine test fixture: compaction under a running loop";
    paper_note = "";
    heap_limit_bytes = 24 * 1024;
    source =
      {|
class Node { int v; Node next; Node(int x) { v = x; next = null; } }
class T {
  static int churn(int n) {
    int acc = 0;
    Node keep = new Node(7);
    for (int i = 0; i < n; i = i + 1) {
      Node t = new Node(i);
      t.next = keep;
      acc = (acc + t.v + t.next.v) % 9973;
    }
    return acc;
  }
  static void main() {
    int acc = 0;
    for (int r = 0; r < 6; r = r + 1) { acc = (acc + T.churn(800)) % 9973; }
    print(acc);
  }
}
|};
  }

let test_gc_compaction_mid_loop () =
  let machine = Memsim.Config.athlon_mp in
  let mode = Strideprefetch.Options.Inter_intra in
  let run engine = H.run ~engine ~mode ~machine gc_churn in
  let sw = run Vm.Interp.Switch in
  let cl = run Vm.Interp.Closure in
  Alcotest.(check bool)
    "collections actually happened" true (sw.gc_count > 0);
  check_same_run ~ctx:"gc churn" sw cl

(* Budget exhaustion must be exact: the closure engine pre-commits a
   whole block's steps at the block head, so a budget that would expire
   inside the block has to be detected up front and the block re-run
   through the per-instruction fallback chain — [Budget_exhausted] then
   fires on precisely the same step as the reference engine. *)
let budget_source =
  {|
class T {
  static void main() {
    int acc = 0;
    for (int i = 0; i > -1; i = i + 1) { acc = (acc + i) % 65536; }
    print(acc);
  }
}
|}

let run_out_of_budget engine max_steps =
  let program = Helpers.compile budget_source in
  let machine = Memsim.Config.pentium4 in
  let options =
    { (Vm.Interp.default_options machine) with Vm.Interp.max_steps; engine }
  in
  let interp = Vm.Interp.create ~options machine program in
  match Vm.Interp.run interp with
  | _ -> Alcotest.fail "expected Budget_exhausted"
  | exception Vm.Interp.Budget_exhausted budget ->
      (budget, Vm.Interp.steps interp, Vm.Interp.stats interp)

let test_budget_exhaustion_is_engine_invariant () =
  (* Several budgets so expiry lands at different offsets inside the
     loop's basic block. *)
  List.iter
    (fun max_steps ->
      let b_sw, steps_sw, stats_sw =
        run_out_of_budget Vm.Interp.Switch max_steps
      in
      let b_cl, steps_cl, stats_cl =
        run_out_of_budget Vm.Interp.Closure max_steps
      in
      let ctx = Printf.sprintf "max_steps=%d" max_steps in
      Alcotest.(check int) (ctx ^ ": payload") max_steps b_sw;
      Alcotest.(check int) (ctx ^ ": payloads agree") b_sw b_cl;
      Alcotest.(check int) (ctx ^ ": steps at raise") steps_sw steps_cl;
      Alcotest.(check int)
        (ctx ^ ": retired at raise")
        stats_sw.Memsim.Stats.retired_instructions
        stats_cl.Memsim.Stats.retired_instructions)
    [ 1000; 1001; 1002; 1003; 1004; 1005; 1006 ]

(* Two closure runs of the same cell from fresh states: the artifact
   compiler and the simulation must be fully deterministic. *)
let test_rerun_determinism () =
  let w = workload "MonteCarlo" in
  let machine = Memsim.Config.pentium4 in
  let mode = Strideprefetch.Options.Inter_intra in
  let a = H.run ~engine:Vm.Interp.Closure ~mode ~machine w in
  let b = H.run ~engine:Vm.Interp.Closure ~mode ~machine w in
  check_same_run ~ctx:"rerun" a b

(* Prefetch-site attribution across engines. The closure engine's
   instrumented prefetch handlers memoise their dense site id; the switch
   engine resolves it through the registry on every fire. Both must give
   the same id -> key map and the same per-site counters. *)
let show_books books =
  List.mapi
    (fun id (key, (c : Memsim.Attribution.site_counters)) ->
      Format.asprintf
        "%d %a: issued=%d cancelled=%d redundant=%d redundant_hw=%d \
         useful=%d late=%d useless=%d"
        id Telemetry.Attrib.pp_key key c.issued c.cancelled c.redundant
        c.redundant_hw c.useful c.late c.useless)
    books

let check_same_books ~ctx sw cl =
  Alcotest.(check (list string)) ctx (show_books sw) (show_books cl)

let has_kind books p = List.exists (fun (key, _) -> p key) books

let is_inter = function Telemetry.Attrib.Inter_site _ -> true | _ -> false
let is_spec = function Telemetry.Attrib.Spec_site _ -> true | _ -> false

let is_indirect = function
  | Telemetry.Attrib.Indirect_site _ -> true
  | _ -> false

let is_dynamic = function
  | Telemetry.Attrib.Dynamic_site _ -> true
  | _ -> false

(* Under INTER+INTRA on Pentium4, db fires spec and indirect prefetches
   and Euler fires inter ones. *)
let test_site_ids_engine_invariant () =
  let books engine name =
    let r =
      H.run ~engine ~telemetry:true ~mode:Strideprefetch.Options.Inter_intra
        ~machine:Memsim.Config.pentium4 (workload name)
    in
    List.map
      (fun (row : Workloads.Effectiveness.site_row) ->
        (row.key, row.counters))
      (Option.get r.effectiveness).rows
  in
  let fired =
    List.concat_map
      (fun name ->
        let sw = books Vm.Interp.Switch name in
        check_same_books ~ctx:(name ^ " site books") sw
          (books Vm.Interp.Closure name);
        sw)
      [ "db"; "Euler" ]
  in
  List.iter
    (fun (kind, p) ->
      Alcotest.(check bool) ("fires " ^ kind) true (has_kind fired p))
    [ ("inter", is_inter); ("spec", is_spec); ("indirect", is_indirect) ]

(* The phased configuration fires [Prefetch_dynamic]. Telemetry is armed
   twice on one interpreter, with a fresh registry each time: the second
   run reuses the closure engine's compiled handlers, whose memoised ids
   belong to the first registry and must not leak into the second. *)
let rearmed_books engine =
  let program = Helpers.compile Test_strideprefetch.phased_workload_source in
  let machine = Memsim.Config.pentium4 in
  let options = { (Vm.Interp.default_options machine) with Vm.Interp.engine } in
  let interp = Vm.Interp.create ~options machine program in
  let opts =
    {
      Strideprefetch.Options.(with_mode Inter_intra default) with
      Strideprefetch.Options.enable_phased = true;
    }
  in
  let pipeline =
    Jit.Pipeline.create
      (Jit.Pipeline.standard_passes ()
      @ [ Strideprefetch.Pass.make_pass ~opts ~interp () ])
  in
  Vm.Interp.set_compile_hook interp (fun _ m args ->
      Jit.Pipeline.compile pipeline m args);
  let arm () =
    let registry = Telemetry.Attrib.create () in
    Vm.Interp.set_telemetry interp ~registry ();
    ignore (Vm.Interp.run interp);
    Vm.Interp.finalize_telemetry interp;
    let attrib = Option.get (Vm.Interp.attribution interp) in
    List.init (Telemetry.Attrib.n_sites registry) (fun id ->
        ( Telemetry.Attrib.key_of_id registry id,
          Memsim.Attribution.site_counters attrib id ))
  in
  let first = arm () in
  let second = arm () in
  (first, second)

let test_site_ids_rearmed_registry () =
  let sw1, sw2 = rearmed_books Vm.Interp.Switch in
  let cl1, cl2 = rearmed_books Vm.Interp.Closure in
  Alcotest.(check bool) "phased fires dynamic" true (has_kind sw1 is_dynamic);
  Alcotest.(check bool)
    "second registry sees the dynamic site" true (has_kind sw2 is_dynamic);
  check_same_books ~ctx:"first registry" sw1 cl1;
  check_same_books ~ctx:"fresh registry on the same interpreter" sw2 cl2

let suite =
  [
    Alcotest.test_case "bit-identity: workload x machine x mode" `Slow
      test_bit_identity_matrix;
    Alcotest.test_case "observer specialization twins" `Slow
      test_observer_specialization_twins;
    Alcotest.test_case "GC compaction mid-loop" `Quick
      test_gc_compaction_mid_loop;
    Alcotest.test_case "budget exhaustion is engine-invariant" `Quick
      test_budget_exhaustion_is_engine_invariant;
    Alcotest.test_case "re-run determinism" `Quick test_rerun_determinism;
    Alcotest.test_case "prefetch site ids: inter, spec, indirect" `Slow
      test_site_ids_engine_invariant;
    Alcotest.test_case "prefetch site ids: dynamic, re-armed registry"
      `Quick test_site_ids_rearmed_registry;
  ]
