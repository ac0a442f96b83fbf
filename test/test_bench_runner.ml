(* Tests for the parallel bench-matrix runner (bench/runner.ml) and for the
   hot-path overhaul's core invariant: simulated cycle counts are a pure
   function of the (workload, machine, mode) cell — independent of the
   Domain pool size, and bit-identical to the values recorded from the
   pre-overhaul simulator. *)

module R = Bench_runner.Runner
module W = Workloads.Workload
module H = Workloads.Harness
module SP = Strideprefetch
module S = Memsim.Stats

let small_chase =
  {
    W.name = "tiny-chase";
    suite = `Specjvm;
    description = "runner test fixture: pointer chase";
    paper_note = "";
    heap_limit_bytes = 4 * 1024 * 1024;
    source =
      {|
class Node { int v; Node next; Node(int x) { v = x; next = null; } }
class T {
  static void main() {
    Node head = new Node(0);
    Node cur = head;
    for (int i = 1; i < 400; i = i + 1) {
      cur.next = new Node(i);
      cur = cur.next;
    }
    int acc = 0;
    for (int r = 0; r < 6; r = r + 1) {
      Node p = head;
      while (p != null) { acc = (acc + p.v) % 9973; p = p.next; }
    }
    print(acc);
  }
}
|};
  }

let small_walk =
  {
    W.name = "tiny-walk";
    suite = `Javagrande;
    description = "runner test fixture: array walk";
    paper_note = "";
    heap_limit_bytes = 4 * 1024 * 1024;
    source =
      {|
class Cell { int v; Cell(int x) { v = x; } }
class T {
  static void main() {
    Cell[] cs = new Cell[600];
    for (int i = 0; i < 600; i = i + 1) { cs[i] = new Cell(i * 3); }
    int acc = 0;
    for (int r = 0; r < 5; r = r + 1) {
      for (int i = 0; i < 600; i = i + 1) { acc = (acc + cs[i].v) % 7919; }
    }
    print(acc);
  }
}
|};
  }

(* All seventeen counters, in the canonical mli order, so two stats blocks
   can be compared field-for-field in one list equality. *)
let stats_fields (s : S.t) =
  [
    s.loads; s.stores; s.l1_load_misses; s.l1_store_misses; s.l2_load_misses;
    s.l2_store_misses; s.dtlb_load_misses; s.dtlb_store_misses;
    s.in_flight_hits; s.sw_prefetches; s.sw_prefetches_cancelled;
    s.sw_prefetch_useless; s.guarded_loads; s.hw_prefetches;
    s.retired_instructions; s.cycles; s.stall_cycles;
  ]

let test_cells () =
  let p4 = Memsim.Config.pentium4 and amp = Memsim.Config.athlon_mp in
  [
    R.cell small_chase p4 SP.Options.Off;
    R.cell small_chase p4 SP.Options.Inter_intra;
    R.cell small_walk amp SP.Options.Off;
    R.cell small_walk amp SP.Options.Inter_intra;
    R.cell
      ~opts:{ SP.Options.default with SP.Options.scheduling_distance = 2 }
      small_chase p4 SP.Options.Inter;
  ]

let test_parallel_matches_serial () =
  let cells = test_cells () in
  let serial = R.run_matrix ~jobs:1 cells in
  let parallel = R.run_matrix ~jobs:2 cells in
  Alcotest.(check int) "cell count" (List.length serial)
    (List.length parallel);
  List.iter2
    (fun (a : R.timed) (b : R.timed) ->
      let label = R.key (R.id a.cell) in
      Alcotest.(check string) (label ^ ": input order preserved") label
        (R.key (R.id b.cell));
      Alcotest.(check int)
        (label ^ ": cycles identical")
        a.result.H.cycles b.result.H.cycles;
      Alcotest.(check string)
        (label ^ ": output identical")
        a.result.H.output b.result.H.output;
      Alcotest.(check (list int))
        (label ^ ": all stats counters identical")
        (stats_fields a.result.H.stats)
        (stats_fields b.result.H.stats))
    serial parallel

let test_progress_and_clamping () =
  let cells = [ R.cell small_walk Memsim.Config.pentium4 SP.Options.Off ] in
  let seen = ref 0 in
  (* jobs beyond the cell count must clamp, not spawn idle domains *)
  let r = R.run_matrix ~progress:(fun _ -> incr seen) ~jobs:64 cells in
  Alcotest.(check int) "one result" 1 (List.length r);
  Alcotest.(check int) "progress called once per cell" 1 !seen;
  List.iter
    (fun (t : R.timed) ->
      Alcotest.(check bool) "wall clock recorded" true (t.R.seconds >= 0.0))
    r

(* ------------------------------------------------------------------ *)
(* Golden values recorded from the pre-overhaul simulator (seed commit
   b6c483d) with scratch/golden.ml. The hot-path overhaul (dense heap,
   memsim fast path, frame pooling) must not change a single counter. *)

let check_golden ~name ~machine ~mode golden =
  let r = H.run ~mode ~machine (R.workload name) in
  let label =
    Printf.sprintf "%s/%s/%s" name machine.Memsim.Config.name
      (SP.Options.mode_name mode)
  in
  Alcotest.(check (list int))
    (label ^ ": bit-identical to seed simulator")
    golden
    (stats_fields r.H.stats);
  Alcotest.(check int) (label ^ ": run_result.cycles = stats.cycles")
    r.H.stats.S.cycles r.H.cycles

(* Field order: loads stores l1lm l1sm l2lm l2sm tlblm tlbsm inflight swpf
   cancel useless guarded hwpf retired cycles stall. *)
let test_golden_db () =
  check_golden ~name:"db" ~machine:Memsim.Config.pentium4 ~mode:SP.Options.Off
    [
      6042584; 226183; 353603; 12202; 172605; 4132; 99859; 192; 0; 0; 0; 0; 0;
      47601; 25052049; 51328875; 23166762;
    ];
  check_golden ~name:"db" ~machine:Memsim.Config.pentium4
    ~mode:SP.Options.Inter_intra
    [
      6042584; 226183; 212028; 12204; 62545; 4132; 7191; 192; 5717; 175658;
      94027; 257973; 351346; 2939; 25579113; 42043819; 12651890;
    ];
  check_golden ~name:"db" ~machine:Memsim.Config.athlon_mp
    ~mode:SP.Options.Inter_intra
    [
      6042584; 226183; 65850; 12205; 55216; 8263; 25; 191; 0; 526974; 0;
      470365; 175688; 5732; 25754801; 38892268; 9676027;
    ]

let test_golden_search () =
  check_golden ~name:"Search" ~machine:Memsim.Config.pentium4
    ~mode:SP.Options.Inter_intra
    [
      6176449; 119519; 0; 4; 0; 2; 0; 1; 0; 0; 0; 0; 0; 1; 47031143;
      53346223; 6296154;
    ];
  check_golden ~name:"Search" ~machine:Memsim.Config.athlon_mp
    ~mode:SP.Options.Off
    [
      6176449; 119519; 0; 4; 0; 3; 0; 1; 0; 0; 0; 0; 0; 1; 47031143;
      53346220; 6296151;
    ]

(* One key names a cell everywhere. Canonical cells keep the spelling of
   the committed reports; the knob overrides of the ablation sweep get
   keys of their own. *)
let test_cell_keys () =
  let db = R.workload "db" and p4 = Memsim.Config.pentium4 in
  let key ?opts ?engine machine =
    R.key (R.id (R.cell ?opts ?engine db machine SP.Options.Inter_intra))
  in
  let d = SP.Options.default in
  Alcotest.(check string) "canonical" "db/Pentium4/INTER+INTRA" (key p4);
  Alcotest.(check string) "default knobs are the canonical cell"
    "db/Pentium4/INTER+INTRA" (key ~opts:d p4);
  Alcotest.(check string) "switch twin" "db/Pentium4/INTER+INTRA/switch-engine"
    (key ~engine:Vm.Interp.Switch p4);
  let ablation =
    [
      key ~opts:{ d with inspect_iterations = 5 } p4;
      key ~opts:{ d with scheduling_distance = 2 } p4;
      key ~opts:{ d with majority = 0.5 } p4;
      key ~opts:{ d with inter_stride_threshold = Some 16 } p4;
      key ~opts:{ d with prediction = SP.Options.Hybrid } p4;
      key ~opts:{ d with enable_phased = true } p4;
      key { p4 with hw_prefetch = Memsim.Config.default_rpt };
    ]
  in
  Alcotest.(check (list string)) "overrides are spelled out"
    [
      "db/Pentium4/INTER+INTRA/iters=5";
      "db/Pentium4/INTER+INTRA/c=2";
      "db/Pentium4/INTER+INTRA/majority=0.5";
      "db/Pentium4/INTER+INTRA/thr=16";
      "db/Pentium4/INTER+INTRA/pred=hybrid";
      "db/Pentium4/INTER+INTRA/custom";
      "db/Pentium4/INTER+INTRA/hw=" ^ Memsim.Config.hw_prefetch_to_string
        Memsim.Config.default_rpt;
    ]
    ablation

let suite =
  [
    ("cell keys: canonical and overridden", `Quick, test_cell_keys);
    ("2-domain matrix byte-identical to serial", `Quick,
     test_parallel_matches_serial);
    ("progress callback + jobs clamping", `Quick, test_progress_and_clamping);
    ("golden seed counters: db (3 cells)", `Slow, test_golden_db);
    ("golden seed counters: Search (2 cells)", `Slow, test_golden_search);
  ]
