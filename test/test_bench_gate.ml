(* Tests for the statistical bench-regression gate (bench/gate.ml):
   report round-tripping through the shared v2 writer, the committed
   reports still parsing, exact-cycle gating, schema refusal, bootstrap
   determinism, the practical-significance threshold on wall-clock, and
   the dispatch lane's pairing rule. *)

module R = Bench_runner.Runner
module Report = Bench_runner.Report
module Gate = Bench_runner.Gate
module W = Workloads.Workload
module SP = Strideprefetch

let fixture =
  {
    W.name = "gate-walk";
    suite = `Javagrande;
    description = "gate test fixture: array walk";
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

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected error: %s" e

let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec at i = i + n <= m && (String.sub s i n = affix || at (i + 1)) in
  n = 0 || at 0

(* One real timed cell, rendered and parsed back through the shared
   writer — the recorder and the gate agree on the format. *)
let record () =
  let timed =
    [
      R.run_cell (R.cell fixture Memsim.Config.pentium4 SP.Options.Inter_intra);
      R.run_cell
        (R.cell ~profile:true fixture Memsim.Config.pentium4
           SP.Options.Inter_intra);
    ]
  in
  ok
    (Gate.of_string ~label:"test"
       (Report.to_json_string ~jobs:1 ~matrix_wall_seconds:0.0 timed))

let test_roundtrip () =
  let run = record () in
  Alcotest.(check string) "schema" Report.schema run.Gate.schema;
  Alcotest.(check int) "two cells" 2 (List.length run.Gate.cells);
  let plain, prof =
    match run.Gate.cells with
    | [ a; b ] -> (a, b)
    | _ -> assert false
  in
  Alcotest.(check bool) "plain cell not profiled" false plain.id.profile;
  Alcotest.(check bool) "profiled cell flagged" true prof.id.profile;
  Alcotest.(check bool) "distinct keys" true
    (R.key plain.id <> R.key prof.id);
  Alcotest.(check int) "cycles agree across the observer" plain.Gate.cycles
    prof.Gate.cycles;
  Alcotest.(check bool) "cycles recorded" true (plain.Gate.cycles > 0);
  (* The profiled cell's blame payload is what a failing gate explains
     regressions from: a run record that must read back through
     lib/diff, conserve the cell's cycles and carry the cell's axes. *)
  Alcotest.(check bool) "plain cell carries no blame" true
    (plain.Gate.blame = None);
  let payload =
    match prof.Gate.blame with
    | Some p -> p
    | None -> Alcotest.fail "profiled cell lost its blame payload"
  in
  let rd = ok (Diff.Rundata.of_json payload) in
  let profile = rd.Diff.Rundata.profile in
  Alcotest.(check bool) "blame carries loops" true (profile.loops <> []);
  Alcotest.(check bool) "per-pc rows dropped" true (profile.pcs = []);
  Alcotest.(check int) "binned cycles reconstruct the cell's cycles"
    prof.Gate.cycles
    (Profile.Collector.bins_total profile.totals + profile.gc_cycles);
  Alcotest.(check string) "workload" prof.id.workload rd.Diff.Rundata.workload;
  let config =
    match rd.Diff.Rundata.config with
    | Some c -> c
    | None -> Alcotest.fail "payload carries no config"
  in
  let axis a = Diff.Bisect.axis_value config a in
  Alcotest.(check (list string))
    "config = the cell id's axes"
    [
      prof.id.machine;
      prof.id.mode;
      prof.id.engine;
      prof.id.hw;
      Option.value ~default:"inspect" prof.id.prediction;
      Option.fold ~none:"default" ~some:string_of_int prof.id.sw_threshold;
    ]
    Diff.Bisect.
      [
        axis Machine; axis Mode; axis Engine; axis Hw; axis Prediction;
        axis Threshold;
      ]

let test_same_run_passes () =
  let a = record () and b = record () in
  (* A huge threshold removes single-cell wall-clock noise: this asserts
     the cycle law, which must hold exactly. *)
  let c = ok (Gate.compare_runs ~threshold:10.0 ~a ~b ()) in
  Alcotest.(check bool) "gate passes" true (Gate.passes c);
  Alcotest.(check int) "no cycle regressions" 0
    (List.length c.Gate.cycle_regressions);
  Alcotest.(check int) "no cycle improvements" 0
    (List.length c.Gate.cycle_improvements);
  Alcotest.(check int) "both cells matched" 2 (List.length c.Gate.pairs);
  Alcotest.(check int) "exit code 0" 0 (Gate.gate_exit c)

let bump_cycles pct (run : Gate.run) =
  {
    run with
    Gate.cells =
      List.map
        (fun (r : Gate.cell_rec) ->
          { r with Gate.cycles = r.cycles + (r.cycles * pct / 100) })
        run.Gate.cells;
  }

let test_injected_regression_fails () =
  let a = record () in
  let b = bump_cycles 10 a in
  let c = ok (Gate.compare_runs ~threshold:10.0 ~a ~b ()) in
  Alcotest.(check bool) "gate fails" false (Gate.passes c);
  Alcotest.(check int) "every cell regressed" 2
    (List.length c.Gate.cycle_regressions);
  Alcotest.(check int) "exit code 1" 1 (Gate.gate_exit c);
  (* ...and a cycle improvement alone must NOT fail the gate. *)
  let c' = ok (Gate.compare_runs ~threshold:10.0 ~a:b ~b:a ()) in
  Alcotest.(check bool) "improvement passes" true (Gate.passes c');
  Alcotest.(check int) "reported as improvements" 2
    (List.length c'.Gate.cycle_improvements)

let test_schema_refusal () =
  let a = record () in
  let v1 = { a with Gate.schema = "bench_hotpath/v1" } in
  (match Gate.compare_runs ~a:v1 ~b:a () with
  | Ok _ -> Alcotest.fail "v1 baseline accepted"
  | Error e ->
      Alcotest.(check bool) "names the old schema" true
        (contains ~affix:"bench_hotpath/v1" e);
      Alcotest.(check bool) "names the expected schema" true
        (contains ~affix:Report.schema e));
  match Gate.compare_runs ~a ~b:v1 () with
  | Ok _ -> Alcotest.fail "v1 candidate accepted"
  | Error _ -> ()

(* Every committed report — the baseline and its history — must still
   load under the current reader, with one key per cell. *)
let test_committed_reports_parse () =
  let history =
    Sys.readdir "../BENCH_history"
    |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".json")
    |> List.sort compare
    |> List.map (Filename.concat "../BENCH_history")
  in
  Alcotest.(check bool) "history is not empty" true (history <> []);
  List.iter
    (fun path ->
      let run = ok (Gate.load path) in
      Alcotest.(check string) (path ^ ": schema") Report.schema run.Gate.schema;
      Alcotest.(check bool) (path ^ ": has cells") true (run.Gate.cells <> []);
      let keys = List.map (fun (c : Gate.cell_rec) -> R.key c.id) run.cells in
      Alcotest.(check int)
        (path ^ ": one key per cell")
        (List.length keys)
        (List.length (List.sort_uniq compare keys)))
    ("../BENCH_hotpath.json" :: history)

(* Synthetic runs let us pin the statistics without wall-clock noise. *)
let synth_id workload =
  {
    R.workload;
    machine = "Pentium4";
    mode = "INTER+INTRA";
    engine = "closure";
    telemetry = false;
    profile = false;
    monitor = false;
    hw = R.default_hw;
    sw_threshold = None;
    prediction = None;
    knobs = None;
  }

let synth_cell id seconds cycles = { Gate.id; blame = None; seconds; cycles }

let synth_run ?(schema = Report.schema) cells =
  {
    Gate.schema;
    jobs = 1;
    host_cpus = 1;
    cells =
      List.mapi
        (fun i (seconds, cycles) ->
          synth_cell (synth_id (Printf.sprintf "w%d" i)) seconds cycles)
        cells;
  }

let test_wallclock_significance () =
  let base = List.init 8 (fun i -> (1.0 +. (0.01 *. float_of_int i), 1000)) in
  let a = synth_run base in
  (* Uniform 2x slowdown: the whole CI sits above +5%. *)
  let slow = synth_run (List.map (fun (s, c) -> (s *. 2.0, c)) base) in
  let c = ok (Gate.compare_runs ~a ~b:slow ()) in
  Alcotest.(check bool) "2x slowdown is significant" true
    c.Gate.significant_slowdown;
  Alcotest.(check bool) "gate fails on wall-clock alone" false (Gate.passes c);
  (* Uniform +1%: inside the practical threshold, must pass. *)
  let near = synth_run (List.map (fun (s, c) -> (s *. 1.01, c)) base) in
  let c' = ok (Gate.compare_runs ~a ~b:near ()) in
  Alcotest.(check bool) "+1% is not significant" false
    c'.Gate.significant_slowdown;
  Alcotest.(check bool) "gate passes" true (Gate.passes c')

let test_bootstrap_deterministic () =
  let a =
    synth_run (List.init 10 (fun i -> (1.0 +. (0.05 *. float_of_int i), 500)))
  in
  let b =
    synth_run
      (List.init 10 (fun i -> (1.1 +. (0.04 *. float_of_int (10 - i)), 500)))
  in
  let c1 = ok (Gate.compare_runs ~a ~b ())
  and c2 = ok (Gate.compare_runs ~a ~b ()) in
  Alcotest.(check (float 0.0)) "ci_low deterministic" c1.Gate.ci_low
    c2.Gate.ci_low;
  Alcotest.(check (float 0.0)) "ci_high deterministic" c1.Gate.ci_high
    c2.Gate.ci_high;
  Alcotest.(check string) "render byte-identical" (Gate.render c1)
    (Gate.render c2);
  Alcotest.(check bool) "CI brackets the geomean" true
    (c1.Gate.ci_low <= c1.Gate.seconds_geomean
    && c1.Gate.seconds_geomean <= c1.Gate.ci_high)

let test_unmatched_cells () =
  let a = synth_run [ (1.0, 100); (2.0, 200); (3.0, 300) ] in
  let b =
    {
      a with
      Gate.cells =
        List.filter
          (fun (c : Gate.cell_rec) -> c.id.workload <> "w2")
          a.Gate.cells;
    }
  in
  let c = ok (Gate.compare_runs ~a ~b ()) in
  Alcotest.(check int) "two cells matched" 2 (List.length c.Gate.pairs);
  Alcotest.(check int) "one cell only in A" 1 (List.length c.Gate.only_a);
  Alcotest.(check int) "none only in B" 0 (List.length c.Gate.only_b);
  Alcotest.(check bool) "still passes" true (Gate.passes c)

let test_bad_reports () =
  (match Gate.of_string ~label:"x" "not json" with
  | Ok _ -> Alcotest.fail "garbage accepted"
  | Error _ -> ());
  (match Gate.of_string ~label:"x" "{\"cells\": []}" with
  | Ok _ -> Alcotest.fail "schema-less report accepted"
  | Error _ -> ());
  match
    Gate.of_string ~label:"x"
      "{\"schema\": \"bench_hotpath/v2\", \"cells\": [{\"workload\": \"w\"}]}"
  with
  | Ok _ -> Alcotest.fail "cell without cycles accepted"
  | Error _ -> ()

(* A switch-engine cell pairs with the closure cell that differs from it
   only in the engine — not with the first closure cell of the same
   workload, machine and mode, here a hardware-model sweep cell listed
   ahead of the plain twin. *)
let test_dispatch_pairing () =
  let plain = synth_id "db" in
  let run =
    {
      (synth_run []) with
      Gate.cells =
        [
          synth_cell { plain with hw = "rpt:64x4@4" } 4.0 100;
          synth_cell plain 2.0 100;
          synth_cell { plain with engine = "switch" } 1.0 100;
        ];
    }
  in
  match Gate.dispatch_geomean run with
  | None -> Alcotest.fail "switch cell left unpaired"
  | Some g ->
      Alcotest.(check (float 1e-9)) "paired with the plain closure twin" 0.5 g

let suite =
  [
    Alcotest.test_case "report round-trips through the shared writer" `Slow
      test_roundtrip;
    Alcotest.test_case "same tree re-run gates clean" `Slow
      test_same_run_passes;
    Alcotest.test_case "injected +10% cycles fails the gate" `Slow
      test_injected_regression_fails;
    Alcotest.test_case "cross-schema compares are refused" `Slow
      test_schema_refusal;
    Alcotest.test_case "wall-clock significance thresholding" `Quick
      test_wallclock_significance;
    Alcotest.test_case "bootstrap CI is deterministic" `Quick
      test_bootstrap_deterministic;
    Alcotest.test_case "unmatched cells are reported, not fatal" `Quick
      test_unmatched_cells;
    Alcotest.test_case "ill-formed reports are rejected" `Quick
      test_bad_reports;
    Alcotest.test_case "committed reports still parse" `Quick
      test_committed_reports_parse;
    Alcotest.test_case "dispatch pairs flip only the engine" `Quick
      test_dispatch_pairing;
  ]
