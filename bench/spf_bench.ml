(* spf_bench: record bench_hotpath/v2 reports and run the statistical
   regression gate between them.

   Usage:
     spf_bench --record PATH [--jobs N]         run the canonical matrix,
                                                write the report to PATH
     spf_bench --compare BASELINE NEW           gate NEW against BASELINE
                                                (exit 1 on regression)
     spf_bench --gate-against BASELINE [--jobs N]
                                                record a fresh in-memory
                                                run and gate it against
                                                BASELINE
     spf_bench --smoke                          fast self-check used by
                                                dune runtest: one cell run
                                                twice must gate clean, an
                                                injected +10% cycle count
                                                must fail, and a v1 schema
                                                must be refused

   Cycle counts are gated on exact equality (they are deterministic);
   wall-clock is gated on a bootstrap 95% CI of the per-cell geomean
   ratio against a practical threshold (--threshold, default 5%). *)

module Runner = Bench_runner.Runner
module Report = Bench_runner.Report
module Gate = Bench_runner.Gate
module W = Workloads.Workload
module SP = Strideprefetch

let usage () =
  prerr_endline
    "usage: spf_bench (--record PATH | --compare BASELINE NEW | \
     --gate-against BASELINE | --sweep-arbitration [PATH] | \
     --sweep-prediction [PATH] | --smoke) [--jobs N] [--threshold PCT]\n\
     --sweep-arbitration sweeps the SW inter-stride threshold against \
     the hardware prefetch models per machine and auto-picks the \
     minimum-cycle arbitration point; with --smoke it runs a tiny grid \
     (Euler x pentium4) as a self-check instead.\n\
     --sweep-prediction runs every workload on both machines \
     under the inspect and hybrid prediction tiers and reports the \
     inspection iterations the address-algebra predictor saves at \
     equal-or-better simulated cycles; with --smoke it runs Euler x \
     pentium4 as a self-check instead."

let ok_or_die = function
  | Ok v -> v
  | Error e ->
      prerr_endline ("spf_bench: " ^ e);
      exit 2

let record_timed ~jobs =
  let cells = Report.default_cells () in
  Printf.eprintf "[spf_bench] running %d cells on %d job(s)...\n%!"
    (List.length cells) jobs;
  let t0 = Unix.gettimeofday () in
  let timed =
    Runner.run_matrix ~jobs
      ~progress:(fun c ->
        Printf.eprintf "[spf_bench]   %s\n%!" (Runner.cell_label c))
      cells
  in
  (timed, Unix.gettimeofday () -. t0)

let print_dispatch label run =
  match Gate.dispatch_geomean run with
  | Some g ->
      Printf.printf "dispatch geomean speedup (switch/closure) %s: %.3fx\n"
        label g
  | None -> ()

let record ~jobs path =
  let timed, wall = record_timed ~jobs in
  Report.write_json ~path ~jobs ~matrix_wall_seconds:wall timed;
  Printf.printf "wrote %s (%d cells, %.1f s wall)\n" path (List.length timed)
    wall;
  let pairs = Report.dispatch_pairs timed in
  if pairs <> [] then
    Printf.printf "dispatch geomean speedup (switch/closure): %.3fx over %d \
                   pairs\n"
      (Report.dispatch_geomean pairs)
      (List.length pairs)

(* ------------------------------------------------------------------ *)
(* Blame on failure: when the gate trips on a cycle regression, explain
   it — per-loop cycle deltas decomposed by stall bin (lib/diff's blame
   report), so a red gate ships its own diagnosis instead of a bare
   cycle count.

   Two-sided when both reports embed the profiled cell's blame payload
   (reports written by the current Report.to_json_string do); when the
   baseline predates the blame lane, --gate-against falls back to a
   one-sided fresh profiled re-run of the regressed cell — where the
   cycles go now, even if the delta can't be split per loop. *)

let blame_config (c : Gate.cell_rec) =
  {
    Diff.Rundata.c_workload = c.Gate.workload;
    c_machine = c.machine;
    c_mode = c.mode;
    c_engine = c.engine;
    c_hw = c.hw;
    c_prediction = Option.value ~default:"inspect" c.prediction;
    c_threshold = c.sw_threshold;
    c_passes = true;
    c_phased = false;
    c_interproc = false;
  }

let rundata_of_cell name (c : Gate.cell_rec) =
  match c.Gate.blame with
  | Some payload ->
      Diff.Rundata.of_bench_blame ~config:(blame_config c)
        ~cycles:c.Gate.cycles payload
  | None -> Error (name ^ " carries no blame payload")

(* The one-sided fallback rendering: the fresh run's hottest loops. *)
let print_one_sided (rd : Diff.Rundata.t) =
  let loops =
    List.sort
      (fun (a : Diff.Rundata.loop) b -> compare b.lr_total a.lr_total)
      rd.Diff.Rundata.loops
  in
  List.iteri
    (fun i (l : Diff.Rundata.loop) ->
      if i < 5 then
        Printf.printf "  %s/%s: %d cycles\n" l.Diff.Rundata.lr_method
          (if l.lr_loop < 0 then "(straight-line)"
           else Printf.sprintf "loop%d" l.lr_loop)
          l.lr_total)
    loops

let max_explained = 3

let explain_regressions ?rerun (c : Gate.comparison) =
  let explain (p : Gate.pair) =
    Printf.printf "\n--- blame: %s ---\n" p.Gate.key;
    let b_side =
      match (rundata_of_cell "run B" p.Gate.b, rerun) with
      | (Ok _ as ok), _ -> ok
      | Error _, Some fresh -> fresh p
      | (Error _ as e), None -> e
    in
    match (rundata_of_cell "baseline" p.Gate.a, b_side) with
    | Ok a, Ok b ->
        let bl = Diff.Blame.build ~a ~b () in
        print_string (Diff.Blame.render ~top:5 bl)
    | Error why, Ok b ->
        Printf.printf
          "%s; one-sided diagnosis (profiled breakdown of the regressed \
           run, %+d cycles vs baseline):\n"
          why
          (p.Gate.b.Gate.cycles - p.Gate.a.Gate.cycles);
        print_one_sided b
    | _, Error why ->
        Printf.printf
          "%s; re-record the baseline with the current writer or run \
           --gate-against for a fresh profiled diagnosis\n"
          why
  in
  match c.Gate.cycle_regressions with
  | [] -> ()
  | regressed ->
      let rec take n = function
        | x :: rest when n > 0 -> x :: take (n - 1) rest
        | _ -> []
      in
      List.iter explain (take max_explained regressed);
      let dropped = List.length regressed - max_explained in
      if dropped > 0 then
        Printf.printf
          "\n(%d more regressed cell(s) not explained; fix the above \
           first)\n"
          dropped

let compare_runs ?threshold ?rerun a b =
  let c = ok_or_die (Gate.compare_runs ?threshold ~a ~b ()) in
  print_string (Gate.render c);
  print_dispatch "A" a;
  print_dispatch "B" b;
  if not (Gate.passes c) then explain_regressions ?rerun c;
  exit (Gate.gate_exit c)

let compare_files ?threshold path_a path_b =
  let a = ok_or_die (Gate.load path_a) and b = ok_or_die (Gate.load path_b) in
  compare_runs ?threshold a b

let gate_against ?threshold ~jobs baseline_path =
  let a = ok_or_die (Gate.load baseline_path) in
  let timed, wall = record_timed ~jobs in
  let b =
    ok_or_die
      (Gate.of_string ~label:"<fresh run>"
         (Report.to_json_string ~jobs ~matrix_wall_seconds:wall timed))
  in
  (* The fresh run is still in memory: a regressed cell whose baseline
     has no blame payload is re-run with the profiler installed (one
     cell — cheap next to the matrix) for the one-sided diagnosis. *)
  let matches (t : Runner.timed) (c : Gate.cell_rec) =
    t.Runner.cell.Runner.workload.W.name = c.Gate.workload
    && t.Runner.cell.Runner.machine.Memsim.Config.name = c.Gate.machine
    && SP.Options.mode_name t.Runner.cell.Runner.mode = c.Gate.mode
    && Vm.Interp.engine_name t.Runner.cell.Runner.engine = c.Gate.engine
    && t.Runner.cell.Runner.telemetry = c.Gate.telemetry
    && t.Runner.cell.Runner.profile = c.Gate.profile
    && t.Runner.cell.Runner.monitor = c.Gate.monitor
    && Memsim.Config.hw_prefetch_to_string
         t.Runner.cell.Runner.machine.Memsim.Config.hw_prefetch
       = c.Gate.hw
    && (match t.Runner.cell.Runner.opts with
       | Some o ->
           o.SP.Options.inter_stride_threshold = c.Gate.sw_threshold
           && (if o.SP.Options.prediction <> SP.Options.Inspect then
                 Some (SP.Options.prediction_name o.SP.Options.prediction)
               else None)
              = c.Gate.prediction
       | None -> c.Gate.sw_threshold = None && c.Gate.prediction = None)
  in
  let rerun (p : Gate.pair) =
    match List.find_opt (fun t -> matches t p.Gate.b) timed with
    | None -> Error "regressed cell not found in the fresh run"
    | Some t ->
        let result =
          match t.Runner.result.Workloads.Harness.profile with
          | Some _ -> t.Runner.result
          | None ->
              (Runner.run_cell { t.Runner.cell with Runner.profile = true })
                .Runner.result
        in
        Diff.Rundata.of_run ~config:(blame_config p.Gate.b) result
  in
  compare_runs ?threshold ~rerun a b

(* --sweep-arbitration: the SW/HW arbitration sweep. The paper hands
   strides shorter than half a cache line to the hardware prefetcher
   (Section 4.1's "the hardware already covers short strides"); this
   sweep measures where that handoff point actually sits for each
   machine's hardware model by gridding the SW inter-stride threshold
   against the hardware prefetch models and summing simulated cycles
   over a fixed workload set. The minimum-cycle point per machine is the
   auto-picked arbitration point, reported in the bench JSON's
   "arbitration" lane; every grid cell also lands in "cells" under a
   distinct /hw=... /thr=N gate key.

   The smoke variant runs a 2x2 grid on Euler x pentium4 — small enough
   for dune runtest — and asserts the lane's structural invariants:
   picks are grid minima, keys are distinct, the report round-trips. *)
let sweep_arbitration ~jobs ~smoke path =
  let module C = Memsim.Config in
  let all = Workloads.Specjvm.all @ Workloads.Javagrande.all in
  let find n = List.find (fun (w : W.t) -> w.name = n) all in
  let workloads, machines, thresholds, hw_models =
    if smoke then
      ( [ find "Euler" ],
        [ C.pentium4 ],
        [ 16; 32 ],
        [ C.default_stream; C.default_rpt ] )
    else
      ( [ find "db"; find "compress"; find "Euler" ],
        [ C.pentium4; C.athlon_mp ],
        [ 0; 16; 32; 64 ],
        [
          C.Hw_none;
          C.default_stream;
          C.default_rpt;
          C.Hw_rpt { table_size = 64; degree = 4; distance = 4 };
          C.Hw_rpt { table_size = 256; degree = 2; distance = 8 };
        ] )
  in
  let opts_for t =
    { SP.Options.default with SP.Options.inter_stride_threshold = Some t }
  in
  let cells =
    List.concat_map
      (fun (machine : Memsim.Config.machine) ->
        List.concat_map
          (fun hw ->
            List.concat_map
              (fun t ->
                List.map
                  (fun w ->
                    Runner.cell ~opts:(opts_for t) w
                      { machine with C.hw_prefetch = hw }
                      SP.Options.Inter_intra)
                  workloads)
              thresholds)
          hw_models)
      machines
  in
  Printf.eprintf "[spf_bench] arbitration sweep: %d cells on %d job(s)...\n%!"
    (List.length cells) jobs;
  let t0 = Unix.gettimeofday () in
  let timed =
    Runner.run_matrix ~jobs
      ~progress:(fun c ->
        Printf.eprintf "[spf_bench]   %s\n%!" (Runner.cell_label c))
      cells
  in
  let wall = Unix.gettimeofday () -. t0 in
  (* Sum cycles per (machine, hw, threshold) grid point. *)
  let grid =
    List.concat_map
      (fun (machine : Memsim.Config.machine) ->
        List.concat_map
          (fun hw ->
            List.map
              (fun t ->
                let cycles =
                  List.fold_left
                    (fun acc (r : Runner.timed) ->
                      if
                        r.cell.Runner.machine.C.name = machine.C.name
                        && r.cell.Runner.machine.C.hw_prefetch = hw
                        && r.cell.Runner.opts = Some (opts_for t)
                      then acc + r.result.Workloads.Harness.cycles
                      else acc)
                    0 timed
                in
                {
                  Report.arb_machine = machine.C.name;
                  arb_threshold = t;
                  arb_hw = C.hw_prefetch_to_string hw;
                  arb_cycles = cycles;
                })
              thresholds)
          hw_models)
      machines
  in
  let picks =
    List.map
      (fun (machine : Memsim.Config.machine) ->
        let mine =
          List.filter
            (fun (p : Report.arb_point) -> p.arb_machine = machine.C.name)
            grid
        in
        List.fold_left
          (fun (best : Report.arb_point) (p : Report.arb_point) ->
            if p.Report.arb_cycles < best.Report.arb_cycles then p else best)
          (List.hd mine) (List.tl mine))
      machines
  in
  let arbitration =
    {
      Report.arb_workloads = List.map (fun (w : W.t) -> w.name) workloads;
      arb_grid = grid;
      arb_picks = picks;
    }
  in
  List.iter
    (fun (p : Report.arb_point) ->
      Printf.printf
        "arbitration pick [%s]: sw_threshold=%d hw=%s (%d cycles over %s)\n"
        p.arb_machine p.arb_threshold p.arb_hw p.arb_cycles
        (String.concat "+" arbitration.Report.arb_workloads))
    picks;
  let json =
    Report.to_json_string ~arbitration ~jobs ~matrix_wall_seconds:wall timed
  in
  (match path with
  | Some path ->
      Out_channel.with_open_text path (fun oc -> output_string oc json);
      Printf.printf "wrote %s (%d cells, %.1f s wall)\n" path
        (List.length timed) wall
  | None -> ());
  if smoke then begin
    (* Structural self-checks for the runtest hook. *)
    let r = ok_or_die (Gate.of_string ~label:"<sweep>" json) in
    if r.Gate.schema <> Report.schema then begin
      prerr_endline "sweep smoke FAIL: wrong schema";
      exit 1
    end;
    let keys = List.map Gate.cell_key r.Gate.cells in
    if List.length (List.sort_uniq compare keys) <> List.length keys
    then begin
      prerr_endline "sweep smoke FAIL: sweep cells collide under gate keys";
      exit 1
    end;
    List.iter
      (fun (p : Report.arb_point) ->
        let floor_cycles =
          List.fold_left
            (fun acc (g : Report.arb_point) ->
              if g.arb_machine = p.arb_machine then min acc g.arb_cycles
              else acc)
            max_int grid
        in
        if p.arb_cycles <> floor_cycles then begin
          prerr_endline
            "sweep smoke FAIL: pick is not the grid minimum for its machine";
          exit 1
        end)
      picks;
    print_endline "sweep smoke: OK"
  end

(* --sweep-prediction: the JIT-compile-time lane. The hybrid tier's
   promise is purely compile-side — the address-algebra predictor's
   Certain verdicts skip the ~20 inspection iterations, Likely shortens
   them — while the simulated cycle count must stay equal or better
   (static claims that agree with inspection produce the same plans).
   This sweep runs each workload under the inspect and hybrid tiers and
   reports both sides of that trade: inspection iterations begun and
   instructions partially interpreted (saved work) next to cycles and
   prefetch-pass wall-clock. Results land in the bench JSON's
   "prediction" lane; every hybrid cell also lands in "cells" under a
   distinct /pred=hybrid gate key.

   The smoke variant runs MonteCarlo x pentium4 — small enough for dune
   runtest — and asserts the lane's contract: the report round-trips,
   gate keys stay distinct, hybrid begins strictly fewer inspection
   iterations, and hybrid cycles are equal or better. *)
let sweep_prediction ~jobs ~smoke path =
  let module C = Memsim.Config in
  let all = Workloads.Specjvm.all @ Workloads.Javagrande.all in
  let workloads, machines =
    if smoke then
      ( [ List.find (fun (w : W.t) -> w.name = "MonteCarlo") all ],
        [ C.pentium4 ] )
    else (all, [ C.pentium4; C.athlon_mp ])
  in
  let tiers = [ SP.Options.Inspect; SP.Options.Hybrid ] in
  let opts_for tier =
    { SP.Options.default with SP.Options.prediction = tier }
  in
  let cells =
    List.concat_map
      (fun (machine : C.machine) ->
        List.concat_map
          (fun tier ->
            List.map
              (fun w ->
                (* The inspect cells are the canonical ones (no opts
                   override), so their gate keys match the default
                   matrix; hybrid cells carry the override and the
                   /pred=hybrid key suffix. *)
                match tier with
                | SP.Options.Inspect ->
                    Runner.cell w machine SP.Options.Inter_intra
                | _ ->
                    Runner.cell ~opts:(opts_for tier) w machine
                      SP.Options.Inter_intra)
              workloads)
          tiers)
      machines
  in
  Printf.eprintf "[spf_bench] prediction sweep: %d cells on %d job(s)...\n%!"
    (List.length cells) jobs;
  let t0 = Unix.gettimeofday () in
  let timed =
    Runner.run_matrix ~jobs
      ~progress:(fun c ->
        Printf.eprintf "[spf_bench]   %s\n%!" (Runner.cell_label c))
      cells
  in
  let wall = Unix.gettimeofday () -. t0 in
  let tier_of (t : Runner.timed) =
    match t.cell.Runner.opts with
    | Some o -> SP.Options.prediction_name o.SP.Options.prediction
    | None -> SP.Options.prediction_name SP.Options.Inspect
  in
  let point_of (t : Runner.timed) =
    let iters, steps =
      List.fold_left
        (fun (i, s) (r : SP.Pass.loop_report) ->
          (i + r.SP.Pass.iterations_observed, s + r.SP.Pass.inspection_steps))
        (0, 0) t.result.Workloads.Harness.reports
    in
    {
      Report.pred_workload = t.cell.Runner.workload.W.name;
      pred_machine = t.cell.Runner.machine.C.name;
      pred_tier = tier_of t;
      pred_cycles = t.result.Workloads.Harness.cycles;
      pred_iterations = iters;
      pred_steps = steps;
      pred_pass_seconds = t.result.Workloads.Harness.prefetch_pass_seconds;
    }
  in
  let points = List.map point_of timed in
  let sum_over machine tier f =
    List.fold_left
      (fun acc (p : Report.pred_point) ->
        if p.pred_machine = machine && p.pred_tier = tier then acc + f p
        else acc)
      0 points
  in
  let summaries =
    List.map
      (fun (machine : C.machine) ->
        let m = machine.C.name in
        let inspect_i =
          sum_over m "inspect" (fun p -> p.Report.pred_iterations)
        and hybrid_i =
          sum_over m "hybrid" (fun p -> p.Report.pred_iterations)
        and inspect_c = sum_over m "inspect" (fun p -> p.Report.pred_cycles)
        and hybrid_c = sum_over m "hybrid" (fun p -> p.Report.pred_cycles) in
        {
          Report.pred_sum_machine = m;
          pred_iterations_inspect = inspect_i;
          pred_iterations_hybrid = hybrid_i;
          pred_cycles_delta = hybrid_c - inspect_c;
        })
      machines
  in
  let prediction =
    { Report.pred_points = points; pred_summaries = summaries }
  in
  Printf.printf "%-11s %-10s %-8s %12s %12s %12s %12s\n" "workload"
    "machine" "tier" "cycles" "iterations" "insp steps" "pass (ms)";
  List.iter
    (fun (p : Report.pred_point) ->
      Printf.printf "%-11s %-10s %-8s %12d %12d %12d %12.3f\n"
        p.pred_workload p.pred_machine p.pred_tier p.pred_cycles
        p.pred_iterations p.pred_steps (1000.0 *. p.pred_pass_seconds))
    points;
  List.iter
    (fun (s : Report.pred_summary) ->
      Printf.printf
        "prediction summary [%s]: hybrid begins %d of %d inspection \
         iterations (%d saved), cycles delta %+d\n"
        s.Report.pred_sum_machine s.pred_iterations_hybrid
        s.pred_iterations_inspect
        (s.pred_iterations_inspect - s.pred_iterations_hybrid)
        s.pred_cycles_delta)
    summaries;
  let json =
    Report.to_json_string ~prediction ~jobs ~matrix_wall_seconds:wall timed
  in
  (match path with
  | Some path ->
      Out_channel.with_open_text path (fun oc -> output_string oc json);
      Printf.printf "wrote %s (%d cells, %.1f s wall)\n" path
        (List.length timed) wall
  | None -> ());
  if smoke then begin
    let r = ok_or_die (Gate.of_string ~label:"<sweep>" json) in
    if r.Gate.schema <> Report.schema then begin
      prerr_endline "prediction smoke FAIL: wrong schema";
      exit 1
    end;
    let keys = List.map Gate.cell_key r.Gate.cells in
    if List.length (List.sort_uniq compare keys) <> List.length keys
    then begin
      prerr_endline
        "prediction smoke FAIL: sweep cells collide under gate keys";
      exit 1
    end;
    List.iter
      (fun (s : Report.pred_summary) ->
        if s.Report.pred_iterations_hybrid >= s.pred_iterations_inspect
        then begin
          prerr_endline
            "prediction smoke FAIL: hybrid did not reduce inspection \
             iterations";
          exit 1
        end;
        if s.pred_cycles_delta > 0 then begin
          prerr_endline
            "prediction smoke FAIL: hybrid regressed simulated cycles";
          exit 1
        end)
      summaries;
    print_endline "prediction smoke: OK"
  end

(* The runtest self-check: everything the gate promises, on one cell. *)
let smoke () =
  let workloads = Workloads.Specjvm.all @ Workloads.Javagrande.all in
  let db = List.find (fun (w : W.t) -> w.name = "db") workloads in
  let cell = Runner.cell db Memsim.Config.pentium4 SP.Options.Inter_intra in
  let report_once () =
    Report.to_json_string ~jobs:1 ~matrix_wall_seconds:0.0
      [ Runner.run_cell cell ]
  in
  let a = ok_or_die (Gate.of_string ~label:"run A" (report_once ()))
  and b = ok_or_die (Gate.of_string ~label:"run B" (report_once ())) in
  (* A huge threshold takes single-cell wall-clock noise out of the
     verdict: the smoke asserts the cycle law, not host timing. *)
  let c = ok_or_die (Gate.compare_runs ~threshold:10.0 ~a ~b ()) in
  print_string (Gate.render c);
  if not (Gate.passes c) || c.Gate.cycle_improvements <> [] then begin
    prerr_endline
      "smoke FAIL: identical re-runs disagree on simulated cycles";
    exit 1
  end;
  (* An injected +10% cycle count must trip the exact-equality gate. *)
  let b_slow =
    {
      b with
      Gate.cells =
        List.map
          (fun (r : Gate.cell_rec) ->
            { r with Gate.cycles = r.cycles + (r.cycles / 10) })
          b.Gate.cells;
    }
  in
  (match Gate.compare_runs ~threshold:10.0 ~a ~b:b_slow () with
  | Ok c' when Gate.gate_exit c' = 1 ->
      print_endline "smoke: injected +10% cycles fails the gate (good)"
  | Ok _ ->
      prerr_endline "smoke FAIL: injected cycle regression not detected";
      exit 1
  | Error e ->
      prerr_endline ("smoke FAIL: " ^ e);
      exit 1);
  (* A v1 report must be refused, naming both schemas. *)
  (match
     Gate.compare_runs ~a:{ a with Gate.schema = "bench_hotpath/v1" } ~b ()
   with
  | Error e ->
      print_endline ("smoke: v1 schema refused (good): " ^ e)
  | Ok _ ->
      prerr_endline "smoke FAIL: cross-schema compare was not refused";
      exit 1);
  print_endline "smoke: OK"

let () =
  let jobs = ref (Runner.default_jobs ()) in
  let threshold = ref None in
  let action = ref None in
  let smoke_flag = ref false in
  let set_action a =
    match !action with
    | None -> action := Some a
    | Some _ ->
        prerr_endline "spf_bench: more than one action given";
        usage ();
        exit 2
  in
  let rec parse = function
    | [] -> ()
    | "--jobs" :: n :: rest ->
        (match int_of_string_opt n with
        | Some n when n >= 1 -> jobs := n
        | _ ->
            prerr_endline "--jobs expects a positive integer";
            exit 2);
        parse rest
    | "--threshold" :: p :: rest ->
        (match float_of_string_opt p with
        | Some p when p >= 0.0 -> threshold := Some (p /. 100.0)
        | _ ->
            prerr_endline "--threshold expects a percentage >= 0";
            exit 2);
        parse rest
    | "--record" :: path :: rest ->
        set_action (`Record path);
        parse rest
    | "--compare" :: a :: b :: rest ->
        set_action (`Compare (a, b));
        parse rest
    | "--gate-against" :: path :: rest ->
        set_action (`Gate path);
        parse rest
    | "--sweep-arbitration" :: rest -> (
        match rest with
        | path :: rest'
          when not (String.length path > 0 && path.[0] = '-') ->
            set_action (`Sweep (Some path));
            parse rest'
        | _ ->
            set_action (`Sweep None);
            parse rest)
    | "--sweep-prediction" :: rest -> (
        match rest with
        | path :: rest'
          when not (String.length path > 0 && path.[0] = '-') ->
            set_action (`Sweep_prediction (Some path));
            parse rest'
        | _ ->
            set_action (`Sweep_prediction None);
            parse rest)
    | "--smoke" :: rest ->
        (* A flag when it modifies --sweep-arbitration, an action (the
           gate self-check) when it stands alone. *)
        smoke_flag := true;
        parse rest
    | ("--help" | "-h") :: _ ->
        usage ();
        exit 0
    | arg :: _ ->
        prerr_endline ("spf_bench: unknown argument " ^ arg);
        usage ();
        exit 2
  in
  parse (List.tl (Array.to_list Sys.argv));
  match !action with
  | Some (`Record path) -> record ~jobs:!jobs path
  | Some (`Compare (a, b)) -> compare_files ?threshold:!threshold a b
  | Some (`Gate path) -> gate_against ?threshold:!threshold ~jobs:!jobs path
  | Some (`Sweep path) ->
      sweep_arbitration ~jobs:!jobs ~smoke:!smoke_flag path
  | Some (`Sweep_prediction path) ->
      sweep_prediction ~jobs:!jobs ~smoke:!smoke_flag path
  | None when !smoke_flag -> smoke ()
  | None ->
      usage ();
      exit 2
