(* spf_bench: the one bench driver. Subcommands (spf_bench COMMAND --help
   for each): [paper] regenerates the paper's tables and figures,
   [record] writes a bench_hotpath/v2 report of the canonical matrix,
   [compare] and [gate] run the statistical regression gate, [sweep]
   runs the SW/HW arbitration or prediction lane, and [selftest] checks
   the gate itself on one cell.

   Every path that runs simulation cells goes through [run_cells] (one
   dedup, one progress line per cell, one wall clock), and every report
   it renders goes through [report] (one writer, one read-back check).

   Cycle counts are gated on exact equality (they are deterministic);
   wall-clock is gated on a bootstrap 95% CI of the per-cell geomean
   ratio against a practical threshold (--threshold, default 5%).

   Exit codes, as for spf: 0 ok, 1 a check or the gate failed, 2 bad
   input (an unknown subcommand or experiment, a malformed option value,
   an unreadable or ill-formed report). *)

open Cmdliner
module Runner = Bench_runner.Runner
module Report = Bench_runner.Report
module Gate = Bench_runner.Gate
module SP = Strideprefetch
module H = Workloads.Harness
module C = Memsim.Config
module J = Telemetry.Json

let exit_check = 1
let exit_input = 2

(* Command-line errors exit 2 as well (see the end of this file), so
   cmdliner's 123/124 never occur. *)
let exits =
  [
    Cmd.Exit.info Cmd.Exit.ok ~doc:"on success.";
    Cmd.Exit.info exit_check
      ~doc:
        "a check failed: the gate found a cycle regression or a \
         significant slowdown, or a self-check or sweep-lane contract did \
         not hold.";
    Cmd.Exit.info exit_input
      ~doc:
        "bad input: an unknown subcommand or experiment, a malformed \
         command line or option value, or an unreadable or ill-formed \
         report.";
    Cmd.Exit.info Cmd.Exit.internal_error
      ~doc:"on unexpected internal errors (bugs).";
  ]

let die code fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("spf_bench: " ^ msg);
      exit code)
    fmt

let ok_or code = function Ok v -> v | Error e -> die code "%s" e
let check cond what =
  if not cond then die exit_check "self-check FAIL: %s" what

(* ------------------------------------------------------------------ *)
(* The run path: deduplicate by key (first occurrence wins), run on the
   Domain pool, time the whole matrix. *)

let run_cells ~jobs cells =
  let seen = Hashtbl.create 64 in
  let cells =
    List.filter
      (fun c ->
        let k = Runner.key (Runner.id c) in
        (not (Hashtbl.mem seen k)) && (Hashtbl.add seen k (); true))
      cells
  in
  Printf.eprintf "[spf_bench] running %d cells on %d job(s)...\n%!"
    (List.length cells) jobs;
  let t0 = Unix.gettimeofday () in
  let timed =
    Runner.run_matrix ~jobs
      ~progress:(fun c ->
        Printf.eprintf "[spf_bench]   %s\n%!" (Runner.key (Runner.id c)))
      cells
  in
  (timed, Unix.gettimeofday () -. t0)

(* The report path: render [timed], write it to [path] when given, and
   read it back as the gate will — the round-trip, schema and one-key-
   per-cell checks every recorded, swept or self-tested report passes. *)
let report ?lanes ?path ~jobs ~wall timed =
  let json =
    Report.to_json_string ?lanes ~jobs ~matrix_wall_seconds:wall timed
  in
  Option.iter
    (fun path ->
      Out_channel.with_open_text path (fun oc -> output_string oc json);
      Printf.printf "wrote %s (%d cells, %.1f s wall)\n" path
        (List.length timed) wall)
    path;
  let r =
    match Gate.of_string ~label:"<report>" json with
    | Ok r -> r
    | Error e -> die exit_check "self-check FAIL: report does not parse: %s" e
  in
  let keys = List.map (fun (c : Gate.cell_rec) -> Runner.key c.id) r.cells in
  check (r.schema = Report.schema) "report has the wrong schema";
  check
    (List.length (List.sort_uniq compare keys) = List.length keys)
    "report cells collide under one key";
  r

(* ------------------------------------------------------------------ *)
(* paper *)

let paper ~jobs ~smoke names =
  let all = Paper.experiments ~smoke in
  let chosen =
    if names = [] then all
    else
      List.map (fun n -> List.find (fun e -> e.Paper.name = n) all) names
  in
  let timed, _ =
    run_cells ~jobs (List.concat_map (fun e -> e.Paper.needs) chosen)
  in
  let results = Hashtbl.create 128 in
  List.iter
    (fun (t : Runner.timed) ->
      Hashtbl.replace results (Runner.key (Runner.id t.cell)) t.result)
    timed;
  let lookup c =
    let k = Runner.key (Runner.id c) in
    match Hashtbl.find_opt results k with
    | Some r -> r
    | None -> invalid_arg ("paper: no experiment declared cell " ^ k)
  in
  List.iter (fun e -> e.Paper.print lookup) chosen

(* ------------------------------------------------------------------ *)
(* record / compare / gate *)

let print_dispatch label run =
  match Gate.dispatch_geomean run with
  | Some g ->
      Printf.printf "dispatch geomean speedup (switch/closure) %s: %.3fx\n"
        label g
  | None -> ()

let record ~jobs path =
  let timed, wall = run_cells ~jobs (Report.default_cells ()) in
  print_dispatch "recorded" (report ~path ~jobs ~wall timed)

(* Blame on failure: when the gate trips on a cycle regression, explain
   it — per-loop cycle deltas decomposed by stall bin (lib/diff's blame
   report), so a red gate ships its own diagnosis instead of a bare
   cycle count.

   Two-sided when both reports embed the profiled cell's blame payload
   (reports written by the current Report.to_json_string do); when the
   baseline predates the blame lane, gate falls back to a one-sided
   fresh profiled re-run of the regressed cell — where the cycles go
   now, even if the delta can't be split per loop. *)

let rundata_of_cell name (c : Gate.cell_rec) =
  match c.Gate.blame with
  | Some payload -> Diff.Rundata.of_json payload
  | None -> Error (name ^ " carries no blame payload")

(* The one-sided fallback rendering: the fresh run's hottest loops. *)
let print_one_sided (rd : Diff.Rundata.t) =
  List.iteri
    (fun i (l : Profile.Report.loop_row) ->
      if i < 5 then
        Printf.printf "  %s/%s: %d cycles\n" l.l_method
          (if l.l_loop < 0 then "(straight-line)"
           else Printf.sprintf "loop%d" l.l_loop)
          l.l_total)
    rd.profile.loops

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
           gate for a fresh profiled diagnosis\n"
          why
  in
  match c.Gate.cycle_regressions with
  | [] -> ()
  | regressed ->
      List.iteri (fun i p -> if i < max_explained then explain p) regressed;
      let dropped = List.length regressed - max_explained in
      if dropped > 0 then
        Printf.printf
          "\n(%d more regressed cell(s) not explained; fix the above \
           first)\n"
          dropped

let compare_runs ?threshold ?rerun a b =
  let c = ok_or exit_input (Gate.compare_runs ?threshold ~a ~b ()) in
  print_string (Gate.render c);
  print_dispatch "A" a;
  print_dispatch "B" b;
  if not (Gate.passes c) then explain_regressions ?rerun c;
  exit (Gate.gate_exit c)

let load path = ok_or exit_input (Gate.load path)

let gate ?threshold ~jobs baseline_path =
  let a = load baseline_path in
  let timed, wall = run_cells ~jobs (Report.default_cells ()) in
  let b = report ~jobs ~wall timed in
  (* The fresh run is still in memory: a regressed cell whose baseline
     has no blame payload is re-run with the profiler installed (one
     cell — cheap next to the matrix) for the one-sided diagnosis. *)
  let rerun (p : Gate.pair) =
    match
      List.find_opt
        (fun (t : Runner.timed) -> Runner.key (Runner.id t.cell) = p.key)
        timed
    with
    | None -> Error "regressed cell not found in the fresh run"
    | Some t ->
        let t =
          match t.result.H.profile with
          | Some _ -> t
          | None -> Runner.run_cell { t.cell with profile = true }
        in
        Diff.Rundata.of_run ~config:(Runner.config t.cell) t.result
  in
  compare_runs ?threshold ~rerun a b

(* ------------------------------------------------------------------ *)
(* sweep arbitration: the SW/HW arbitration sweep. The paper hands
   strides shorter than half a cache line to the hardware prefetcher
   (Section 4.1's "the hardware already covers short strides"); this
   sweep measures where that handoff point actually sits for each
   machine's hardware model by gridding the SW inter-stride threshold
   against the hardware prefetch models and summing simulated cycles
   over a fixed workload set. The minimum-cycle point per machine is the
   auto-picked arbitration point, reported in the bench JSON's
   "arbitration" lane; every grid cell also lands in "cells" under a
   distinct /hw=... /thr=N key.

   --smoke runs a 2x2 grid on Euler x pentium4, small enough for dune
   runtest. Either size checks the lane's invariants: each pick is its
   machine's grid minimum, and the report passes [report]'s checks. *)
type arb_point = {
  arb_machine : string;
  arb_threshold : int;  (** SW inter-stride threshold in bytes *)
  arb_hw : string;  (** hardware model spec string, e.g. "rpt:64x2@4" *)
  arb_cycles : int;  (** summed simulated cycles over the sweep workloads *)
}

let sweep_arbitration ~jobs ~smoke path =
  let workloads, machines, thresholds, hw_models =
    if smoke then
      ( [ Runner.workload "Euler" ],
        [ C.pentium4 ],
        [ 16; 32 ],
        [ C.default_stream; C.default_rpt ] )
    else
      ( List.map Runner.workload [ "db"; "compress"; "Euler" ],
        Runner.machines,
        [ 0; 16; 32; 64 ],
        [
          C.Hw_none;
          C.default_stream;
          C.default_rpt;
          C.Hw_rpt { table_size = 64; degree = 4; distance = 4 };
          C.Hw_rpt { table_size = 256; degree = 2; distance = 8 };
        ] )
  in
  let grid_points =
    List.concat_map
      (fun (machine : C.machine) ->
        List.concat_map
          (fun hw -> List.map (fun t -> (machine, hw, t)) thresholds)
          hw_models)
      machines
  in
  let cells_of (machine, hw, t) =
    List.map
      (fun w ->
        Runner.cell
          ~opts:{ SP.Options.default with inter_stride_threshold = Some t }
          w
          { machine with C.hw_prefetch = hw }
          SP.Options.Inter_intra)
      workloads
  in
  let timed, wall = run_cells ~jobs (List.concat_map cells_of grid_points) in
  let cycles = Hashtbl.create 64 in
  List.iter
    (fun (t : Runner.timed) ->
      Hashtbl.replace cycles (Runner.key (Runner.id t.cell)) t.result.H.cycles)
    timed;
  let grid =
    List.map
      (fun ((machine : C.machine), hw, t) ->
        {
          arb_machine = machine.name;
          arb_threshold = t;
          arb_hw = C.hw_prefetch_to_string hw;
          arb_cycles =
            List.fold_left
              (fun acc c ->
                acc + Hashtbl.find cycles (Runner.key (Runner.id c)))
              0
              (cells_of (machine, hw, t));
        })
      grid_points
  in
  let on (machine : C.machine) =
    List.filter (fun p -> p.arb_machine = machine.name) grid
  in
  let picks =
    List.map
      (fun machine ->
        match on machine with
        | first :: rest ->
            List.fold_left
              (fun best p -> if p.arb_cycles < best.arb_cycles then p else best)
              first rest
        | [] -> assert false)
      machines
  in
  let names = List.map (fun (w : Workloads.Workload.t) -> w.name) workloads in
  List.iter
    (fun p ->
      Printf.printf
        "arbitration pick [%s]: sw_threshold=%d hw=%s (%d cycles over %s)\n"
        p.arb_machine p.arb_threshold p.arb_hw p.arb_cycles
        (String.concat "+" names))
    picks;
  let point p =
    J.Obj
      [
        ("machine", J.Str p.arb_machine);
        ("sw_threshold", J.Int p.arb_threshold);
        ("hw_prefetch", J.Str p.arb_hw);
        ("cycles", J.Int p.arb_cycles);
      ]
  in
  let lane =
    J.Obj
      [
        ("workloads", J.List (List.map (fun n -> J.Str n) names));
        ("picks", J.List (List.map point picks));
        ("grid", J.List (List.map point grid));
      ]
  in
  ignore (report ~lanes:[ ("arbitration", lane) ] ?path ~jobs ~wall timed);
  List.iter2
    (fun machine p ->
      check
        (List.for_all (fun g -> p.arb_cycles <= g.arb_cycles) (on machine))
        "pick is not the grid minimum for its machine")
    machines picks;
  print_endline "arbitration sweep: OK"

(* sweep prediction: the JIT-compile-time lane. The hybrid tier's
   promise is purely compile-side — the address-algebra predictor's
   Certain verdicts skip the ~20 inspection iterations, Likely shortens
   them — while the simulated cycle count must stay equal or better
   (static claims that agree with inspection produce the same plans).
   This sweep runs each workload under the inspect and hybrid tiers and
   reports both sides of that trade: inspection iterations begun and
   instructions partially interpreted (saved work) next to cycles and
   prefetch-pass wall-clock. Results land in the bench JSON's
   "prediction" lane; every hybrid cell also lands in "cells" under a
   distinct /pred=hybrid key.

   --smoke runs MonteCarlo x pentium4, small enough for dune runtest.
   Either size checks the lane's contract: hybrid begins strictly fewer
   inspection iterations at equal-or-better cycles on every machine,
   and the report passes [report]'s checks. *)
let sweep_prediction ~jobs ~smoke path =
  let workloads, machines =
    if smoke then ([ Runner.workload "MonteCarlo" ], [ C.pentium4 ])
    else (Runner.workloads, Runner.machines)
  in
  let tiers = [ SP.Options.Inspect; SP.Options.Hybrid ] in
  let cells =
    List.concat_map
      (fun machine ->
        List.concat_map
          (fun prediction ->
            List.map
              (fun w ->
                (* The inspect cells are the canonical ones (default
                   knobs), so their keys match the default matrix;
                   hybrid cells carry the /pred=hybrid suffix. *)
                Runner.cell
                  ~opts:{ SP.Options.default with prediction }
                  w machine SP.Options.Inter_intra)
              workloads)
          tiers)
      machines
  in
  let timed, wall = run_cells ~jobs cells in
  (* Per cell: the tier, and inspection iterations begun and
     instructions partially interpreted, summed over the loop reports. *)
  let tier (t : Runner.timed) =
    Option.value ~default:"inspect" (Runner.id t.cell).prediction
  in
  let iterations (t : Runner.timed) =
    List.fold_left
      (fun n (r : SP.Pass.loop_report) -> n + r.iterations_observed)
      0 t.result.H.reports
  and steps (t : Runner.timed) =
    List.fold_left
      (fun n (r : SP.Pass.loop_report) -> n + r.inspection_steps)
      0 t.result.H.reports
  and cycles (t : Runner.timed) = t.result.H.cycles in
  Printf.printf "%-11s %-10s %-8s %12s %12s %12s %12s\n" "workload"
    "machine" "tier" "cycles" "iterations" "insp steps" "pass (ms)";
  List.iter
    (fun (t : Runner.timed) ->
      Printf.printf "%-11s %-10s %-8s %12d %12d %12d %12.3f\n"
        t.cell.workload.name t.cell.machine.name (tier t) (cycles t)
        (iterations t) (steps t)
        (1000.0 *. t.result.H.prefetch_pass_seconds))
    timed;
  let sum (machine : C.machine) name f =
    List.fold_left
      (fun acc (t : Runner.timed) ->
        if t.cell.machine.name = machine.name && tier t = name then acc + f t
        else acc)
      0 timed
  in
  let summaries =
    List.map
      (fun (machine : C.machine) ->
        ( machine.name,
          sum machine "inspect" iterations,
          sum machine "hybrid" iterations,
          sum machine "hybrid" cycles - sum machine "inspect" cycles ))
      machines
  in
  List.iter
    (fun (m, inspect, hybrid, delta) ->
      Printf.printf
        "prediction summary [%s]: hybrid begins %d of %d inspection \
         iterations (%d saved), cycles delta %+d\n"
        m hybrid inspect (inspect - hybrid) delta)
    summaries;
  let point (t : Runner.timed) =
    J.Obj
      [
        ("workload", J.Str t.cell.workload.name);
        ("machine", J.Str t.cell.machine.name);
        ("tier", J.Str (tier t));
        ("cycles", J.Int (cycles t));
        ("inspection_iterations", J.Int (iterations t));
        ("inspection_steps", J.Int (steps t));
        ("prefetch_pass_seconds", J.Float t.result.H.prefetch_pass_seconds);
      ]
  and summary (m, inspect, hybrid, delta) =
    J.Obj
      [
        ("machine", J.Str m);
        ("iterations_inspect", J.Int inspect);
        ("iterations_hybrid", J.Int hybrid);
        ("iterations_saved", J.Int (inspect - hybrid));
        ("cycles_delta", J.Int delta);
      ]
  in
  let lane =
    J.Obj
      [
        ("summaries", J.List (List.map summary summaries));
        ("points", J.List (List.map point timed));
      ]
  in
  ignore (report ~lanes:[ ("prediction", lane) ] ?path ~jobs ~wall timed);
  List.iter
    (fun (_, inspect, hybrid, delta) ->
      check (hybrid < inspect) "hybrid did not reduce inspection iterations";
      check (delta <= 0) "hybrid regressed simulated cycles")
    summaries;
  print_endline "prediction sweep: OK"

(* ------------------------------------------------------------------ *)
(* selftest: everything the gate promises, on one cell. *)

let selftest () =
  let cell =
    Runner.cell (Runner.workload "db") C.pentium4 SP.Options.Inter_intra
  in
  let once () = report ~jobs:1 ~wall:0.0 [ Runner.run_cell cell ] in
  let a = once () and b = once () in
  (* A huge threshold takes single-cell wall-clock noise out of the
     verdict: the self-test asserts the cycle law, not host timing. *)
  let c = ok_or exit_check (Gate.compare_runs ~threshold:10.0 ~a ~b ()) in
  print_string (Gate.render c);
  check
    (Gate.passes c && c.cycle_improvements = [])
    "identical re-runs disagree on simulated cycles";
  (* An injected +10% cycle count must trip the exact-equality gate. *)
  let b_slow =
    {
      b with
      cells =
        List.map
          (fun (r : Gate.cell_rec) ->
            { r with cycles = r.cycles + (r.cycles / 10) })
          b.cells;
    }
  in
  (match Gate.compare_runs ~threshold:10.0 ~a ~b:b_slow () with
  | Ok c' ->
      check (Gate.gate_exit c' = 1) "injected cycle regression not detected";
      print_endline "selftest: injected +10% cycles fails the gate (good)"
  | Error e -> die exit_check "self-check FAIL: %s" e);
  (* A v1 report must be refused, naming both schemas. *)
  let v1 = { a with schema = "bench_hotpath/v1" } in
  (match Gate.compare_runs ~a:v1 ~b () with
  | Error e -> print_endline ("selftest: v1 schema refused (good): " ^ e)
  | Ok _ -> die exit_check "self-check FAIL: cross-schema compare accepted");
  print_endline "selftest: OK"

(* ------------------------------------------------------------------ *)
(* The command line. *)

let positive =
  Arg.conv
    ( (fun s ->
        match int_of_string_opt s with
        | Some n when n >= 1 -> Ok n
        | _ -> Error (`Msg ("expected a positive integer, got " ^ s))),
      Format.pp_print_int )

let percentage =
  Arg.conv
    ( (fun s ->
        match float_of_string_opt s with
        | Some p when p >= 0.0 -> Ok (p /. 100.0)
        | _ -> Error (`Msg ("expected a percentage >= 0, got " ^ s))),
      fun ppf p -> Format.fprintf ppf "%g" (100.0 *. p) )

let jobs =
  Arg.(
    value
    & opt positive (Runner.default_jobs ())
    & info [ "jobs" ] ~docv:"N"
        ~doc:
          "Size of the Domain pool the simulation cells run on (default: \
           the recommended domain count). Simulated cycles do not depend \
           on it.")

let threshold =
  Arg.(
    value
    & opt (some percentage) None
    & info [ "threshold" ] ~docv:"PCT"
        ~doc:
          "Practical-significance threshold of the wall-clock gate, in \
           percent (default 5).")

let smoke =
  Arg.(
    value & flag
    & info [ "smoke" ]
        ~doc:
          "Shrink the work to a dune-runtest-sized smoke: a reduced \
           bechamel quota for $(b,micro), a one-workload grid for a sweep.")

let pos_req n docv =
  Arg.(required & pos n (some string) None & info [] ~docv)

let cmd name doc term = Cmd.v (Cmd.info name ~exits ~doc) term

let paper_cmd =
  let names =
    List.map (fun e -> e.Paper.name) (Paper.experiments ~smoke:false)
  in
  let experiments =
    Arg.(
      value
      & pos_all (enum (List.map (fun n -> (n, n)) names)) []
      & info [] ~docv:"EXPERIMENT"
          ~doc:
            ("Experiments to print, in the order given (default: all, in \
              paper order): " ^ String.concat ", " names ^ "."))
  in
  cmd "paper"
    "Regenerate the paper's tables and figures, the ablation sweep and the \
     compiler microbenchmarks. Every simulation cell the chosen experiments \
     read runs once, on the Domain pool, before any of them prints."
    Term.(
      const (fun jobs smoke names -> paper ~jobs ~smoke names)
      $ jobs $ smoke $ experiments)

let record_cmd =
  cmd "record"
    "Run the canonical matrix and write its bench_hotpath/v2 report to \
     PATH."
    Term.(const (fun jobs path -> record ~jobs path) $ jobs $ pos_req 0 "PATH")

let compare_cmd =
  cmd "compare"
    "Gate report NEW against report BASELINE: exact cycle equality per \
     matched cell, bootstrap CI on wall-clock; exit 1 on a regression."
    Term.(
      const (fun threshold a b -> compare_runs ?threshold (load a) (load b))
      $ threshold $ pos_req 0 "BASELINE" $ pos_req 1 "NEW")

let gate_cmd =
  cmd "gate"
    "Record a fresh in-memory run of the canonical matrix and gate it \
     against report BASELINE."
    Term.(
      const (fun jobs threshold path -> gate ?threshold ~jobs path)
      $ jobs $ threshold $ pos_req 0 "BASELINE")

let sweep_cmd =
  let lane =
    Arg.(
      required
      & pos 0
          (some
             (enum
                [
                  ("arbitration", sweep_arbitration);
                  ("prediction", sweep_prediction);
                ]))
          None
      & info [] ~docv:"LANE"
          ~doc:
            "$(b,arbitration): grid the SW inter-stride threshold against \
             the hardware prefetch models per machine and pick the \
             minimum-cycle point. $(b,prediction): run every workload \
             under the inspect and hybrid prediction tiers and report the \
             inspection iterations hybrid saves at equal-or-better \
             cycles.")
  and path =
    Arg.(
      value
      & pos 1 (some string) None
      & info [] ~docv:"PATH" ~doc:"Write the sweep's report here.")
  in
  cmd "sweep"
    "Run a sweep lane and check its contract (exit 1 when it fails)."
    Term.(
      const (fun jobs smoke sweep path -> sweep ~jobs ~smoke path)
      $ jobs $ smoke $ lane $ path)

let selftest_cmd =
  cmd "selftest"
    "The gate's self-check on one cell: identical re-runs gate clean, an \
     injected +10% cycle count fails, a v1 report is refused."
    Term.(const selftest $ const ())

let () =
  let info =
    Cmd.info "spf_bench" ~exits
      ~doc:
        "The bench driver: the paper's tables and figures, bench reports, \
         the regression gate and the sweeps."
  in
  exit
    (match
       Cmd.eval_value
         (Cmd.group info
            [
              paper_cmd; record_cmd; compare_cmd; gate_cmd; sweep_cmd;
              selftest_cmd;
            ])
     with
    | Ok _ -> 0
    | Error (`Parse | `Term) -> exit_input
    | Error `Exn -> Cmd.Exit.internal_error)
