(* The differential-diagnosis engine (lib/diff): the blame join's
   identity and conservation laws, the planted-regression attribution
   contract, the run record's file format (the spf_run/v1 round trip,
   the older spf_prof/v1 and spf_diff/v1 files, the bench report's blame
   payload, refusals), the injected desync self-test, and the axis
   bisector's replay algebra on synthetic cycle functions. *)

module J = Telemetry.Json
module RD = Diff.Rundata
module R = Profile.Report
module B = Diff.Blame
module Bi = Diff.Bisect
module O = Strideprefetch.Options

let all_workloads = Workloads.Specjvm.all @ Workloads.Javagrande.all

let find_workload name =
  List.find (fun (w : Workloads.Workload.t) -> w.name = name) all_workloads

let profiled_run ?(opts = O.default) ?(mode = O.Inter_intra) name =
  Workloads.Harness.run ~opts ~profile:true ~mode
    ~machine:Memsim.Config.pentium4 (find_workload name)

let record ?opts ?(mode = O.Inter_intra) name =
  let config = { Bi.default_config with Bi.mode } in
  match RD.of_run ~config (profiled_run ?opts ~mode name) with
  | Ok rd -> rd
  | Error e -> Alcotest.failf "record failed: %s" e

let check_conservation label bl =
  match B.check bl with
  | None -> ()
  | Some msg -> Alcotest.failf "%s: conservation violated: %s" label msg

let check_self_diff_empty label rd =
  let bl = B.build ~a:rd ~b:rd () in
  Alcotest.(check int) (label ^ ": self diff empty") 0 bl.B.total_delta;
  check_conservation label bl

(* ------------------------------------------------------------------ *)
(* Identity law: a run diffed against itself blames nothing.           *)

let test_self_diff_empty () =
  let rd = record "Euler" in
  let bl = B.build ~a:rd ~b:rd () in
  Alcotest.(check int) "total delta" 0 bl.B.total_delta;
  Alcotest.(check int) "gc delta" 0 bl.B.gc_delta;
  Array.iter (fun d -> Alcotest.(check int) "bin delta" 0 d) bl.B.bin_deltas;
  List.iter
    (fun (d : B.loop_delta) -> Alcotest.(check int) "loop delta" 0 d.d_delta)
    bl.B.loops;
  Alcotest.(check bool) "no provenance changes" true (bl.B.provenance = []);
  check_conservation "self diff" bl

(* A real two-sided diff (inter+intra vs off) holds the law and renders
   deterministically. *)
let test_real_diff_deterministic () =
  let a = record ~mode:O.Off "Euler" and b = record "Euler" in
  let bl1 = B.build ~a ~b () and bl2 = B.build ~a ~b () in
  check_conservation "off vs inter+intra" bl1;
  Alcotest.(check int)
    "delta is the cycle difference"
    (b.RD.profile.cycles - a.RD.profile.cycles)
    bl1.B.total_delta;
  Alcotest.(check string)
    "render is deterministic" (B.render bl1) (B.render bl2);
  (* The blame JSON is well-formed. *)
  match J.parse (J.to_string (B.to_json bl1)) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "blame JSON does not re-parse: %s" e

(* ------------------------------------------------------------------ *)
(* Attribution contract: a planted single-loop perturbation is named
   top-1, with the right dominant bin.                                 *)

let test_planted_loop_blamed () =
  let rd = record "Euler" in
  let p = rd.RD.profile in
  let mem_idx =
    match
      List.mapi (fun i (n, _) -> (n, i)) R.bin_fields |> List.assoc_opt "mem"
    with
    | Some i -> i
    | None -> Alcotest.fail "no mem bin"
  in
  (* Perturb the hottest loop by +10% of its cycles, charged to mem. *)
  let victim =
    List.fold_left
      (fun (best : R.loop_row) (l : R.loop_row) ->
        if l.l_total > best.l_total then l else best)
      (List.hd p.loops) p.loops
  in
  let d = (victim.l_total / 10) + 1 in
  let plus_mem bins =
    let b = Profile.Collector.zero_bins () in
    Profile.Collector.add_bins ~into:b bins;
    b.b_mem <- b.b_mem + d;
    b
  in
  let bump (l : R.loop_row) =
    if (l.l_method, l.l_loop) = (victim.l_method, victim.l_loop) then
      { l with l_bins = plus_mem l.l_bins; l_total = l.l_total + d }
    else l
  in
  let perturbed =
    {
      rd with
      RD.profile =
        {
          p with
          cycles = p.cycles + d;
          totals = plus_mem p.totals;
          loops = List.map bump p.loops;
        };
    }
  in
  let bl = B.build ~a:rd ~b:perturbed () in
  check_conservation "planted" bl;
  Alcotest.(check int) "total delta is the plant" d bl.B.total_delta;
  match B.top_loop bl with
  | None -> Alcotest.fail "no top loop"
  | Some top ->
      Alcotest.(check string) "top-1 method" victim.l_method top.B.d_method;
      Alcotest.(check int) "top-1 loop" victim.l_loop top.B.d_loop;
      Alcotest.(check int) "top-1 delta" d top.B.d_delta;
      Alcotest.(check int) "charged to mem" d top.B.d_bins.(mem_idx)

(* The desync injection must make the conservation check fail — the
   self-test that the check can catch a corrupted join. *)
let test_fault_desync_caught () =
  let rd = record "Euler" in
  let faults = Vm.Fault.of_list [ Vm.Fault.Diff_desync ] in
  let bl = B.build ~faults ~a:rd ~b:rd () in
  match B.check bl with
  | Some _ -> ()
  | None -> Alcotest.fail "injected desync not reported"

(* ------------------------------------------------------------------ *)
(* The file format.                                                    *)

let reparse json =
  match J.parse (J.to_string json) with
  | Ok v -> RD.of_json v
  | Error e -> Alcotest.failf "record does not re-parse: %s" e

let ok_record = function
  | Ok rd -> rd
  | Error e -> Alcotest.failf "record rejected: %s" e

(* Method ids are in-memory join keys, not part of the row format. *)
let without_method_ids (rd : RD.t) =
  {
    rd with
    RD.profile =
      {
        rd.profile with
        pcs = List.map (fun (r : R.pc_row) -> { r with method_id = -1 })
                rd.profile.pcs;
      };
  }

let test_record_round_trip () =
  let rd = record "Euler" in
  Alcotest.(check bool) "carries attribution" true (rd.RD.attribution <> None);
  Alcotest.(check bool) "carries provenance" true (rd.RD.provenance <> []);
  let hybrid =
    match
      Bi.apply_overrides Bi.default_config
        "prediction=hybrid,threshold=64,phased=on,machine=athlonmp,hw=none"
    with
    | Ok c -> c
    | Error e -> Alcotest.fail e
  in
  List.iter
    (fun (label, rd) ->
      let rd' = ok_record (reparse (RD.to_json rd)) in
      Alcotest.(check bool)
        (label ^ ": round-trips exactly") true
        (rd' = without_method_ids rd))
    [
      ("default config", rd);
      ("overridden config", { rd with RD.config = Some hybrid });
      ("no config", { rd with RD.config = None; attribution = None });
    ]

let test_prof_report_ingest () =
  let r = profiled_run "Euler" in
  let rep = Option.get r.Workloads.Harness.profile in
  let rd = ok_record (RD.of_json (R.to_json rep)) in
  Alcotest.(check int) "cycles carried over" rep.cycles rd.RD.profile.cycles;
  Alcotest.(check bool) "config unknown" true (rd.RD.config = None);
  Alcotest.(check int) "all loops carried over"
    (List.length rep.loops)
    (List.length rd.RD.profile.loops);
  check_self_diff_empty "prof ingest" rd

(* The spf_diff/v1 snapshots older versions wrote: no per-pc rows, and a
   config whose booleans, integers and null spell on/off, N and default. *)
let test_legacy_diff_ingest () =
  let rd = record "Euler" in
  let profile_members =
    List.filter (fun (k, _) -> k <> "pcs") (R.members rd.RD.profile)
  in
  let legacy threshold =
    J.Obj
      ([
         ("schema", J.Str "spf_diff/v1");
         ( "config",
           J.Obj
             [
               ("workload", J.Str "Euler");
               ("machine", J.Str "pentium4");
               ("mode", J.Str "INTER+INTRA");
               ("engine", J.Str "closure");
               ("hw", J.Str "stream:8");
               ("prediction", J.Str "hybrid");
               ("threshold", threshold);
               ("passes", J.Bool true);
               ("phased", J.Bool false);
               ("interprocedural", J.Bool true);
             ] );
       ]
      @ profile_members)
  in
  let expect threshold =
    Some
      {
        Bi.default_config with
        Bi.prediction = O.Hybrid;
        threshold;
        interproc = true;
      }
  in
  List.iter
    (fun (json, threshold) ->
      let old = ok_record (RD.of_json json) in
      Alcotest.(check string) "workload" "Euler" old.RD.workload;
      Alcotest.(check bool) "typed config" true (old.RD.config = expect threshold);
      Alcotest.(check int) "loops" (List.length rd.RD.profile.loops)
        (List.length old.RD.profile.loops);
      let bl = B.build ~a:old ~b:rd () in
      Alcotest.(check int) "diff vs the live record is empty" 0
        bl.B.total_delta;
      check_conservation "legacy" bl)
    [ (legacy (J.Int 64), Some 64); (legacy J.Null, None) ]

(* The bench report's blame payload is the run record minus its per-pc
   rows; blame needs none of them. *)
let test_bench_blame_ingest () =
  let rd = record "Euler" in
  let payload =
    { rd with RD.profile = { rd.RD.profile with pcs = [] } }
  in
  let rd' = ok_record (reparse (RD.to_json payload)) in
  Alcotest.(check bool) "payload round-trips" true (rd' = payload);
  let bl = B.build ~a:rd ~b:rd' () in
  Alcotest.(check int) "diff vs the full record is empty" 0 bl.B.total_delta;
  Alcotest.(check bool) "same blame as a self diff" true
    (B.render bl = B.render (B.build ~a:rd ~b:rd ()));
  check_conservation "bench blame" bl

let refused ~affix json =
  match RD.of_json json with
  | Ok _ -> Alcotest.failf "accepted %s" (J.to_string json)
  | Error e ->
      Alcotest.(check bool)
        (Printf.sprintf "%S names %s" e affix)
        true (Helpers.contains e affix)

let test_unknown_schema_refused () =
  refused ~affix:"spf_prof/v9" (J.Obj [ ("schema", J.Str "spf_prof/v9") ]);
  refused ~affix:"schema" (J.Obj [ ("cycles", J.Int 1) ])

(* A truncated file must not load as a 0-cycle run. *)
let test_truncated_record_refused () =
  let schema = ("schema", J.Str RD.schema) in
  refused ~affix:"\"cycles\"" (J.Obj [ schema ]);
  refused ~affix:"\"totals\"" (J.Obj [ schema; ("cycles", J.Int 10) ]);
  refused ~affix:"\"loops\""
    (J.Obj [ schema; ("cycles", J.Int 10); ("totals", J.Obj []) ]);
  refused ~affix:"unknown axis"
    (J.Obj
       [
         schema;
         ("config", J.Obj [ ("colour", J.Str "blue") ]);
         ("cycles", J.Int 0);
         ("totals", J.Obj []);
         ("loops", J.List []);
       ])

(* ------------------------------------------------------------------ *)
(* The axis bisector, on synthetic replay functions (pure, no VM).     *)

let axis = Alcotest.testable (Fmt.of_to_string Bi.axis_name) ( = )

let test_bisect_single_axis () =
  let a = Bi.default_config in
  let b = { a with Bi.mode = O.Off } in
  let replay (c : Bi.config) = if c.Bi.mode = O.Off then 2000 else 1000 in
  let o = Bi.run ~replay ~a ~b in
  Alcotest.(check (list axis)) "responsible" [ Bi.Mode ] o.Bi.responsible;
  Alcotest.(check bool) "exact" true o.Bi.exact;
  Alcotest.(check int) "a single differing axis needs no probe" 2 o.Bi.replays

let test_bisect_planted_among_neutral () =
  let a = Bi.default_config in
  let b = { a with Bi.mode = O.Off; engine = Vm.Interp.Switch } in
  (* The engine axis is cycle-neutral (the engines' contract); only the
     mode moves cycles. *)
  let replay (c : Bi.config) = if c.Bi.mode = O.Off then 2000 else 1000 in
  let o = Bi.run ~replay ~a ~b in
  Alcotest.(check (list axis))
    "candidates in canonical order" [ Bi.Mode; Bi.Engine ] o.Bi.candidates;
  Alcotest.(check (list axis)) "mode blamed" [ Bi.Mode ] o.Bi.responsible;
  Alcotest.(check bool) "exact" true o.Bi.exact;
  Alcotest.(check int) "early stop: 3 replays" 3 o.Bi.replays

let test_bisect_pure_interaction () =
  let a = Bi.default_config in
  let b = { a with Bi.mode = O.Off; prediction = O.Hybrid } in
  let replay (c : Bi.config) =
    if c.Bi.mode = O.Off && c.Bi.prediction = O.Hybrid then 1500 else 1000
  in
  let o = Bi.run ~replay ~a ~b in
  Alcotest.(check (list axis))
    "no single flip moves: whole candidate set"
    [ Bi.Mode; Bi.Prediction ] o.Bi.responsible;
  Alcotest.(check bool) "exact (flipping all is B)" true o.Bi.exact

let test_bisect_joint_verification () =
  let a = Bi.default_config in
  let b = { a with Bi.mode = O.Off; threshold = Some 64 } in
  let replay (c : Bi.config) =
    1000
    + (if c.Bi.mode = O.Off then 300 else 0)
    + if c.Bi.threshold = Some 64 then 200 else 0
  in
  let o = Bi.run ~replay ~a ~b in
  Alcotest.(check (list axis))
    "both movers blamed" [ Bi.Mode; Bi.Threshold ] o.Bi.responsible;
  Alcotest.(check bool) "joint flip verified against B" true o.Bi.exact;
  (* A, B, two single-axis probes, one joint verification. *)
  Alcotest.(check int) "replays" 5 o.Bi.replays

let test_bisect_axis_names () =
  List.iter
    (fun ax ->
      match Bi.axis_of_name (Bi.axis_name ax) with
      | Some ax' -> Alcotest.check axis "name round trip" ax ax'
      | None -> Alcotest.failf "axis %s unparsed" (Bi.axis_name ax))
    Bi.all_axes;
  (* The hw axis compares resolved specs: [None] (machine default) and
     the machine's own model spelled explicitly do not differ. *)
  let a = Bi.default_config in
  let b = { a with Bi.hw = Some Memsim.Config.default_stream } in
  Alcotest.(check (list axis)) "resolved hw equal" [] (Bi.differing ~a ~b);
  (* --vs keys are spelled like the run-configuration flags, and the
     phased/interprocedural axes reach the pass options a replay uses. *)
  match
    Bi.apply_overrides a "hw-prefetch=none,phased=on,interprocedural=on"
  with
  | Error e -> Alcotest.fail e
  | Ok b ->
      Alcotest.(check (list axis))
        "flag-named overrides" [ Bi.Hw; Bi.Phased; Bi.Interproc ]
        (Bi.differing ~a ~b);
      let o = Bi.options b in
      Alcotest.(check (pair bool bool))
        "options carry the axes" (true, true)
        (o.O.enable_phased, o.O.inspect_calls)

let suite =
  [
    ("blame: self diff is empty", `Slow, test_self_diff_empty);
    ( "blame: real twin diff conserves and renders deterministically",
      `Slow, test_real_diff_deterministic );
    ("blame: planted loop perturbation named top-1", `Slow,
     test_planted_loop_blamed);
    ("blame: injected desync breaks conservation", `Slow,
     test_fault_desync_caught);
    ("rundata: spf_run/v1 round trip", `Slow, test_record_round_trip);
    ("rundata: spf_prof/v1 ingest", `Slow, test_prof_report_ingest);
    ("rundata: spf_diff/v1 ingest", `Slow, test_legacy_diff_ingest);
    ("rundata: bench blame payload ingest", `Slow, test_bench_blame_ingest);
    ("rundata: unknown schema refused", `Quick, test_unknown_schema_refused);
    ("rundata: truncated record refused", `Quick,
     test_truncated_record_refused);
    ("bisect: single differing axis", `Quick, test_bisect_single_axis);
    ("bisect: planted axis among neutral in 3 replays", `Quick,
     test_bisect_planted_among_neutral);
    ("bisect: pure interaction blames the set", `Quick,
     test_bisect_pure_interaction);
    ("bisect: joint verification of movers", `Quick,
     test_bisect_joint_verification);
    ("bisect: axis names and resolved hw", `Quick, test_bisect_axis_names);
  ]
