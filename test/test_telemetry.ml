(* Tests for the telemetry layer: the canonical stats field list, the
   JSON pipeline, the event ring, the site registry, the observer-effect
   golden (telemetry on/off bit-identical), deterministic
   coverage/accuracy on handcrafted strided loops, and well-formedness
   of the Chrome-trace / JSONL exports. *)

module S = Memsim.Stats
module J = Telemetry.Json
module A = Telemetry.Attrib
module W = Workloads.Workload
module H = Workloads.Harness
module E = Workloads.Effectiveness
module O = Strideprefetch.Options

(* ------------------------------------------------------------------ *)
(* Stats: the canonical field list. *)

let test_stats_field_count () =
  (* Every counter is an immediate int, so the runtime block size of the
     record equals the number of fields: adding a counter without
     extending [S.fields] fails here. *)
  Alcotest.(check int)
    "fields covers every record field"
    (Obj.size (Obj.repr (S.create ())))
    (List.length S.fields);
  let names = List.map (fun (n, _, _) -> n) S.fields in
  Alcotest.(check int)
    "field names unique"
    (List.length names)
    (List.length (List.sort_uniq compare names));
  List.iter
    (fun n ->
      Alcotest.(check bool)
        (n ^ " is a declared field")
        true (List.mem n names))
    S.telemetry_only

let test_stats_alists () =
  let s = S.create () in
  (* distinct value per field through the canonical setters *)
  List.iteri (fun i (_, _, set) -> set s (100 + i)) S.fields;
  Alcotest.(check (list (pair string int)))
    "to_alist follows the field list"
    (List.mapi (fun i (n, _, _) -> (n, 100 + i)) S.fields)
    (S.to_alist s);
  Alcotest.(check (list (pair string int)))
    "core_alist = to_alist minus telemetry_only"
    (List.filter
       (fun (n, _) -> not (List.mem n S.telemetry_only))
       (S.to_alist s))
    (S.core_alist s);
  let c = S.copy s in
  Alcotest.(check (list (pair string int)))
    "copy preserves every counter" (S.to_alist s) (S.to_alist c);
  let fresh = S.create () in
  S.copy_into s ~into:fresh;
  Alcotest.(check (list (pair string int)))
    "copy_into preserves every counter" (S.to_alist s) (S.to_alist fresh);
  Alcotest.(check (list (pair string int)))
    "add is component-wise"
    (List.map (fun (n, v) -> (n, 2 * v)) (S.to_alist s))
    (S.to_alist (S.add s s));
  S.reset s;
  List.iter
    (fun (n, v) -> Alcotest.(check int) (n ^ " reset to 0") 0 v)
    (S.to_alist s)

(* ------------------------------------------------------------------ *)
(* JSON: print/parse round trip. *)

let test_json_roundtrip () =
  let v =
    J.Obj
      [
        ("s", J.Str "a\"b\\c\nd");
        ("i", J.Int (-42));
        ("f", J.Float 1.5);
        ("b", J.Bool true);
        ("n", J.Null);
        ("l", J.List [ J.Int 1; J.Str ""; J.Obj [] ]);
      ]
  in
  (match J.parse (J.to_string v) with
  | Ok v' -> Alcotest.(check bool) "round trip" true (v = v')
  | Error e -> Alcotest.failf "parse failed: %s" e);
  (match J.parse "{\"a\": 1" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "truncated object accepted");
  match J.parse "1 2" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "trailing garbage accepted"

(* Parser and printer edge cases: escape handling, numeric extremes,
   deep nesting, duplicate keys. *)
let test_json_edge_cases () =
  (* \u escapes: ASCII code points become the literal character; the
     single-byte printer degrades non-ASCII to '?' rather than emitting
     broken UTF-8. Bad hex is a parse error, not a silent skip. *)
  (match J.parse "\"\\u0041\"" with
  | Ok (J.Str "A") -> ()
  | Ok v -> Alcotest.failf "\\u0041 parsed as %s" (J.to_string v)
  | Error e -> Alcotest.failf "\\u0041 rejected: %s" e);
  (match J.parse "\"\\u00e9\"" with
  | Ok (J.Str "?") -> ()
  | Ok v -> Alcotest.failf "\\u00e9 parsed as %s" (J.to_string v)
  | Error e -> Alcotest.failf "\\u00e9 rejected: %s" e);
  (match J.parse "\"\\uZZZZ\"" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad \\u hex accepted");
  (* Control characters survive a print/parse cycle via \u escapes. *)
  let ctl = J.Str "\x01\x02\x1f" in
  (match J.parse (J.to_string ctl) with
  | Ok v -> Alcotest.(check bool) "control chars round trip" true (v = ctl)
  | Error e -> Alcotest.failf "control-char string rejected: %s" e);
  (* Integer extremes round-trip as Int, not as a lossy float. *)
  let ints = J.List [ J.Int max_int; J.Int min_int; J.Int 0 ] in
  (match J.parse (J.to_string ints) with
  | Ok v -> Alcotest.(check bool) "max_int/min_int round trip" true (v = ints)
  | Error e -> Alcotest.failf "integer extremes rejected: %s" e);
  (* Deep nesting: the parser is not recursion-limited at report depths. *)
  let deep = String.concat "" (List.init 200 (fun _ -> "[")) ^ "1"
             ^ String.concat "" (List.init 200 (fun _ -> "]")) in
  (match J.parse deep with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "200-deep nesting rejected: %s" e);
  (* Duplicate keys: member returns the first binding; the printer
     preserves both (it never deduplicates behind the writer's back). *)
  match J.parse "{\"k\": 1, \"k\": 2}" with
  | Error e -> Alcotest.failf "duplicate keys rejected: %s" e
  | Ok dup ->
      (match J.member "k" dup with
      | Some (J.Int 1) -> ()
      | _ -> Alcotest.fail "member does not return the first duplicate");
      Alcotest.(check string) "printer keeps both bindings"
        "{\"k\":1,\"k\":2}" (J.to_string dup)

(* Table ratio guards: division by zero renders as absent, and rounding
   never fabricates an exact 0% or 100% for a boundary-adjacent count. *)
let test_table_guards () =
  let check_cell name want got = Alcotest.(check string) name want got in
  let module T = Telemetry.Table in
  check_cell "0/0 is absent" "-" (T.cell_ratio 0 0);
  check_cell "negative denominator is absent" "-" (T.cell_ratio 5 (-1));
  check_cell "true zero" "0.0%" (T.cell_ratio 0 10);
  check_cell "tiny nonzero never rounds to 0.0%" "0.1%"
    (T.cell_ratio 1 100000);
  check_cell "near-total never rounds to 100.0%" "99.9%"
    (T.cell_ratio 99999 100000);
  check_cell "exact total is 100.0%" "100.0%" (T.cell_ratio 10 10);
  check_cell "plain ratio" "50.0%" (T.cell_ratio 1 2);
  check_cell "NaN pct is absent" "-" (T.cell_pct Float.nan);
  check_cell "+inf pct is absent" "-" (T.cell_pct Float.infinity);
  check_cell "-inf pct is absent" "-" (T.cell_pct Float.neg_infinity);
  check_cell "plain pct" "12.5%" (T.cell_pct 0.125)

(* ------------------------------------------------------------------ *)
(* The event ring: overwrite-on-wrap with a drop count. *)

(* Drops self-report: once the drop count crosses a doubling mark the
   sink records a ["ring.dropped"] counter event in the ring itself, so
   truncation is visible mid-run, not only at exit. With capacity 4 and
   ten instants e0..e9 the add sequence is forced:

     e0 e1 e2 e3          fill, no drops
     e4  -> d=1 >= mark 1  -> C(d=1), mark 2
     e5  -> d=3 >= mark 2  -> C(d=3), mark 6
     e6  -> d=5 <  mark 6
     e7  -> d=6 >= mark 6  -> C(d=6), mark 12
     e8 e9                 -> d=9

   13 adds total, 9 dropped, retained window [e7; C; e8; e9]. *)
let test_ring_wrap () =
  let sink = Telemetry.Sink.create ~capacity:4 () in
  for i = 0 to 9 do
    Telemetry.Sink.instant sink (Printf.sprintf "e%d" i)
  done;
  Alcotest.(check int) "user events + 3 self-reports counted" 13
    (Telemetry.Sink.total_events sink);
  Alcotest.(check int) "oldest overwritten" 9 (Telemetry.Sink.dropped sink);
  Alcotest.(check (list string))
    "retained window is the newest events, oldest first"
    [ "e7"; "ring.dropped"; "e8"; "e9" ]
    (List.map
       (fun (e : Telemetry.Event.t) -> e.name)
       (Telemetry.Sink.events sink));
  let c =
    List.find
      (fun (e : Telemetry.Event.t) -> e.name = "ring.dropped")
      (Telemetry.Sink.events sink)
  in
  Alcotest.(check bool) "self-report is a counter" true
    (c.phase = Telemetry.Event.Counter);
  Alcotest.(check bool) "self-report carries the drop count at fire time"
    true
    (List.assoc_opt "dropped" c.args = Some (Telemetry.Json.Int 6))

(* ------------------------------------------------------------------ *)
(* The site registry. *)

let test_attrib_registry () =
  let t = A.create () in
  let k0 = A.Inter_site { method_id = 3; site = 7 } in
  let k1 = A.Indirect_site { method_id = 3; reg = 1; offset = 8 } in
  let id0 = A.site_id t k0 in
  let id1 = A.site_id t k1 in
  Alcotest.(check int) "dense ids from 0" 0 id0;
  Alcotest.(check int) "next id" 1 id1;
  Alcotest.(check int) "allocate-or-reuse" id0 (A.site_id t k0);
  Alcotest.(check int) "n_sites" 2 (A.n_sites t);
  Alcotest.(check bool) "key_of_id round trip" true (A.key_of_id t id1 = k1);
  Alcotest.(check bool) "unregistered meta" true (A.meta_of_id t id0 = None);
  let meta =
    {
      A.method_name = "K.walk";
      loop_id = 0;
      kind = A.Intra;
      anchor_site = 2;
      target_site = 5;
    }
  in
  A.register t k0 meta;
  Alcotest.(check bool) "meta joined by key" true (A.meta_of_id t id0 = Some meta);
  let dk = A.demand_key ~method_id:123 ~site:456 in
  Alcotest.(check int) "demand_key method" 123 (A.demand_key_method dk);
  Alcotest.(check int) "demand_key site" 456 (A.demand_key_site dk)

(* ------------------------------------------------------------------ *)
(* Harness fixtures: handcrafted strided loops, hot enough to be JIT
   compiled under the harness's default options. *)

let workload ~name source =
  {
    W.name;
    suite = `Specjvm;
    description = "telemetry test fixture";
    paper_note = "";
    source;
    heap_limit_bytes = 16 * 1024 * 1024;
  }

(* Array-of-objects walk: allocation order gives the field load a large
   constant inter-iteration stride (the object footprint), so the pass
   emits a plain inter prefetch for it. The padding keeps the stride
   above half a cache line (small strides are rejected as already
   covered). *)
let walk =
  workload ~name:"telemetry-walk"
    {|
class Cell {
  int v;
  int p0; int p1; int p2; int p3; int p4; int p5; int p6; int p7;
  int p8; int p9; int p10; int p11; int p12; int p13; int p14; int p15;
  Cell(int x) { v = x; }
}
class K {
  static int walk(Cell[] cs, int n) {
    int acc = 0;
    for (int i = 0; i < n; i = i + 1) { acc = (acc + cs[i].v) % 7919; }
    return acc;
  }
  static void main() {
    Cell[] cs = new Cell[4000];
    for (int i = 0; i < 4000; i = i + 1) { cs[i] = new Cell(i * 3); }
    int acc = 0;
    for (int r = 0; r < 6; r = r + 1) { acc = (acc + K.walk(cs, 4000)) % 7919; }
    print(acc);
  }
}
|}

(* Shuffled ref-array scan: the permutation destroys the inter stride of
   the dereferenced field load, so the pass falls back to the paper's
   dereference scheme — a guarded spec_load of the upcoming ref plus an
   indirect prefetch through it (spec + deref site kinds). *)
let scan =
  workload ~name:"telemetry-scan"
    {|
class Rec {
  int p0; int p1; int p2; int p3; int p4; int p5; int p6; int p7;
  int p8; int p9; int p10; int p11; int p12; int p13; int p14; int p15;
  int key;
  Rec(int x) { key = x; }
}
class K {
  static int scan(Rec[] rs, int n) {
    int acc = 0;
    for (int i = 0; i < n; i = i + 1) {
      Rec r = rs[i];
      acc = (acc + r.key) % 7919;
    }
    return acc;
  }
  static void main() {
    Rec[] rs = new Rec[8000];
    for (int i = 0; i < 8000; i = i + 1) { rs[i] = new Rec(i * 3); }
    for (int i = 0; i < 8000; i = i + 1) {
      int j = (i * 4973) % 8000;
      Rec t = rs[i]; rs[i] = rs[j]; rs[j] = t;
    }
    int acc = 0;
    for (int t = 0; t < 6; t = t + 1) { acc = (acc + K.scan(rs, 8000)) % 7919; }
    print(acc);
  }
}
|}

let machine = Memsim.Config.pentium4

let run ?(telemetry = false) w =
  H.run ~telemetry ~mode:O.Inter_intra ~machine w

(* One simulation per fixture/config, shared across the tests below. *)
let walk_plain = lazy (run walk)
let walk_telem = lazy (run ~telemetry:true walk)
let scan_telem = lazy (run ~telemetry:true scan)

(* ------------------------------------------------------------------ *)
(* The observer-effect golden: telemetry observes, never participates. *)

let test_golden_bit_identical () =
  let plain = Lazy.force walk_plain and telem = Lazy.force walk_telem in
  Alcotest.(check string) "output identical" plain.H.output telem.H.output;
  Alcotest.(check int) "cycles bit-identical" plain.H.cycles telem.H.cycles;
  Alcotest.(check (list (pair string int)))
    "every core counter bit-identical"
    (S.core_alist plain.H.stats)
    (S.core_alist telem.H.stats);
  (* the plain run must not even maintain the telemetry-only counters *)
  List.iter
    (fun (n, v) ->
      if List.mem n S.telemetry_only then
        Alcotest.(check int) (n ^ " zero in plain run") 0 v)
    (S.to_alist plain.H.stats);
  Alcotest.(check bool) "plain run has no sink" true (plain.H.sink = None);
  Alcotest.(check bool)
    "plain run has no effectiveness report" true
    (plain.H.effectiveness = None)

(* ------------------------------------------------------------------ *)
(* Deterministic coverage/accuracy on the handcrafted loops. *)

let check_conservation label (eff : E.t) =
  let t = eff.totals in
  Alcotest.(check int)
    (label ^ ": issued = cancelled+redundant+redundant_hw+useful+late+useless")
    t.Memsim.Attribution.issued
    (t.cancelled + t.redundant + t.redundant_hw + t.useful + t.late
   + t.useless);
  List.iter
    (fun (r : E.site_row) ->
      let c = r.counters in
      Alcotest.(check int)
        (Format.asprintf "%s: site %a books balance" label A.pp_key r.key)
        c.Memsim.Attribution.issued
        (c.cancelled + c.redundant + c.redundant_hw + c.useful + c.late
       + c.useless))
    eff.rows

let in_unit label v =
  Alcotest.(check bool)
    (Printf.sprintf "%s in [0,1] (got %g)" label v)
    true
    (v >= 0.0 && v <= 1.0)

let check_effectiveness label (r : H.run_result) =
  match r.H.effectiveness with
  | None -> Alcotest.fail (label ^ ": no effectiveness report")
  | Some eff ->
      Alcotest.(check bool) (label ^ ": sites attributed") true (eff.rows <> []);
      check_conservation label eff;
      Alcotest.(check bool)
        (label ^ ": some prefetches were useful")
        true
        (eff.totals.Memsim.Attribution.useful > 0);
      in_unit (label ^ ": total coverage") eff.total_coverage;
      in_unit (label ^ ": total accuracy") eff.total_accuracy;
      List.iter
        (fun (row : E.site_row) ->
          Alcotest.(check bool)
            (Format.asprintf "%s: %a registered by the pass" label A.pp_key
               row.key)
            true (row.meta <> None);
          in_unit "site coverage" row.coverage;
          in_unit "site accuracy" row.accuracy;
          (* the stored ratios are exactly the definition *)
          let c = row.counters in
          let expect num den =
            if den <= 0 then 0.0 else float_of_int num /. float_of_int den
          in
          Alcotest.(check (float 1e-9))
            "accuracy = useful/issued"
            (expect c.Memsim.Attribution.useful c.issued)
            row.accuracy;
          Alcotest.(check (float 1e-9))
            "coverage = useful/(useful+target misses)"
            (expect c.Memsim.Attribution.useful
               (c.useful + row.target_misses))
            row.coverage)
        eff.rows;
      Alcotest.(check bool) (label ^ ": kind rollups") true (eff.kinds <> []);
      eff

let test_effectiveness_walk () =
  let eff = check_effectiveness "walk" (Lazy.force walk_telem) in
  (* allocation order -> constant object-footprint stride -> inter *)
  Alcotest.(check bool)
    "inter sites attributed" true
    (List.exists (fun (k : E.kind_rollup) -> k.kind_name = "inter") eff.kinds)

let test_effectiveness_scan () =
  let eff = check_effectiveness "scan" (Lazy.force scan_telem) in
  Alcotest.(check bool)
    "spec sites attributed" true
    (List.exists (fun (k : E.kind_rollup) -> k.kind_name = "spec") eff.kinds);
  Alcotest.(check bool)
    "deref sites attributed" true
    (List.exists (fun (k : E.kind_rollup) -> k.kind_name = "deref") eff.kinds)

let test_determinism () =
  (* same cell, fresh run: identical books *)
  let a = Lazy.force walk_telem and b = run ~telemetry:true walk in
  let totals (r : H.run_result) =
    let t = (Option.get r.H.effectiveness).E.totals in
    [
      t.Memsim.Attribution.issued; t.cancelled; t.redundant; t.useful; t.late;
      t.useless;
    ]
  in
  Alcotest.(check (list int))
    "attribution totals reproducible" (totals a) (totals b);
  Alcotest.(check int) "cycles reproducible" a.H.cycles b.H.cycles

(* ------------------------------------------------------------------ *)
(* Decision provenance: reports carry inspection evidence; the sink
   carries explain instants and the pipeline spans. *)

let test_provenance () =
  let r = Lazy.force scan_telem in
  Alcotest.(check bool) "loop reports produced" true (r.H.reports <> []);
  let rendered =
    String.concat "\n"
      (List.map
         (Format.asprintf "%a" Strideprefetch.Pass.pp_report)
         r.H.reports)
  in
  Alcotest.(check bool)
    "pp_report prints inspection evidence" true
    (Helpers.contains rendered "evidence L");
  Alcotest.(check bool)
    "pp_report prints delta histograms" true
    (Helpers.contains rendered "deltas");
  let events = Telemetry.Sink.events (Option.get r.H.sink) in
  let has ?phase ~cat ~name () =
    List.exists
      (fun (e : Telemetry.Event.t) ->
        e.cat = cat && e.name = name
        && match phase with None -> true | Some p -> e.phase = p)
      events
  in
  Alcotest.(check bool) "explain instants recorded" true
    (has ~phase:Telemetry.Event.Instant ~cat:"explain" ~name:"loop-decision" ());
  Alcotest.(check bool) "compile spans recorded" true
    (has ~phase:Telemetry.Event.Span ~cat:"jit" ~name:"compile" ());
  Alcotest.(check bool) "prefetch-pass spans recorded" true
    (has ~phase:Telemetry.Event.Span ~cat:"jit" ~name:"pass:stride-prefetch" ());
  Alcotest.(check bool) "inspection spans recorded" true
    (has ~phase:Telemetry.Event.Span ~cat:"inspect" ~name:"inspect" ());
  Alcotest.(check bool) "final stats counter recorded" true
    (has ~phase:Telemetry.Event.Counter ~cat:"stats" ~name:"final-stats" ())

(* ------------------------------------------------------------------ *)
(* Export well-formedness. *)

let test_chrome_trace_well_formed () =
  let r = Lazy.force walk_telem in
  let sink = Option.get r.H.sink in
  let doc =
    Telemetry.Trace.chrome_json ~other:[ ("workload", J.Str r.H.workload) ]
      sink
  in
  match J.parse (J.to_string doc) with
  | Error e -> Alcotest.failf "chrome trace does not parse: %s" e
  | Ok parsed ->
      let events =
        Option.get (J.to_list_opt (Option.get (J.member "traceEvents" parsed)))
      in
      Alcotest.(check int)
        "every retained event exported"
        (List.length (Telemetry.Sink.events sink))
        (List.length events);
      List.iter
        (fun e ->
          (match J.member "name" e with
          | Some (J.Str _) -> ()
          | _ -> Alcotest.fail "event without name");
          (match J.member "ph" e with
          | Some (J.Str ("X" | "i" | "C")) -> ()
          | _ -> Alcotest.fail "unknown phase letter");
          (match J.member "ts" e with
          | Some (J.Float ts) ->
              Alcotest.(check bool) "ts non-negative" true (ts >= 0.0)
          | Some (J.Int ts) ->
              Alcotest.(check bool) "ts non-negative" true (ts >= 0)
          | _ -> Alcotest.fail "event without ts");
          match J.member "ph" e with
          | Some (J.Str "X") when J.member "dur" e = None ->
              Alcotest.fail "span without dur"
          | _ -> ())
        events;
      let other = Option.get (J.member "otherData" parsed) in
      (match J.member "total_events" other with
      | Some (J.Int n) ->
          Alcotest.(check int)
            "otherData.total_events" (Telemetry.Sink.total_events sink) n
      | _ -> Alcotest.fail "otherData.total_events missing");
      match J.member "workload" other with
      | Some (J.Str w) -> Alcotest.(check string) "other fields kept" r.H.workload w
      | _ -> Alcotest.fail "caller-supplied otherData field missing"

let test_jsonl_well_formed () =
  let r = Lazy.force walk_telem in
  let sink = Option.get r.H.sink in
  let lines =
    Telemetry.Trace.jsonl_lines ~extra:[ ("machine", J.Str r.H.machine) ] sink
  in
  (* Event lines, plus the trailing summary object. *)
  Alcotest.(check int)
    "one line per retained event plus the summary"
    (List.length (Telemetry.Sink.events sink) + 1)
    (List.length lines);
  let rec split_last acc = function
    | [] -> assert false
    | [ last ] -> (List.rev acc, last)
    | l :: rest -> split_last (l :: acc) rest
  in
  let event_lines, summary_line = split_last [] lines in
  List.iter
    (fun line ->
      match J.parse line with
      | Error e -> Alcotest.failf "line does not parse: %s (%s)" e line
      | Ok v -> (
          (match J.member "name" v with
          | Some (J.Str _) -> ()
          | _ -> Alcotest.fail "line without name");
          match J.member "machine" v with
          | Some (J.Str m) ->
              Alcotest.(check string) "extra stamped on every line"
                r.H.machine m
          | _ -> Alcotest.fail "extra field missing"))
    event_lines;
  match J.parse summary_line with
  | Error e -> Alcotest.failf "summary does not parse: %s" e
  | Ok v -> (
      (match J.member "machine" v with
      | Some (J.Str m) ->
          Alcotest.(check string) "extra stamped on the summary" r.H.machine m
      | _ -> Alcotest.fail "summary missing extra field");
      match J.member "summary" v with
      | Some (J.Obj fields) ->
          Alcotest.(check bool) "summary.total_events" true
            (List.assoc_opt "total_events" fields
            = Some (J.Int (Telemetry.Sink.total_events sink)));
          Alcotest.(check bool) "summary.dropped_events" true
            (List.assoc_opt "dropped_events" fields
            = Some (J.Int (Telemetry.Sink.dropped sink)))
      | _ -> Alcotest.fail "last line is not the summary object")

(* ------------------------------------------------------------------ *)
(* Observer-output goldens. MD5 digests of the profile export
   (spf_prof/v1 JSON), the monitor's JSONL report and the per-site
   effectiveness table, pinned on both engines. "Byte-identical across
   runs" only compares two runs of one build; these catch a change in
   bin contents, row order or site numbering between builds. To re-pin
   after a deliberate output change, run the test and copy the digests
   it reports. *)

let observer_digests (r : H.run_result) =
  let md5 s = Digest.to_hex (Digest.string s) in
  let some name f = function
    | Some x -> [ (name, md5 (f x)) ]
    | None -> []
  in
  some "profile"
    (fun p -> J.to_string (Profile.Report.to_json p))
    r.H.profile
  @ some "monitor"
      (fun m -> String.concat "\n" (Monitor.Report.jsonl_lines m))
      r.H.monitor
  @ some "effectiveness" (Format.asprintf "%a" E.pp_table) r.H.effectiveness

let observer_golden_cells =
  let window = Monitor.Collector.default_window_cycles in
  [
    ( "db",
      (fun engine ->
        H.run ~engine ~profile:true ~monitor:window ~mode:O.Inter_intra
          ~machine:Memsim.Config.pentium4 Workloads.Specjvm.db),
      [
        ("profile", "6d7803e8407a43f79a1e8894186b9f8f");
        ("monitor", "8e438b2f341e1953fe81280e86729424");
        ("effectiveness", "843f429feb0562fe75bc198d71074a13");
      ] );
    ( "Euler",
      (fun engine ->
        H.run ~engine ~profile:true ~monitor:window ~mode:O.Inter_intra
          ~machine:Memsim.Config.pentium4 Workloads.Javagrande.euler),
      [
        ("profile", "1fbee14c3c5a6b3ffe1f562e6afba8ec");
        ("monitor", "c4e9b4a08af0f7fd9df32467ee0f7413");
        ("effectiveness", "35192fa812aa7cbf2f5d53c52cca36d7");
      ] );
    ( "PhaseShift",
      (fun engine ->
        H.run ~engine ~monitor:window ~mode:O.Inter_intra
          ~machine:Memsim.Config.pentium4 Workloads.Phase.phaseshift),
      [
        ("monitor", "91e543da5226abb933446c5e8c22ec96");
        ("effectiveness", "af2bfa3175f7439451379fa96fcc5c04");
      ] );
  ]

let test_observer_goldens () =
  List.iter
    (fun (name, run, want) ->
      List.iter
        (fun (engine, ename) ->
          let got = observer_digests (run engine) in
          List.iter
            (fun (output, digest) ->
              Alcotest.(check (option string))
                (Printf.sprintf "%s %s %s" name ename output)
                (Some digest) (List.assoc_opt output got))
            want)
        [ (Vm.Interp.Switch, "switch"); (Vm.Interp.Closure, "closure") ])
    observer_golden_cells

let suite =
  [
    ("stats: canonical field list is complete", `Quick, test_stats_field_count);
    ("stats: alists/copy/add/reset from one list", `Quick, test_stats_alists);
    ("json: print/parse round trip", `Quick, test_json_roundtrip);
    ("json: parser/printer edge cases", `Quick, test_json_edge_cases);
    ("table: ratio guards at the boundaries", `Quick, test_table_guards);
    ("sink: ring wraps and counts drops", `Quick, test_ring_wrap);
    ("attrib: dense site registry", `Quick, test_attrib_registry);
    ("golden: telemetry on/off bit-identical", `Slow, test_golden_bit_identical);
    ("effectiveness: strided array walk (inter)", `Slow,
     test_effectiveness_walk);
    ("effectiveness: shuffled ref scan (spec+deref)", `Slow,
     test_effectiveness_scan);
    ("effectiveness: attribution deterministic", `Slow, test_determinism);
    ("provenance: evidence, explain records, spans", `Slow, test_provenance);
    ("export: chrome trace well-formed", `Slow, test_chrome_trace_well_formed);
    ("export: jsonl well-formed", `Slow, test_jsonl_well_formed);
    ("golden: observer outputs pinned on both engines", `Slow,
     test_observer_goldens);
  ]
