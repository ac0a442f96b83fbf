(* Unit and property tests for the memory-hierarchy simulator. *)

module Config = Memsim.Config
module Cache = Memsim.Cache
module Tlb = Memsim.Tlb
module Hw = Memsim.Hw_prefetch
module Hier = Memsim.Hierarchy
module Stats = Memsim.Stats

let small_cache =
  {
    Config.size_bytes = 512;
    line_bytes = 64;
    assoc = 2;
    hit_extra = 1;
    miss_penalty = 10;
  }

(* --- config ------------------------------------------------------------- *)

let test_presets_valid () =
  List.iter
    (fun m ->
      match Config.validate m with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "%s invalid: %s" m.Config.name msg)
    Config.machines

let test_table2_geometry () =
  let p4 = Config.pentium4 and athlon = Config.athlon_mp in
  Alcotest.(check int) "P4 L1 size" (8 * 1024) p4.l1.size_bytes;
  Alcotest.(check int) "P4 L1 line" 64 p4.l1.line_bytes;
  Alcotest.(check int) "P4 L2 size" (256 * 1024) p4.l2.size_bytes;
  Alcotest.(check int) "P4 L2 line" 128 p4.l2.line_bytes;
  Alcotest.(check int) "P4 DTLB entries" 64 p4.dtlb.entries;
  Alcotest.(check int) "Athlon L1 size" (64 * 1024) athlon.l1.size_bytes;
  Alcotest.(check int) "Athlon L1 line" 64 athlon.l1.line_bytes;
  Alcotest.(check int) "Athlon L2 size" (256 * 1024) athlon.l2.size_bytes;
  Alcotest.(check int) "Athlon L2 line" 64 athlon.l2.line_bytes;
  Alcotest.(check int) "Athlon DTLB entries" 256 athlon.dtlb.entries;
  Alcotest.(check bool) "P4 prefetches into L2" true
    (p4.prefetch_target = Config.To_l2);
  Alcotest.(check bool) "Athlon prefetches into L1" true
    (athlon.prefetch_target = Config.To_l1)

let test_validate_rejects () =
  let bad line_bytes =
    { small_cache with Config.line_bytes }
  in
  Alcotest.(check bool)
    "non-power-of-two line rejected" true
    (Result.is_error (Config.validate_cache "t" (bad 48)));
  Alcotest.(check bool)
    "zero assoc rejected" true
    (Result.is_error
       (Config.validate_cache "t" { small_cache with Config.assoc = 0 }))

let test_machine_lookup () =
  Alcotest.(check bool)
    "case-insensitive" true
    (Config.machine_of_name "PENTIUM4" = Some Config.pentium4);
  Alcotest.(check bool) "unknown" true (Config.machine_of_name "vax" = None)

(* --- cache -------------------------------------------------------------- *)

let test_cache_miss_then_hit () =
  let c = Cache.create small_cache in
  Alcotest.(check bool) "cold miss" true (Cache.access c ~addr:0 ~now:0 = Cache.Miss);
  Cache.fill c ~addr:0 ~ready_at:0;
  Alcotest.(check bool) "hit after fill" true
    (Cache.access c ~addr:0 ~now:1 = Cache.Hit);
  Alcotest.(check bool) "same line hits" true
    (Cache.access c ~addr:63 ~now:2 = Cache.Hit);
  Alcotest.(check bool) "next line misses" true
    (Cache.access c ~addr:64 ~now:3 = Cache.Miss)

let test_cache_in_flight () =
  let c = Cache.create small_cache in
  Cache.fill c ~addr:0 ~ready_at:50;
  (match Cache.access c ~addr:0 ~now:20 with
  | Cache.Hit_in_flight residual ->
      Alcotest.(check int) "residual" 30 residual
  | _ -> Alcotest.fail "expected in-flight hit");
  Alcotest.(check bool) "ready after completion" true
    (Cache.access c ~addr:0 ~now:60 = Cache.Hit)

let test_cache_fill_never_raises_ready () =
  let c = Cache.create small_cache in
  Cache.fill c ~addr:0 ~ready_at:10;
  Cache.fill c ~addr:0 ~ready_at:100;
  (* a later fill must not push the line's availability back *)
  Alcotest.(check bool) "still ready at 20" true
    (Cache.access c ~addr:0 ~now:20 = Cache.Hit)

let test_cache_lru_eviction () =
  let c = Cache.create small_cache in
  (* 512/64 = 8 lines, 2-way: 4 sets. Lines 0, 4, 8 map to set 0. *)
  let line n = n * 64 in
  Cache.fill c ~addr:(line 0) ~ready_at:0;
  Cache.fill c ~addr:(line 4) ~ready_at:0;
  ignore (Cache.access c ~addr:(line 0) ~now:1);
  (* line 0 is MRU *)
  Cache.fill c ~addr:(line 8) ~ready_at:0;
  (* evicts line 4 *)
  Alcotest.(check bool) "MRU survived" true (Cache.probe c ~addr:(line 0));
  Alcotest.(check bool) "LRU evicted" false (Cache.probe c ~addr:(line 4));
  Alcotest.(check bool) "new line present" true (Cache.probe c ~addr:(line 8))

let test_cache_probe_no_lru_effect () =
  let c = Cache.create small_cache in
  let line n = n * 64 in
  Cache.fill c ~addr:(line 0) ~ready_at:0;
  Cache.fill c ~addr:(line 4) ~ready_at:0;
  (* probing line 0 must NOT promote it *)
  ignore (Cache.probe c ~addr:(line 0));
  Cache.fill c ~addr:(line 8) ~ready_at:0;
  Alcotest.(check bool) "line 0 evicted despite probe" false
    (Cache.probe c ~addr:(line 0))

let test_cache_reset () =
  let c = Cache.create small_cache in
  Cache.fill c ~addr:0 ~ready_at:0;
  Cache.reset c;
  Alcotest.(check int) "empty" 0 (Cache.resident_lines c);
  Alcotest.(check bool) "miss" true (Cache.access c ~addr:0 ~now:0 = Cache.Miss)

let prop_cache_capacity =
  QCheck.Test.make ~name:"cache never exceeds capacity" ~count:100
    QCheck.(list_of_size Gen.(return 200) (int_bound 100_000))
    (fun addrs ->
      let c = Cache.create small_cache in
      List.iter (fun a -> Cache.fill c ~addr:a ~ready_at:0) addrs;
      Cache.resident_lines c <= 8)

let prop_cache_fill_makes_resident =
  QCheck.Test.make ~name:"a just-filled line is resident" ~count:200
    QCheck.(int_bound 1_000_000)
    (fun addr ->
      let c = Cache.create small_cache in
      Cache.fill c ~addr ~ready_at:0;
      Cache.probe c ~addr)

(* --- tlb ---------------------------------------------------------------- *)

let tlb_params = { Config.entries = 4; page_bytes = 4096; tlb_miss_penalty = 30 }

let test_tlb_basic () =
  let t = Tlb.create tlb_params in
  Alcotest.(check bool) "cold miss" false (Tlb.access t ~addr:0);
  Tlb.fill t ~addr:0;
  Alcotest.(check bool) "hit" true (Tlb.access t ~addr:100);
  Alcotest.(check bool) "other page misses" false (Tlb.access t ~addr:4096)

let test_tlb_lru () =
  let t = Tlb.create tlb_params in
  let page n = n * 4096 in
  for p = 0 to 3 do
    Tlb.fill t ~addr:(page p)
  done;
  ignore (Tlb.access t ~addr:(page 0));
  Tlb.fill t ~addr:(page 9);
  Alcotest.(check bool) "page 0 (MRU) survived" true (Tlb.probe t ~addr:(page 0));
  Alcotest.(check bool) "page 1 (LRU) evicted" false (Tlb.probe t ~addr:(page 1));
  Alcotest.(check int) "full" 4 (Tlb.resident_pages t)

let test_tlb_probe_no_touch () =
  let t = Tlb.create tlb_params in
  let page n = n * 4096 in
  for p = 0 to 3 do
    Tlb.fill t ~addr:(page p)
  done;
  ignore (Tlb.probe t ~addr:(page 0));
  Tlb.fill t ~addr:(page 9);
  Alcotest.(check bool) "probe did not promote" false (Tlb.probe t ~addr:(page 0))

(* --- hardware prefetcher ------------------------------------------------ *)

let stream_hw streams =
  Hw.create
    ~model:(Config.Hw_stream { streams })
    ~line_bytes:64 ~page_bytes:4096

let test_hw_stream () =
  let hw = stream_hw 4 in
  Alcotest.(check bool) "first miss: no prefetch" true
    (Hw.observe_miss hw ~pc:0 ~addr:0 = []);
  Alcotest.(check bool) "adjacent miss establishes stream" true
    (Hw.observe_miss hw ~pc:0 ~addr:64 = [ 128 ]);
  Alcotest.(check bool) "stream advances" true
    (Hw.observe_miss hw ~pc:0 ~addr:128 = [ 192 ])

let test_hw_descending () =
  let hw = stream_hw 4 in
  ignore (Hw.observe_miss hw ~pc:0 ~addr:(4096 + 640));
  Alcotest.(check bool) "descending stream" true
    (Hw.observe_miss hw ~pc:0 ~addr:(4096 + 576) = [ 4096 + 512 ])

let test_hw_page_boundary () =
  let hw = stream_hw 4 in
  ignore (Hw.observe_miss hw ~pc:0 ~addr:(4096 - 128));
  Alcotest.(check bool) "stops at page boundary" true
    (Hw.observe_miss hw ~pc:0 ~addr:(4096 - 64) = [])

let test_hw_disabled () =
  let hw = stream_hw 0 in
  Alcotest.(check bool) "disabled" true (Hw.observe_miss hw ~pc:0 ~addr:0 = []);
  Alcotest.(check bool) "still disabled" true
    (Hw.observe_miss hw ~pc:0 ~addr:64 = [])

(* Regression (satellite of the RPT issue): a re-miss on a live stream's
   current line — the line was evicted and missed again before the
   stream advanced — must be absorbed by that stream, not treated as an
   unrelated miss that allocates (and clobbers) a round-robin victim
   slot. With 2 slots: stream A at line 0, stream B at line 128; B
   re-misses its own line; A must still be alive and able to advance. *)
let test_hw_same_line_remiss () =
  let hw = stream_hw 2 in
  ignore (Hw.observe_miss hw ~pc:0 ~addr:0);
  ignore (Hw.observe_miss hw ~pc:0 ~addr:8192);
  Alcotest.(check bool) "same-line re-miss suggests nothing" true
    (Hw.observe_miss hw ~pc:0 ~addr:(8192 + 32) = []);
  Alcotest.(check bool) "unrelated slot not clobbered" true
    (Hw.observe_miss hw ~pc:0 ~addr:64 = [ 128 ])

(* --- hierarchy ---------------------------------------------------------- *)

let fresh_p4 () = Hier.create Config.pentium4
let fresh_athlon () = Hier.create Config.athlon_mp

let test_demand_miss_cost () =
  let h = fresh_p4 () in
  let m = Config.pentium4 in
  let stall = Hier.demand_access h ~pc:0 ~addr:0x200000 ~kind:`Load ~now:0 in
  (* cold: DTLB walk + L1 miss/L2 miss to memory *)
  Alcotest.(check int) "cold miss stall"
    (m.dtlb.tlb_miss_penalty + m.l1.miss_penalty + m.l2.miss_penalty)
    stall;
  let stall2 = Hier.demand_access h ~pc:0 ~addr:0x200000 ~kind:`Load ~now:100 in
  Alcotest.(check int) "then an L1 hit" m.l1.hit_extra stall2;
  let stats = Hier.stats h in
  Alcotest.(check int) "one L1 load miss" 1 stats.Stats.l1_load_misses;
  Alcotest.(check int) "one L2 load miss" 1 stats.Stats.l2_load_misses;
  Alcotest.(check int) "one DTLB load miss" 1 stats.Stats.dtlb_load_misses

let test_prefetch_cancelled_on_tlb_miss () =
  let h = fresh_p4 () in
  Hier.sw_prefetch h ~addr:0x300000 ~now:0;
  let stats = Hier.stats h in
  Alcotest.(check int) "cancelled" 1 stats.Stats.sw_prefetches_cancelled;
  (* the line was NOT fetched *)
  let stall = Hier.demand_access h ~pc:0 ~addr:0x300000 ~kind:`Load ~now:10 in
  Alcotest.(check bool) "demand still misses fully" true
    (stall >= Config.pentium4.l2.miss_penalty)

let test_prefetch_after_tlb_warm () =
  let h = fresh_p4 () in
  (* warm the page with a demand access to another line *)
  ignore (Hier.demand_access h ~pc:0 ~addr:0x300000 ~kind:`Load ~now:0);
  Hier.sw_prefetch h ~addr:0x300400 ~now:1000;
  (* P4 prefetches into the L2 only: after the fill completes, a demand
     access pays the L1-miss penalty but not the memory latency *)
  let stall = Hier.demand_access h ~pc:0 ~addr:0x300400 ~kind:`Load ~now:5000 in
  Alcotest.(check int) "L2 hit after prefetch"
    Config.pentium4.l1.miss_penalty stall

let test_athlon_prefetch_fills_l1 () =
  let h = fresh_athlon () in
  ignore (Hier.demand_access h ~pc:0 ~addr:0x300000 ~kind:`Load ~now:0);
  Hier.sw_prefetch h ~addr:0x300400 ~now:1000;
  let stall = Hier.demand_access h ~pc:0 ~addr:0x300400 ~kind:`Load ~now:5000 in
  Alcotest.(check int) "L1 hit after prefetch"
    Config.athlon_mp.l1.hit_extra stall

let test_guarded_load_primes_tlb () =
  let h = fresh_p4 () in
  Hier.guarded_load h ~addr:0x400000 ~now:0;
  let stall = Hier.demand_access h ~pc:0 ~addr:0x400000 ~kind:`Load ~now:5000 in
  (* TLB primed and line in L1: only the L1 hit cost remains *)
  Alcotest.(check int) "hit after guarded load"
    Config.pentium4.l1.hit_extra stall;
  Alcotest.(check int) "no DTLB miss event" 0
    (Hier.stats h).Stats.dtlb_load_misses

let test_prefetch_too_late_residual () =
  let h = fresh_p4 () in
  ignore (Hier.demand_access h ~pc:0 ~addr:0x500000 ~kind:`Load ~now:0);
  Hier.sw_prefetch h ~addr:0x500400 ~now:1000;
  (* demand arrives 20 cycles after issue: most of the fill remains *)
  let stall = Hier.demand_access h ~pc:0 ~addr:0x500400 ~kind:`Load ~now:1020 in
  let expected =
    Config.pentium4.l1.miss_penalty + (Config.pentium4.l2.miss_penalty - 20)
  in
  Alcotest.(check int) "residual latency charged" expected stall

let test_line_bytes_by_target () =
  Alcotest.(check int) "P4 prefetch line = L2 line" 128
    (Hier.line_bytes (fresh_p4 ()));
  Alcotest.(check int) "Athlon prefetch line = L1 line" 64
    (Hier.line_bytes (fresh_athlon ()))

(* --- stats -------------------------------------------------------------- *)

let test_stats_mpi () =
  let s = Stats.create () in
  s.Stats.retired_instructions <- 1000;
  s.Stats.l1_load_misses <- 25;
  Alcotest.(check (float 1e-9)) "MPI" 0.025 (Stats.l1_load_mpi s);
  Stats.reset s;
  Alcotest.(check (float 1e-9)) "MPI after reset" 0.0 (Stats.l1_load_mpi s)

let test_stats_add () =
  let a = Stats.create () and b = Stats.create () in
  a.Stats.loads <- 3;
  b.Stats.loads <- 4;
  a.Stats.cycles <- 10;
  b.Stats.cycles <- 20;
  let c = Stats.add a b in
  Alcotest.(check int) "loads" 7 c.Stats.loads;
  Alcotest.(check int) "cycles" 30 c.Stats.cycles

let suite =
  [
    ("config: presets valid", `Quick, test_presets_valid);
    ("config: Table 2 geometry", `Quick, test_table2_geometry);
    ("config: validation rejects bad params", `Quick, test_validate_rejects);
    ("config: machine lookup", `Quick, test_machine_lookup);
    ("cache: miss then hit", `Quick, test_cache_miss_then_hit);
    ("cache: in-flight residual", `Quick, test_cache_in_flight);
    ("cache: fill never delays a line", `Quick, test_cache_fill_never_raises_ready);
    ("cache: LRU eviction", `Quick, test_cache_lru_eviction);
    ("cache: probe has no LRU effect", `Quick, test_cache_probe_no_lru_effect);
    ("cache: reset", `Quick, test_cache_reset);
    Helpers.qtest prop_cache_capacity;
    Helpers.qtest prop_cache_fill_makes_resident;
    ("tlb: basic", `Quick, test_tlb_basic);
    ("tlb: LRU", `Quick, test_tlb_lru);
    ("tlb: probe does not touch", `Quick, test_tlb_probe_no_touch);
    ("hw prefetch: ascending stream", `Quick, test_hw_stream);
    ("hw prefetch: descending stream", `Quick, test_hw_descending);
    ("hw prefetch: stops at page boundary", `Quick, test_hw_page_boundary);
    ("hw prefetch: disabled", `Quick, test_hw_disabled);
    ("hw prefetch: same-line re-miss absorbed", `Quick,
     test_hw_same_line_remiss);
    ("hierarchy: demand miss cost", `Quick, test_demand_miss_cost);
    ("hierarchy: prefetch cancelled on TLB miss", `Quick,
     test_prefetch_cancelled_on_tlb_miss);
    ("hierarchy: P4 prefetch fills L2", `Quick, test_prefetch_after_tlb_warm);
    ("hierarchy: Athlon prefetch fills L1", `Quick,
     test_athlon_prefetch_fills_l1);
    ("hierarchy: guarded load primes TLB", `Quick,
     test_guarded_load_primes_tlb);
    ("hierarchy: late prefetch leaves residual", `Quick,
     test_prefetch_too_late_residual);
    ("hierarchy: prefetch line size per machine", `Quick,
     test_line_bytes_by_target);
    ("stats: MPI", `Quick, test_stats_mpi);
    ("stats: add", `Quick, test_stats_add);
  ]

(* --- model-based property test: the cache against a naive reference ----- *)

(* A straightforward list-based set-associative LRU cache with the same
   geometry, as an executable specification. *)
module Reference_cache = struct
  type t = { sets : int list array; assoc : int; line : int }

  let create ~sets ~assoc ~line = { sets = Array.make sets []; assoc; line }
  let set_of t line = line mod Array.length t.sets

  let access t addr =
    let line = addr / t.line in
    let s = set_of t line in
    let present = List.mem line t.sets.(s) in
    if present then
      (* move to front (MRU) *)
      t.sets.(s) <- line :: List.filter (( <> ) line) t.sets.(s);
    present

  let fill t addr =
    let line = addr / t.line in
    let s = set_of t line in
    if List.mem line t.sets.(s) then
      t.sets.(s) <- line :: List.filter (( <> ) line) t.sets.(s)
    else begin
      let kept =
        if List.length t.sets.(s) >= t.assoc then
          (* drop the LRU = last element *)
          List.filteri (fun i _ -> i < t.assoc - 1) t.sets.(s)
        else t.sets.(s)
      in
      t.sets.(s) <- line :: kept
    end
end

let prop_cache_matches_reference =
  QCheck.Test.make ~name:"cache agrees with a naive LRU reference" ~count:60
    QCheck.(list_of_size Gen.(return 300) (int_bound 4000))
    (fun addrs ->
      let cache = Cache.create small_cache in
      let reference =
        Reference_cache.create ~sets:4 ~assoc:2 ~line:64
      in
      List.for_all
        (fun addr ->
          let got =
            match Cache.access cache ~addr ~now:0 with
            | Cache.Hit | Cache.Hit_in_flight _ -> true
            | Cache.Miss ->
                Cache.fill cache ~addr ~ready_at:0;
                false
          in
          let expected = Reference_cache.access reference addr in
          if not expected then Reference_cache.fill reference addr;
          got = expected)
        addrs)

let suite =
  suite @ [ Helpers.qtest prop_cache_matches_reference ]

(* --- model-based property test: attribution shadow tables -------------- *)

(* The attribution layer's executable specification: association lists
   that keep every entry, with an explicit touched flag. The real tables
   drop an L1/L2 entry once a demand classifies it; random operation
   sequences must still yield the same outcomes and per-site counters,
   and [tracked_lines] must count exactly the untouched entries. *)
module Reference_attribution = struct
  module A = Memsim.Attribution

  type entry = { site : int; mutable touched : bool }

  type t = {
    mutable l1 : (int * entry) list;
    mutable l2 : (int * entry) list;
    mutable hw : (int * bool ref) list;
    sites : A.site_counters array;
    mutable n_sites : int;
  }

  let create ~sites =
    {
      l1 = [];
      l2 = [];
      hw = [];
      sites = Array.init sites (fun _ -> A.zero_counters ());
      n_sites = 0;
    }

  let site t id =
    t.n_sites <- max t.n_sites (id + 1);
    t.sites.(id)

  let useless t id =
    let c = site t id in
    c.A.useless <- c.A.useless + 1

  let table t = function `L1 -> t.l1 | `L2 -> t.l2

  let set_table t level l =
    match level with `L1 -> t.l1 <- l | `L2 -> t.l2 <- l

  let note_issue t id =
    let c = site t id in
    c.A.issued <- c.A.issued + 1

  let note_fill t level line id =
    let tbl = table t level in
    (match List.assoc_opt line tbl with
    | Some e when not e.touched -> useless t e.site
    | Some _ | None -> ());
    set_table t level
      ((line, { site = id; touched = false }) :: List.remove_assoc line tbl)

  let demand_resolve t level line ready =
    match List.assoc_opt line (table t level) with
    | Some e when not e.touched ->
        e.touched <- true;
        let c = site t e.site in
        if ready then begin
          c.A.useful <- c.A.useful + 1;
          A.Useful
        end
        else begin
          c.A.late <- c.A.late + 1;
          A.Late
        end
    | Some _ | None -> A.Untracked

  let demand_evict t level line =
    let tbl = table t level in
    match List.assoc_opt line tbl with
    | Some e ->
        if not e.touched then useless t e.site;
        set_table t level (List.remove_assoc line tbl)
    | None -> ()

  let note_hw_fill t line =
    t.hw <- (line, ref false) :: List.remove_assoc line t.hw

  let hw_tracked t line = List.mem_assoc line t.hw

  let hw_demand_resolve t line =
    match List.assoc_opt line t.hw with
    | Some r when not !r ->
        r := true;
        true
    | Some _ | None -> false

  let hw_demand_evict t line = t.hw <- List.remove_assoc line t.hw

  let flush t =
    List.iter
      (fun (_, e) -> if not e.touched then useless t e.site)
      (t.l1 @ t.l2);
    t.l1 <- [];
    t.l2 <- [];
    t.hw <- []

  let unclassified t =
    List.length (List.filter (fun (_, e) -> not e.touched) (t.l1 @ t.l2))
end

type attr_op =
  | Issue of int
  | Fill of [ `L1 | `L2 ] * int * int
  | Resolve of [ `L1 | `L2 ] * int * bool
  | Evict of [ `L1 | `L2 ] * int
  | Hw_fill of int
  | Hw_tracked of int
  | Hw_resolve of int
  | Hw_evict of int
  | Flush

let attr_sites = 5

let show_attr_op =
  let lv = function `L1 -> "L1" | `L2 -> "L2" in
  function
  | Issue s -> Printf.sprintf "issue s%d" s
  | Fill (l, line, s) -> Printf.sprintf "fill %s %d s%d" (lv l) line s
  | Resolve (l, line, r) -> Printf.sprintf "resolve %s %d ready=%b" (lv l) line r
  | Evict (l, line) -> Printf.sprintf "evict %s %d" (lv l) line
  | Hw_fill line -> Printf.sprintf "hw_fill %d" line
  | Hw_tracked line -> Printf.sprintf "hw_tracked %d" line
  | Hw_resolve line -> Printf.sprintf "hw_resolve %d" line
  | Hw_evict line -> Printf.sprintf "hw_evict %d" line
  | Flush -> "flush"

(* Few lines and sites, so refills, re-touches and evictions of the same
   line are common. *)
let attr_op_gen =
  let open QCheck.Gen in
  let line = int_bound 11 and site = int_bound (attr_sites - 1) in
  let level = oneofl [ `L1; `L2 ] in
  frequency
    [
      (3, map (fun s -> Issue s) site);
      (6, map3 (fun l n s -> Fill (l, n, s)) level line site);
      (6, map3 (fun l n r -> Resolve (l, n, r)) level line bool);
      (3, map2 (fun l n -> Evict (l, n)) level line);
      (2, map (fun n -> Hw_fill n) line);
      (2, map (fun n -> Hw_tracked n) line);
      (2, map (fun n -> Hw_resolve n) line);
      (1, map (fun n -> Hw_evict n) line);
      (1, return Flush);
    ]

let prop_attribution_matches_reference =
  QCheck.Test.make
    ~name:"attribution shadow tables agree with a keep-everything reference"
    ~count:300
    QCheck.(
      make
        ~print:(fun ops -> String.concat "; " (List.map show_attr_op ops))
        Gen.(list_size (int_range 1 120) attr_op_gen))
    (fun ops ->
      let module A = Memsim.Attribution in
      let module R = Reference_attribution in
      let a = A.create () and r = R.create ~sites:attr_sites in
      let same_books () =
        A.n_sites a = r.R.n_sites
        && List.for_all
             (fun i -> A.site_counters a i = r.R.sites.(i))
             (List.init attr_sites Fun.id)
        && A.tracked_lines a = R.unclassified r
      in
      let step op =
        (match op with
        | Issue s ->
            A.note_issue a ~site:s;
            R.note_issue r s;
            true
        | Fill (level, line, s) ->
            A.note_fill a ~level ~line ~site:s;
            R.note_fill r level line s;
            true
        | Resolve (level, line, ready) ->
            A.demand_resolve a ~level ~line ~ready
            = R.demand_resolve r level line ready
        | Evict (level, line) ->
            A.demand_evict a ~level ~line;
            R.demand_evict r level line;
            true
        | Hw_fill line ->
            A.note_hw_fill a ~line;
            R.note_hw_fill r line;
            true
        | Hw_tracked line -> A.hw_tracked a ~line = R.hw_tracked r line
        | Hw_resolve line ->
            A.hw_demand_resolve a ~line = R.hw_demand_resolve r line
        | Hw_evict line ->
            A.hw_demand_evict a ~line;
            R.hw_demand_evict r line;
            true
        | Flush ->
            A.flush a;
            R.flush r;
            true)
        && same_books ()
      in
      List.for_all step ops
      &&
      (A.flush a;
       R.flush r;
       same_books () && A.tracked_lines a = 0))

let suite = suite @ [ Helpers.qtest prop_attribution_matches_reference ]
