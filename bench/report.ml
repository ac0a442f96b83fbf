(* The hot-path benchmark report: the canonical cell matrix and the
   bench_hotpath/v2 JSON serialization, built as a Telemetry.Json value.
   spf_bench's record subcommand is the only producer of
   BENCH_hotpath.json. *)

module SP = Strideprefetch
module W = Workloads.Workload
module H = Workloads.Harness
module J = Telemetry.Json

let schema = "bench_hotpath/v2"

let default_cells () =
  (* The full (workload x machine x mode) simulation matrix... *)
  List.concat_map
    (fun (w : W.t) ->
      List.concat_map
        (fun machine ->
          List.map (fun mode -> Runner.cell w machine mode) Runner.modes)
        Runner.machines)
    Runner.workloads
  (* ...one attributed (telemetry) twin per workload at the headline
     configuration, filling [run_result.effectiveness] so the report
     carries coverage/accuracy rollups next to the cycle counts... *)
  @ List.map
      (fun (w : W.t) ->
        Runner.cell ~telemetry:true w Memsim.Config.pentium4
          SP.Options.Inter_intra)
      Runner.workloads
  (* ...one profiled twin of the headline db cell, so the report also
     tracks the object-centric profiler's observer overhead over time,
     and one monitored twin of the same cell — the live monitor's
     observer overhead next to its zero-cost cycle claim (the monitored
     twin's cycles must equal the plain cell's exactly, which the gate's
     exact-equality law then pins across history)... *)
  @ [
      Runner.cell ~profile:true (Runner.workload "db") Memsim.Config.pentium4
        SP.Options.Inter_intra;
      Runner.cell ~monitor:true (Runner.workload "db") Memsim.Config.pentium4
        SP.Options.Inter_intra;
    ]
  (* ...and one switch-engine twin per (workload x machine) at the
     headline mode: the dispatch lane. The twins' cycle counts must be
     byte-identical to their closure cells (the engines' contract, and
     the gate's exact-equality law applies to them too); their seconds
     measure what closure compilation buys on the host, summarized as
     the report's ["dispatch"] geomean. *)
  @ List.concat_map
      (fun (w : W.t) ->
        List.map
          (fun machine ->
            Runner.cell ~engine:Vm.Interp.Switch w machine
              SP.Options.Inter_intra)
          Runner.machines)
      Runner.workloads

(* The dispatch lane's pairing rule, shared by the writer and by
   Gate.dispatch_geomean: a cell on another engine pairs with the cell
   whose identity differs only in running on the closure engine. *)
let dispatch_pairs ~id ~seconds cells =
  let by_key = Hashtbl.create 64 in
  List.iter (fun c -> Hashtbl.replace by_key (Runner.key (id c)) c) cells;
  List.filter_map
    (fun s ->
      let i = id s in
      if i.Runner.engine = "closure" then None
      else
        let twin = Runner.key { i with Runner.engine = "closure" } in
        match Hashtbl.find_opt by_key twin with
        | Some c when seconds s > 0.0 && seconds c > 0.0 -> Some (s, c)
        | Some _ | None -> None)
    cells

let geomean = function
  | [] -> nan
  | xs ->
      exp
        (List.fold_left (fun acc x -> acc +. log x) 0.0 xs
        /. float_of_int (List.length xs))

let dispatch_json (timed : Runner.timed list) =
  match
    dispatch_pairs
      ~id:(fun (t : Runner.timed) -> Runner.id t.cell)
      ~seconds:(fun (t : Runner.timed) -> t.seconds)
      timed
  with
  | [] -> []
  | pairs ->
      let speedup ((s : Runner.timed), (c : Runner.timed)) =
        s.seconds /. c.seconds
      in
      let pair (((s : Runner.timed), (c : Runner.timed)) as p) =
        let i = Runner.id s.cell in
        J.Obj
          [
            ("workload", J.Str i.workload);
            ("machine", J.Str i.machine);
            ("mode", J.Str i.mode);
            ("switch_seconds", J.Float s.seconds);
            ("closure_seconds", J.Float c.seconds);
            ("speedup", J.Float (speedup p));
          ]
      in
      [
        ( "dispatch",
          J.Obj
            [
              ("geomean_speedup", J.Float (geomean (List.map speedup pairs)));
              ("pairs", J.List (List.map pair pairs));
            ] );
      ]

let effectiveness_json (eff : Workloads.Effectiveness.t) =
  let kind (k : Workloads.Effectiveness.kind_rollup) =
    J.Obj
      [
        ("kind", J.Str k.kind_name);
        ("sites", J.Int k.sites);
        ("issued", J.Int k.issued);
        ("useful", J.Int k.useful);
        ("late", J.Int k.late);
        ("useless", J.Int k.useless);
        ("cancelled", J.Int k.cancelled);
        ("redundant", J.Int k.redundant);
        ("coverage", J.Float k.kind_coverage);
        ("accuracy", J.Float k.kind_accuracy);
      ]
  in
  let t = eff.totals in
  J.Obj
    [
      ("issued", J.Int t.Memsim.Attribution.issued);
      ("useful", J.Int t.useful);
      ("late", J.Int t.late);
      ("useless", J.Int t.useless);
      ("cancelled", J.Int t.cancelled);
      ("redundant", J.Int t.redundant);
      ("coverage", J.Float eff.total_coverage);
      ("accuracy", J.Float eff.total_accuracy);
      ("unattributed_misses", J.Int eff.unattributed_misses);
      ("sites", J.Int (List.length eff.rows));
      ("kinds", J.List (List.map kind eff.kinds));
    ]

(* The blame payload of a profiled cell: its run record with the per-pc
   rows dropped — the loop rows, allocation sites, attribution and
   provenance are what spf_bench's blame-on-failure diff reads back. *)
let blame_json (t : Runner.timed) =
  match Diff.Rundata.of_run ~config:(Runner.config t.cell) t.result with
  | Error _ -> None
  | Ok rd ->
      Some
        (Diff.Rundata.to_json
           { rd with profile = { rd.profile with Profile.Report.pcs = [] } })

(* Fields that only non-default cells carry (sweep provenance, the
   monitor flag, ablation knobs, the observer payloads) are omitted
   otherwise, so reports of the canonical matrix stay compatible with
   older baselines and their gate keys unchanged. *)
let cell_json (t : Runner.timed) =
  let i = Runner.id t.cell in
  let opt name f = function None -> [] | Some v -> [ (name, f v) ] in
  J.Obj
    ([
       ("workload", J.Str i.workload);
       ("machine", J.Str i.machine);
       ("mode", J.Str i.mode);
       ("engine", J.Str i.engine);
       ("telemetry", J.Bool i.telemetry);
       ("profile", J.Bool i.profile);
     ]
    @ (if i.hw = Runner.default_hw then [] else [ ("hw_prefetch", J.Str i.hw) ])
    @ opt "sw_threshold" (fun n -> J.Int n) i.sw_threshold
    @ opt "prediction" (fun p -> J.Str p) i.prediction
    @ (if i.monitor then [ ("monitor", J.Bool true) ] else [])
    @ opt "knobs" (fun k -> J.Str k) i.knobs
    @ [ ("seconds", J.Float t.seconds); ("cycles", J.Int t.result.H.cycles) ]
    @ opt "effectiveness" effectiveness_json t.result.H.effectiveness
    @ opt "blame" Fun.id (blame_json t))

(* Objects at the top two levels and arrays of objects are laid out one
   member per line; everything below stays on one line, so a report
   diffs cell by cell. *)
let rec layout buf depth j =
  let members open_ close_ items item =
    Buffer.add_char buf open_;
    List.iteri
      (fun n x ->
        if n > 0 then Buffer.add_char buf ',';
        Buffer.add_char buf '\n';
        Buffer.add_string buf (String.make (2 * (depth + 1)) ' ');
        item x)
      items;
    Buffer.add_char buf '\n';
    Buffer.add_string buf (String.make (2 * depth) ' ');
    Buffer.add_char buf close_
  in
  match j with
  | J.Obj (_ :: _ as kvs) when depth < 2 ->
      members '{' '}' kvs (fun (k, v) ->
          J.to_buffer buf (J.Str k);
          Buffer.add_string buf ": ";
          layout buf (depth + 1) v)
  | J.List (J.Obj _ :: _ as xs) -> members '[' ']' xs (layout buf (depth + 1))
  | j -> J.to_buffer buf j

let to_json_string ?(lanes = []) ~jobs ~matrix_wall_seconds
    (timed : Runner.timed list) =
  let json =
    J.Obj
      ([
         ("schema", J.Str schema);
         ("jobs", J.Int jobs);
         ("host_cpus", J.Int (Runner.default_jobs ()));
         ("matrix_wall_seconds", J.Float matrix_wall_seconds);
         ( "total_cell_seconds",
           J.Float
             (List.fold_left
                (fun acc (t : Runner.timed) -> acc +. t.seconds)
                0.0 timed) );
       ]
      @ dispatch_json timed @ lanes
      @ [ ("cells", J.List (List.map cell_json timed)) ])
  in
  let buf = Buffer.create 4096 in
  layout buf 0 json;
  Buffer.add_char buf '\n';
  Buffer.contents buf
