(* Parallel bench-matrix runner.

   The (workload x machine x mode) cells of the paper's evaluation are
   mutually independent: each run builds a fresh program, a fresh
   [Vm.Interp.t] and a fresh [Memsim.Hierarchy.t], and no library under
   [lib/] keeps top-level mutable state. That makes the matrix
   embarrassingly parallel, so we farm the cells out to a pool of OCaml 5
   Domains. Simulated cycle counts are a pure function of the cell, so the
   parallel runner is byte-identical to the serial one (asserted by
   test/test_bench_runner.ml); only host wall-clock changes. *)

module SP = Strideprefetch
module W = Workloads.Workload
module H = Workloads.Harness

type cell = {
  workload : W.t;
  machine : Memsim.Config.machine;
  mode : SP.Options.mode;
  opts : SP.Options.t option;  (** algorithm-knob override; [None] = defaults *)
  telemetry : bool;
      (** thread the observability stack through the run; fills
          [run_result.effectiveness] (coverage/accuracy rollups for the
          BENCH json) without perturbing the simulation *)
  profile : bool;
      (** additionally install the object-centric profiler; fills
          [run_result.profile] (implies telemetry) without perturbing
          the simulation *)
  monitor : bool;
      (** arm the live windowed monitor at its default window; fills
          [run_result.monitor] (implies telemetry). The monitored twin's
          cycle count must equal its plain cell's exactly — monitoring
          observes only — so the gate's exact-equality law pins the
          monitor's zero-cost claim over time *)
  engine : Vm.Interp.engine;
      (** which execution engine runs the cell; default [Closure]. The
          simulated cycle count is engine-independent (bit-identity is
          the engines' contract), so a switch twin differs from its
          closure cell only in host wall-clock — the dispatch-speedup
          lane of the report *)
}

type timed = {
  cell : cell;
  result : H.run_result;
  seconds : float;  (** host wall-clock for this cell *)
}

let cell ?opts ?(telemetry = false) ?(profile = false) ?(monitor = false)
    ?(engine = Vm.Interp.Closure) workload machine mode =
  { workload; machine; mode; opts; telemetry; profile; monitor; engine }

type id = {
  workload : string;
  machine : string;
  mode : string;
  engine : string;
  telemetry : bool;
  profile : bool;
  monitor : bool;
  hw : string;
  sw_threshold : int option;
  prediction : string option;
  knobs : string option;
}

let default_hw =
  Memsim.Config.hw_prefetch_to_string Memsim.Config.default_stream

(* The knobs the bench's ablations vary get readable names; any other
   override is lumped under "custom" (no bench cell sets one). The mode
   inside [opts] is ignored: the cell's own mode overrides it. *)
let knobs (o : SP.Options.t) =
  let d = SP.Options.default in
  let named =
    List.filter_map
      (fun (name, differs, value) ->
        if differs then Some (name ^ "=" ^ value) else None)
      [
        ( "iters",
          o.inspect_iterations <> d.inspect_iterations,
          string_of_int o.inspect_iterations );
        ( "c",
          o.scheduling_distance <> d.scheduling_distance,
          string_of_int o.scheduling_distance );
        ("majority", o.majority <> d.majority, Printf.sprintf "%g" o.majority);
      ]
  in
  let rest =
    {
      o with
      SP.Options.mode = d.mode;
      inspect_iterations = d.inspect_iterations;
      scheduling_distance = d.scheduling_distance;
      majority = d.majority;
      inter_stride_threshold = d.inter_stride_threshold;
      prediction = d.prediction;
    }
  in
  match named @ if rest = d then [] else [ "custom" ] with
  | [] -> None
  | ks -> Some (String.concat "," ks)

let id (c : cell) =
  let opts = Option.value ~default:SP.Options.default c.opts in
  {
    workload = c.workload.W.name;
    machine = c.machine.Memsim.Config.name;
    mode = SP.Options.mode_name c.mode;
    engine = Vm.Interp.engine_name c.engine;
    telemetry = c.telemetry;
    profile = c.profile;
    monitor = c.monitor;
    hw =
      Memsim.Config.hw_prefetch_to_string c.machine.Memsim.Config.hw_prefetch;
    sw_threshold = opts.SP.Options.inter_stride_threshold;
    prediction =
      (match opts.SP.Options.prediction with
      | SP.Options.Inspect -> None
      | p -> Some (SP.Options.prediction_name p));
    knobs = knobs opts;
  }

let key i =
  let suffix = function None -> "" | Some s -> "/" ^ s in
  String.concat ""
    [
      i.workload; "/"; i.machine; "/"; i.mode;
      (if i.telemetry then "/telemetry" else "");
      (if i.profile then "/profile" else "");
      (if i.monitor then "/monitor" else "");
      (if i.engine = "closure" then "" else "/" ^ i.engine ^ "-engine");
      (if i.hw = default_hw then "" else "/hw=" ^ i.hw);
      suffix (Option.map (Printf.sprintf "thr=%d") i.sw_threshold);
      suffix (Option.map (( ^ ) "pred=") i.prediction);
      suffix i.knobs;
    ]

let workloads = Workloads.Specjvm.all @ Workloads.Javagrande.all
let workload name = List.find (fun (w : W.t) -> w.name = name) workloads
let machines = [ Memsim.Config.pentium4; Memsim.Config.athlon_mp ]
let modes = [ SP.Options.Off; SP.Options.Inter; SP.Options.Inter_intra ]

let run_cell (c : cell) =
  let t0 = Unix.gettimeofday () in
  let monitor =
    if c.monitor then Some Monitor.Collector.default_window_cycles else None
  in
  let result =
    match c.opts with
    | None ->
        H.run ?monitor ~engine:c.engine ~telemetry:c.telemetry
          ~profile:c.profile ~mode:c.mode ~machine:c.machine c.workload
    | Some opts ->
        H.run ~opts ?monitor ~engine:c.engine ~telemetry:c.telemetry
          ~profile:c.profile ~mode:c.mode ~machine:c.machine c.workload
  in
  { cell = c; result; seconds = Unix.gettimeofday () -. t0 }

let default_jobs () = Domain.recommended_domain_count ()

let run_matrix ?progress ~jobs cells =
  let cells = Array.of_list cells in
  let n = Array.length cells in
  let results = Array.make n None in
  let jobs = max 1 (min jobs n) in
  let report =
    match progress with
    | None -> fun _ -> ()
    | Some f ->
        let m = Mutex.create () in
        fun c ->
          Mutex.lock m;
          (try f c with e -> Mutex.unlock m; raise e);
          Mutex.unlock m
  in
  if jobs = 1 then
    (* Serial fallback: no domains at all, to keep single-core runs and
       debugging sessions free of any runtime-parallelism overhead. *)
    Array.iteri
      (fun i c ->
        report c;
        results.(i) <- Some (run_cell c))
      cells
  else begin
    let next = Atomic.make 0 in
    let worker () =
      let continue = ref true in
      while !continue do
        let i = Atomic.fetch_and_add next 1 in
        if i >= n then continue := false
        else begin
          let c = cells.(i) in
          report c;
          (* Distinct domains write distinct indices of a boxed-option
             array: no data race, and [Domain.join] publishes the
             writes. *)
          results.(i) <- Some (run_cell c)
        end
      done
    in
    let helpers = Array.init (jobs - 1) (fun _ -> Domain.spawn worker) in
    worker ();
    Array.iter Domain.join helpers
  end;
  Array.to_list
    (Array.map
       (function
         | Some r -> r
         | None -> invalid_arg "run_matrix: unfilled cell (worker died?)")
       results)
