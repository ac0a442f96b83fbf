module J = Telemetry.Json
module T = Telemetry.Table
module R = Profile.Report

type loop_delta = {
  d_method : string;
  d_loop : int;
  d_a_total : int;
  d_b_total : int;
  d_delta : int;
  d_bins : int array;
  d_only : [ `Both | `Only_a | `Only_b ];
}

type site_delta = {
  sd_method : string;
  sd_pc : int;
  sd_a_stall : int;
  sd_b_stall : int;
  sd_delta : int;
  sd_allocs_delta : int;
}

type prov_delta = {
  pd_method : string;
  pd_loop : int;
  pd_added : string list;
  pd_removed : string list;
  pd_inspection : (string * string) option;
  pd_steps : int * int;
  pd_iterations : int * int;
}

type t = {
  a : Rundata.t;
  b : Rundata.t;
  total_delta : int;
  gc_delta : int;
  bin_deltas : int array;
  loops : loop_delta list;
  sites : site_delta list;
  attribution : (string * int * int) list option;
  provenance : prov_delta list;
}

let bin_names = List.map fst R.bin_fields

(* Per-bin [b - a] in {!Profile.Report.bin_fields} order. *)
let bin_delta (a : Profile.Collector.bins) (b : Profile.Collector.bins) =
  Array.of_list (List.map (fun (_, get) -> get b - get a) R.bin_fields)

(* Outer join of two association lists keyed by [key], preserving every
   key of either side. *)
let outer_join ~key xs ys =
  let tbl = Hashtbl.create 64 in
  List.iter (fun x -> Hashtbl.replace tbl (key x) (Some x, None)) xs;
  List.iter
    (fun y ->
      let k = key y in
      match Hashtbl.find_opt tbl k with
      | Some (a, _) -> Hashtbl.replace tbl k (a, Some y)
      | None -> Hashtbl.replace tbl k (None, Some y))
    ys;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []

let by_magnitude delta tie a b =
  let c = compare (abs (delta b)) (abs (delta a)) in
  if c <> 0 then c else compare (tie a) (tie b)

let loop_deltas (a : R.t) (b : R.t) =
  outer_join
    ~key:(fun (l : R.loop_row) -> (l.l_method, l.l_loop))
    a.loops b.loops
  |> List.map (fun ((m, id), pair) ->
         let bins_of = function
           | Some (l : R.loop_row) -> l.l_bins
           | None -> Profile.Collector.zero_bins ()
         in
         let total_of = function
           | Some (l : R.loop_row) -> l.l_total
           | None -> 0
         in
         let la, lb = pair in
         {
           d_method = m;
           d_loop = id;
           d_a_total = total_of la;
           d_b_total = total_of lb;
           d_delta = total_of lb - total_of la;
           d_bins = bin_delta (bins_of la) (bins_of lb);
           d_only =
             (match pair with
             | Some _, Some _ -> `Both
             | Some _, None -> `Only_a
             | None, _ -> `Only_b);
         })
  |> List.sort
       (by_magnitude (fun d -> d.d_delta) (fun d -> (d.d_method, d.d_loop)))

let site_deltas (a : R.t) (b : R.t) =
  outer_join
    ~key:(fun (o : R.obj_row) -> (o.alloc_method, o.alloc_pc))
    a.objects b.objects
  |> List.map (fun ((m, pc), (sa, sb)) ->
         let stall = function Some (o : R.obj_row) -> o.o_total | None -> 0 in
         let allocs = function Some (o : R.obj_row) -> o.allocs | None -> 0 in
         {
           sd_method = m;
           sd_pc = pc;
           sd_a_stall = stall sa;
           sd_b_stall = stall sb;
           sd_delta = stall sb - stall sa;
           sd_allocs_delta = allocs sb - allocs sa;
         })
  |> List.sort
       (by_magnitude (fun s -> s.sd_delta) (fun s -> (s.sd_method, s.sd_pc)))

let attribution_deltas (a : Rundata.t) (b : Rundata.t) =
  match (a.attribution, b.attribution) with
  | Some x, Some y ->
      Some
        (List.map
           (fun (name, get) -> (name, get x, get y))
           Rundata.attribution_fields)
  | _ -> None

let inspection_state (p : Rundata.prov) =
  if p.p_skipped then "skipped"
  else if p.p_shortened then "shortened"
  else "full"

(* Set difference preserving multiplicity: two identical direct actions
   minus one leaves one. *)
let multiset_diff xs ys =
  List.fold_left
    (fun acc y ->
      let rec remove_one = function
        | [] -> None
        | x :: rest when x = y -> Some rest
        | x :: rest -> Option.map (fun r -> x :: r) (remove_one rest)
      in
      match remove_one acc with Some acc' -> acc' | None -> acc)
    xs ys

let prov_deltas (a : Rundata.t) (b : Rundata.t) =
  if a.provenance = [] || b.provenance = [] then []
  else
    outer_join
      ~key:(fun (p : Rundata.prov) -> (p.p_method, p.p_loop))
      a.provenance b.provenance
    |> List.filter_map (fun ((m, id), (pa, pb)) ->
           let actions = function
             | Some (p : Rundata.prov) -> p.p_actions
             | None -> []
           in
           let steps = function Some (p : Rundata.prov) -> p.p_steps | None -> 0 in
           let iters = function
             | Some (p : Rundata.prov) -> p.p_iterations
             | None -> 0
           in
           let insp = Option.map inspection_state in
           let aa = actions pa and ab = actions pb in
           let added = multiset_diff ab aa in
           let removed = multiset_diff aa ab in
           let inspection =
             match (insp pa, insp pb) with
             | Some x, Some y when x <> y -> Some (x, y)
             | Some x, None -> Some (x, "-")
             | None, Some y -> Some ("-", y)
             | _ -> None
           in
           if added = [] && removed = [] && inspection = None
              && steps pa = steps pb
           then None
           else
             Some
               {
                 pd_method = m;
                 pd_loop = id;
                 pd_added = added;
                 pd_removed = removed;
                 pd_inspection = inspection;
                 pd_steps = (steps pa, steps pb);
                 pd_iterations = (iters pa, iters pb);
               })
    |> List.sort (fun x y ->
           compare (x.pd_method, x.pd_loop) (y.pd_method, y.pd_loop))

let build ?(faults = Vm.Fault.none) ~(a : Rundata.t) ~(b : Rundata.t) () =
  let pa = a.profile and pb = b.profile in
  let loops = loop_deltas pa pb in
  let loops =
    if not (Vm.Fault.mem Vm.Fault.Diff_desync faults) then loops
    else
      (* The injected self-test fault: desynchronize the join by a single
         cycle on the first loop, breaking the conservation law. *)
      match loops with
      | l :: rest -> { l with d_delta = l.d_delta + 1 } :: rest
      | [] -> loops
  in
  {
    a;
    b;
    total_delta = pb.cycles - pa.cycles;
    gc_delta = pb.gc_cycles - pa.gc_cycles;
    bin_deltas = bin_delta pa.totals pb.totals;
    loops;
    sites = site_deltas pa pb;
    attribution = attribution_deltas a b;
    provenance = prov_deltas a b;
  }

let check t =
  let loop_sum = List.fold_left (fun acc d -> acc + d.d_delta) 0 t.loops in
  if loop_sum + t.gc_delta = t.total_delta then None
  else
    Some
      (Printf.sprintf
         "blame conservation violated: per-loop deltas (%+d) + gc (%+d) = %+d \
          <> total cycle delta %+d (off by %+d)"
         loop_sum t.gc_delta (loop_sum + t.gc_delta) t.total_delta
         (loop_sum + t.gc_delta - t.total_delta))

let top_loop t = match t.loops with [] -> None | l :: _ -> Some l

(* ------------------------------------------------------------------ *)
(* Rendering.                                                          *)

let signed n = Printf.sprintf "%+d" n

let pct_of_total delta total =
  if total = 0 then "-"
  else Printf.sprintf "%+.2f%%" (100.0 *. float_of_int delta /. float_of_int total)

let loop_name d =
  if d.d_loop = -1 then Printf.sprintf "%s/(straight-line)" d.d_method
  else Printf.sprintf "%s/loop%d" d.d_method d.d_loop

(* The workload, then every axis as a [--vs] override would spell it. *)
let config_line (rd : Rundata.t) =
  match rd.config with
  | None -> rd.workload ^ " (configuration not recorded)"
  | Some c ->
      String.concat " "
        (rd.workload
        :: List.map
             (fun ax -> Bisect.axis_name ax ^ "=" ^ Bisect.axis_value c ax)
             Bisect.all_axes)

let render ?(top = 10) t =
  let buf = Buffer.create 4096 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  let pa = t.a.profile and pb = t.b.profile in
  line "A: %s" (config_line t.a);
  line "B: %s" (config_line t.b);
  line "cycles: A=%d  B=%d  delta=%s (%s)" pa.cycles pb.cycles
    (signed t.total_delta)
    (pct_of_total t.total_delta pa.cycles);
  line "gc:     A=%d  B=%d  delta=%s" pa.gc_cycles pb.gc_cycles
    (signed t.gc_delta);
  Buffer.add_string buf "\n";
  (* Whole-run bin deltas. *)
  let bins = T.make ~columns:[ ("bin", T.Left); ("A", T.Right); ("B", T.Right);
                               ("delta", T.Right); ("of A", T.Right) ] in
  List.iteri
    (fun i (name, get) ->
      T.add_row bins
        [
          name;
          T.cell_int (get pa.totals);
          T.cell_int (get pb.totals);
          signed t.bin_deltas.(i);
          pct_of_total t.bin_deltas.(i) pa.cycles;
        ])
    R.bin_fields;
  T.add_row bins
    [ "gc"; T.cell_int pa.gc_cycles; T.cell_int pb.gc_cycles;
      signed t.gc_delta; pct_of_total t.gc_delta pa.cycles ];
  T.add_sep bins;
  T.add_row bins
    [ "total"; T.cell_int pa.cycles; T.cell_int pb.cycles;
      signed t.total_delta; pct_of_total t.total_delta pa.cycles ];
  Buffer.add_string buf (T.to_string bins);
  Buffer.add_string buf "\n\n";
  (* Loop blame: dominant bin named per loop; a remainder row keeps the
     rendered rows summing to the total even when truncated. *)
  let shown, rest =
    let rec split n = function
      | [] -> ([], [])
      | l when n = 0 -> ([], l)
      | x :: tl ->
          let s, r = split (n - 1) tl in
          (x :: s, r)
    in
    split top t.loops
  in
  line "loop blame (top %d of %d by |delta|):" (List.length shown)
    (List.length t.loops);
  let lt =
    T.make
      ~columns:
        [ ("loop", T.Left); ("A", T.Right); ("B", T.Right); ("delta", T.Right);
          ("dominant bin", T.Left); ("note", T.Left) ]
  in
  List.iter
    (fun d ->
      let dom =
        let best = ref 0 and besti = ref (-1) in
        Array.iteri
          (fun i v -> if abs v > abs !best then (best := v; besti := i))
          d.d_bins;
        if !besti < 0 then "-"
        else
          Printf.sprintf "%s %s" (List.nth bin_names !besti)
            (signed !best)
      in
      let note =
        match d.d_only with
        | `Both -> ""
        | `Only_a -> "only in A"
        | `Only_b -> "only in B"
      in
      T.add_row lt
        [ loop_name d; T.cell_int d.d_a_total; T.cell_int d.d_b_total;
          signed d.d_delta; dom; note ])
    shown;
  (if rest <> [] then
     let rest_sum = List.fold_left (fun acc d -> acc + d.d_delta) 0 rest in
     T.add_row lt
       [ Printf.sprintf "(%d more loops)" (List.length rest); ""; "";
         signed rest_sum; ""; "" ]);
  Buffer.add_string buf (T.to_string lt);
  Buffer.add_string buf "\n\n";
  (* Allocation-site blame. *)
  let moved_sites = List.filter (fun s -> s.sd_delta <> 0) t.sites in
  if moved_sites <> [] then begin
    let shown =
      List.filteri (fun i _ -> i < top) moved_sites
    in
    line "allocation-site stall deltas (top %d of %d moved):"
      (List.length shown) (List.length moved_sites);
    let st =
      T.make
        ~columns:
          [ ("alloc site", T.Left); ("A stall", T.Right); ("B stall", T.Right);
            ("delta", T.Right); ("allocs", T.Right) ]
    in
    List.iter
      (fun s ->
        T.add_row st
          [
            (if s.sd_pc = -1 then s.sd_method
             else Printf.sprintf "%s@%d" s.sd_method s.sd_pc);
            T.cell_int s.sd_a_stall;
            T.cell_int s.sd_b_stall;
            signed s.sd_delta;
            signed s.sd_allocs_delta;
          ])
      shown;
    Buffer.add_string buf (T.to_string st);
    Buffer.add_string buf "\n\n"
  end;
  (* Attribution deltas. *)
  (match t.attribution with
  | None -> ()
  | Some rows ->
      line "attribution deltas:";
      let at =
        T.make
          ~columns:
            [ ("class", T.Left); ("A", T.Right); ("B", T.Right);
              ("delta", T.Right) ]
      in
      List.iter
        (fun (name, a, b) ->
          T.add_row at [ name; T.cell_int a; T.cell_int b; signed (b - a) ])
        rows;
      Buffer.add_string buf (T.to_string at);
      Buffer.add_string buf "\n\n");
  (* Provenance diffs. *)
  if t.provenance <> [] then begin
    line "pass-decision changes (%d loop%s):" (List.length t.provenance)
      (if List.length t.provenance = 1 then "" else "s");
    List.iter
      (fun p ->
        let parts = ref [] in
        let add fmt = Printf.ksprintf (fun s -> parts := s :: !parts) fmt in
        List.iter (fun a -> add "+[%s]" a) p.pd_added;
        List.iter (fun a -> add "-[%s]" a) p.pd_removed;
        (match p.pd_inspection with
        | Some (x, y) -> add "inspection %s->%s" x y
        | None -> ());
        let sa, sb = p.pd_steps in
        if sa <> sb then add "steps %d->%d" sa sb;
        let ia, ib = p.pd_iterations in
        if ia <> ib then add "iterations %d->%d" ia ib;
        line "  %s/loop%d: %s" p.pd_method p.pd_loop
          (String.concat "  " (List.rev !parts)))
      t.provenance;
    Buffer.add_string buf "\n"
  end;
  (match check t with
  | None ->
      line
        "conservation: OK (per-loop deltas %s + gc %s = total cycle delta %s)"
        (signed (t.total_delta - t.gc_delta))
        (signed t.gc_delta) (signed t.total_delta)
  | Some msg -> line "conservation: VIOLATION — %s" msg);
  Buffer.contents buf

let to_json t =
  let loop_json d =
    J.Obj
      [
        ("method", J.Str d.d_method);
        ("loop", J.Int d.d_loop);
        ("a_total", J.Int d.d_a_total);
        ("b_total", J.Int d.d_b_total);
        ("delta", J.Int d.d_delta);
        ( "bins",
          J.Obj
            (List.mapi (fun i n -> (n, J.Int d.d_bins.(i))) bin_names)
        );
      ]
  in
  let site_json s =
    J.Obj
      [
        ("method", J.Str s.sd_method);
        ("pc", J.Int s.sd_pc);
        ("a_stall", J.Int s.sd_a_stall);
        ("b_stall", J.Int s.sd_b_stall);
        ("delta", J.Int s.sd_delta);
        ("allocs_delta", J.Int s.sd_allocs_delta);
      ]
  in
  let prov_json p =
    J.Obj
      [
        ("method", J.Str p.pd_method);
        ("loop", J.Int p.pd_loop);
        ("added", J.List (List.map (fun s -> J.Str s) p.pd_added));
        ("removed", J.List (List.map (fun s -> J.Str s) p.pd_removed));
        ( "inspection",
          match p.pd_inspection with
          | None -> J.Null
          | Some (x, y) -> J.List [ J.Str x; J.Str y ] );
        ("steps_a", J.Int (fst p.pd_steps));
        ("steps_b", J.Int (snd p.pd_steps));
      ]
  in
  J.Obj
    [
      ("schema", J.Str "spf_diff_blame/v1");
      ("a", Rundata.to_json t.a);
      ("b", Rundata.to_json t.b);
      ("total_delta", J.Int t.total_delta);
      ("gc_delta", J.Int t.gc_delta);
      ( "bin_deltas",
        J.Obj
          (List.mapi (fun i n -> (n, J.Int t.bin_deltas.(i))) bin_names)
      );
      ("loops", J.List (List.map loop_json t.loops));
      ("sites", J.List (List.map site_json t.sites));
      ( "attribution",
        match t.attribution with
        | None -> J.Null
        | Some rows ->
            J.List
              (List.map
                 (fun (n, a, b) ->
                   J.Obj [ ("class", J.Str n); ("a", J.Int a); ("b", J.Int b) ])
                 rows) );
      ("provenance", J.List (List.map prov_json t.provenance));
      ( "conservation",
        match check t with None -> J.Str "ok" | Some m -> J.Str m );
    ]
