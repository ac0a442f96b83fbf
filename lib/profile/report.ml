(* Joins the collector's raw tables with the program: method names,
   instruction mnemonics, and the loop forest of each method's final
   body. pcs are interpreted against the final (possibly JIT-rewritten)
   code; the few cycles a hot method spent interpreted before
   compilation are attributed to the pc positions of the rewritten body,
   an approximation DESIGN.md section 9 discusses.

   Determinism: every list is sorted with a total order (cycle totals
   descending, ties by (method id, pc/loop id)), so two runs of the same
   seed render byte-identically. *)

module C = Collector

type pc_row = {
  method_id : int;
  method_name : string;
  pc : int;
  instr : string;
  loop_id : int;
  loop_depth : int;
  bins : C.bins;
  row_total : int;
}

type loop_row = {
  l_method : string;
  l_loop : int;
  l_depth : int;
  l_header_pc : int;
  l_bins : C.bins;
  l_total : int;
  l_actions : int;
}

type obj_row = {
  alloc_method : string;
  alloc_pc : int;
  allocs : int;
  alloc_bytes : int;
  o_tlb : int;
  o_l1 : int;
  o_l2 : int;
  o_mem : int;
  o_total : int;
}

type t = {
  cycles : int;
  gc_cycles : int;
  totals : C.bins;
  pcs : pc_row list;
  loops : loop_row list;
  objects : obj_row list;
}

(* The canonical bin order, shared by the renderers, the folded export
   and the JSON schema. *)
let bin_fields : (string * (C.bins -> int)) list =
  [
    ("retire", fun b -> b.C.b_retire);
    ("tlb", fun b -> b.C.b_tlb);
    ("l1", fun b -> b.C.b_l1);
    ("l2", fun b -> b.C.b_l2);
    ("mem", fun b -> b.C.b_mem);
    ("pf_overhead", fun b -> b.C.b_pf);
    ("guard_overhead", fun b -> b.C.b_guard);
    ("alloc", fun b -> b.C.b_alloc);
  ]

let build ~program ?reports ~cycles coll =
  let module Cf = Vm.Classfile in
  (* Loop structure of each profiled method's final body, on demand. *)
  let loop_info = Hashtbl.create 16 in
  let loops_of mid =
    match Hashtbl.find_opt loop_info mid with
    | Some x -> x
    | None ->
        let m = Cf.method_of_id program mid in
        let x =
          match Jit.Cfg.build m.code with
          | cfg -> Some (cfg, Jit.Loops.analyze cfg)
          | exception _ -> None
        in
        Hashtbl.add loop_info mid x;
        x
  in
  let pcs =
    C.pc_cells coll
    |> List.map (fun (k, bins) ->
           let mid = Telemetry.Attrib.packed_method k
           and pc = Telemetry.Attrib.packed_pc k in
           let m = Cf.method_of_id program mid in
           let instr =
             if pc < Array.length m.code then
               Vm.Bytecode.to_string m.code.(pc)
             else "?"
           in
           let loop_id, loop_depth =
             match loops_of mid with
             | Some (cfg, forest) when pc < Array.length m.code -> (
                 match Jit.Loops.loop_of_pc cfg forest pc with
                 | Some l -> (l.Jit.Loops.loop_id, l.Jit.Loops.depth)
                 | None -> (-1, 0))
             | _ -> (-1, 0)
           in
           {
             method_id = mid;
             method_name = m.method_name;
             pc;
             instr;
             loop_id;
             loop_depth;
             bins;
             row_total = C.bins_total bins;
           })
    |> List.sort (fun a b ->
           match compare b.row_total a.row_total with
           | 0 -> compare (a.method_id, a.pc) (b.method_id, b.pc)
           | c -> c)
  in
  let totals = C.zero_bins () in
  List.iter (fun r -> C.add_bins ~into:totals r.bins) pcs;
  (* Per-loop rollup of the pc rows; loop id -1 collects each method's
     straight-line remainder. *)
  let loop_tbl = Hashtbl.create 32 in
  List.iter
    (fun r ->
      let key = (r.method_id, r.loop_id) in
      let row =
        match Hashtbl.find_opt loop_tbl key with
        | Some row -> row
        | None ->
            let header_pc =
              if r.loop_id < 0 then -1
              else
                match loops_of r.method_id with
                | Some (cfg, forest) ->
                    let l = forest.Jit.Loops.all.(r.loop_id) in
                    (Jit.Cfg.block cfg l.Jit.Loops.header).Jit.Cfg.start_pc
                | None -> -1
            in
            let actions =
              match reports with
              | None -> -1
              | Some reps ->
                  if r.loop_id < 0 then 0
                  else
                    List.fold_left
                      (fun acc (rep : Strideprefetch.Pass.loop_report) ->
                        if
                          rep.method_name = r.method_name
                          && rep.loop_id = r.loop_id
                        then
                          acc
                          + List.length rep.plan.Strideprefetch.Codegen.actions
                        else acc)
                      0 reps
            in
            let row =
              {
                l_method = r.method_name;
                l_loop = r.loop_id;
                l_depth = r.loop_depth;
                l_header_pc = header_pc;
                l_bins = C.zero_bins ();
                l_total = 0;
                l_actions = actions;
              }
            in
            Hashtbl.add loop_tbl key row;
            row
      in
      C.add_bins ~into:row.l_bins r.bins;
      Hashtbl.replace loop_tbl key
        { row with l_total = row.l_total + r.row_total })
    pcs;
  let loops =
    Hashtbl.fold (fun _ row acc -> row :: acc) loop_tbl []
    |> List.sort (fun a b ->
           match compare b.l_total a.l_total with
           | 0 -> compare (a.l_method, a.l_loop) (b.l_method, b.l_loop)
           | c -> c)
  in
  let objects =
    C.obj_cells coll
    |> List.map (fun (k, (c : C.obj_cell)) ->
           let alloc_method, alloc_pc =
             if k < 0 then ("(unattributed)", -1)
             else
               let mid = Telemetry.Attrib.packed_method k
               and pc = Telemetry.Attrib.packed_pc k in
               ((Cf.method_of_id program mid).method_name, pc)
           in
           {
             alloc_method;
             alloc_pc;
             allocs = c.C.allocs;
             alloc_bytes = c.C.alloc_bytes;
             o_tlb = c.C.o_tlb;
             o_l1 = c.C.o_l1;
             o_l2 = c.C.o_l2;
             o_mem = c.C.o_mem;
             o_total = c.C.o_tlb + c.C.o_l1 + c.C.o_l2 + c.C.o_mem;
           })
    |> List.sort (fun a b ->
           match compare b.o_total a.o_total with
           | 0 -> compare (a.alloc_method, a.alloc_pc) (b.alloc_method, b.alloc_pc)
           | c -> c)
  in
  { cycles; gc_cycles = C.gc_cycles coll; totals; pcs; loops; objects }

let conservation_error t =
  let binned = C.bins_total t.totals + t.gc_cycles in
  if binned = t.cycles then None
  else
    Some
      (Printf.sprintf
         "profile: binned cycles %d <> total cycles %d (law: retire + tlb + \
          l1 + l2 + mem + pf_overhead + guard_overhead + alloc + gc = \
          cycles)"
         binned t.cycles)

let pct part whole =
  if whole <= 0 then 0.0 else float_of_int part /. float_of_int whole

let loop_label l = if l < 0 then "-" else string_of_int l

let take n xs =
  let rec go n = function
    | x :: rest when n > 0 -> x :: go (n - 1) rest
    | _ -> []
  in
  go n xs

let pp_topdown ?(top = 20) ppf t =
  let open Telemetry.Table in
  Format.fprintf ppf "@[<v>cycles: %d  (gc: %d, %s of total)@,@," t.cycles
    t.gc_cycles
    (cell_pct (pct t.gc_cycles t.cycles));
  let summary =
    make ~columns:[ ("bin", Left); ("cycles", Right); ("share", Right) ]
  in
  List.iter
    (fun (name, get) ->
      add_row summary
        [ name; cell_int (get t.totals); cell_pct (pct (get t.totals) t.cycles) ])
    bin_fields;
  add_row summary [ "gc"; cell_int t.gc_cycles; cell_pct (pct t.gc_cycles t.cycles) ];
  add_sep summary;
  add_row summary [ "total"; cell_int t.cycles; cell_pct 1.0 ];
  Format.fprintf ppf "%a@,@," pp summary;
  let tbl =
    make
      ~columns:
        ([ ("method", Left); ("pc", Right); ("instr", Left); ("loop", Right) ]
        @ List.map (fun (name, _) -> (name, Right)) bin_fields
        @ [ ("total", Right); ("share", Right) ])
  in
  List.iter
    (fun r ->
      add_row tbl
        ([
           r.method_name;
           cell_int r.pc;
           r.instr;
           loop_label r.loop_id;
         ]
        @ List.map (fun (_, get) -> cell_int (get r.bins)) bin_fields
        @ [ cell_int r.row_total; cell_pct (pct r.row_total t.cycles) ]))
    (take top t.pcs);
  Format.fprintf ppf "%a" pp tbl;
  if List.length t.pcs > top then
    Format.fprintf ppf "@,(%d more pcs; raise --top or use --json)"
      (List.length t.pcs - top);
  Format.fprintf ppf "@]"

let pp_loops ?(top = 20) ppf t =
  let open Telemetry.Table in
  let tbl =
    make
      ~columns:
        [
          ("method", Left);
          ("loop", Right);
          ("depth", Right);
          ("header", Right);
          ("actions", Right);
          ("retire", Right);
          ("stall", Right);
          ("overhead", Right);
          ("total", Right);
          ("share", Right);
        ]
  in
  List.iter
    (fun r ->
      let b = r.l_bins in
      add_row tbl
        [
          r.l_method;
          loop_label r.l_loop;
          cell_int r.l_depth;
          (if r.l_header_pc < 0 then "-" else cell_int r.l_header_pc);
          (if r.l_actions < 0 then "?" else cell_int r.l_actions);
          cell_int b.C.b_retire;
          cell_int (b.C.b_tlb + b.C.b_l1 + b.C.b_l2 + b.C.b_mem);
          cell_int (b.C.b_pf + b.C.b_guard + b.C.b_alloc);
          cell_int r.l_total;
          cell_pct (pct r.l_total t.cycles);
        ])
    (take top t.loops);
  Format.fprintf ppf "@[<v>%a@]" pp tbl

let pp_objects ?(top = 20) ppf t =
  let open Telemetry.Table in
  let tbl =
    make
      ~columns:
        [
          ("alloc site", Left);
          ("pc", Right);
          ("allocs", Right);
          ("bytes", Right);
          ("tlb", Right);
          ("l1", Right);
          ("l2", Right);
          ("mem", Right);
          ("stall", Right);
          ("share", Right);
        ]
  in
  List.iter
    (fun r ->
      add_row tbl
        [
          r.alloc_method;
          (if r.alloc_pc < 0 then "-" else cell_int r.alloc_pc);
          cell_int r.allocs;
          cell_int r.alloc_bytes;
          cell_int r.o_tlb;
          cell_int r.o_l1;
          cell_int r.o_l2;
          cell_int r.o_mem;
          cell_int r.o_total;
          cell_pct (pct r.o_total t.cycles);
        ])
    (take top t.objects);
  Format.fprintf ppf "@[<v>%a@]" pp tbl

let pp_loop_detail ~loop ppf t =
  let open Telemetry.Table in
  let rows =
    List.filter (fun r -> r.loop_id = loop) t.pcs
    |> List.sort (fun a b -> compare (a.method_id, a.pc) (b.method_id, b.pc))
  in
  if rows = [] then Format.fprintf ppf "no profiled pcs in loop %d" loop
  else begin
    let tbl =
      make
        ~columns:
          ([ ("method", Left); ("pc", Right); ("instr", Left) ]
          @ List.map (fun (name, _) -> (name, Right)) bin_fields
          @ [ ("total", Right) ])
    in
    List.iter
      (fun r ->
        add_row tbl
          ([ r.method_name; cell_int r.pc; r.instr ]
          @ List.map (fun (_, get) -> cell_int (get r.bins)) bin_fields
          @ [ cell_int r.row_total ]))
      rows;
    Format.fprintf ppf "@[<v>%a@]" pp tbl
  end

(* flamegraph.pl's collapsed-stack format: semicolon-separated frames,
   space, count. Frames must not contain the separators themselves. *)
let sanitize_frame s =
  String.map (fun c -> if c = ';' || c = ' ' then '_' else c) s

let folded t =
  let lines = ref [] in
  List.iter
    (fun r ->
      let prefix =
        Printf.sprintf "%s;%s;%d:%s"
          (sanitize_frame r.method_name)
          (if r.loop_id < 0 then "straight" else "loop_" ^ string_of_int r.loop_id)
          r.pc (sanitize_frame r.instr)
      in
      List.iter
        (fun (name, get) ->
          let n = get r.bins in
          if n > 0 then
            lines := Printf.sprintf "%s;%s %d" prefix name n :: !lines)
        bin_fields)
    t.pcs;
  if t.gc_cycles > 0 then
    lines := Printf.sprintf "gc %d" t.gc_cycles :: !lines;
  match List.sort compare !lines with
  | [] -> ""
  | sorted -> String.concat "\n" sorted ^ "\n"

let json_of_bins b =
  Telemetry.Json.Obj
    (List.map (fun (name, get) -> (name, Telemetry.Json.Int (get b))) bin_fields)

let to_json t =
  let open Telemetry.Json in
  let pc_json r =
    Obj
      [
        ("method", Str r.method_name);
        ("pc", Int r.pc);
        ("instr", Str r.instr);
        ("loop", Int r.loop_id);
        ("depth", Int r.loop_depth);
        ("bins", json_of_bins r.bins);
        ("total", Int r.row_total);
      ]
  in
  let loop_json r =
    Obj
      [
        ("method", Str r.l_method);
        ("loop", Int r.l_loop);
        ("depth", Int r.l_depth);
        ("header_pc", Int r.l_header_pc);
        ("actions", Int r.l_actions);
        ("bins", json_of_bins r.l_bins);
        ("total", Int r.l_total);
      ]
  in
  let obj_json r =
    Obj
      [
        ("method", Str r.alloc_method);
        ("pc", Int r.alloc_pc);
        ("allocs", Int r.allocs);
        ("bytes", Int r.alloc_bytes);
        ("tlb", Int r.o_tlb);
        ("l1", Int r.o_l1);
        ("l2", Int r.o_l2);
        ("mem", Int r.o_mem);
        ("stall", Int r.o_total);
      ]
  in
  Obj
    [
      ("schema", Str "spf_prof/v1");
      ("cycles", Int t.cycles);
      ("gc_cycles", Int t.gc_cycles);
      ("totals", json_of_bins t.totals);
      ("pcs", List (List.map pc_json t.pcs));
      ("loops", List (List.map loop_json t.loops));
      ("objects", List (List.map obj_json t.objects));
    ]
