(* Exporters: Chrome trace_event JSON (load into chrome://tracing or
   Perfetto) and a flat JSONL metrics stream (one JSON object per line,
   friendly to jq / pandas). Both carry the two clocks: host wall time
   in [ts]/[dur] and the simulated cycle counter in [args]. *)

let event_json (e : Event.t) =
  let base =
    [
      ("name", Json.Str e.Event.name);
      ("cat", Json.Str (if e.cat = "" then "spf" else e.cat));
      ("ph", Json.Str (Event.phase_letter e.phase));
      ("ts", Json.Float e.ts_us);
      ("pid", Json.Int 1);
      ("tid", Json.Int 1);
    ]
  in
  let base =
    match e.phase with
    | Event.Span -> base @ [ ("dur", Json.Float e.dur_us) ]
    | Event.Instant -> base @ [ ("s", Json.Str "t") ]
    | Event.Counter -> base
  in
  let cycle_args =
    match e.phase with
    | Event.Span ->
        [
          ("cycles_begin", Json.Int e.cycles_begin);
          ("cycles_end", Json.Int e.cycles_end);
          ("cycles", Json.Int (e.cycles_end - e.cycles_begin));
        ]
    | Event.Instant | Event.Counter -> [ ("cycles", Json.Int e.cycles_begin) ]
  in
  (* Counter events render their sampled values directly as args so the
     trace viewer draws them as counter tracks; the cycle stamp rides
     along under a reserved name. *)
  let args =
    match e.phase with
    | Event.Counter -> e.args @ [ ("_cycles", Json.Int e.cycles_begin) ]
    | Event.Span | Event.Instant -> e.args @ cycle_args
  in
  Json.Obj (base @ [ ("args", Json.Obj args) ])

let chrome_json ?(other = []) sink =
  let events = List.map event_json (Sink.events sink) in
  Json.Obj
    [
      ("traceEvents", Json.List events);
      ("displayTimeUnit", Json.Str "ms");
      ( "otherData",
        Json.Obj
          ([
             ("exporter", Json.Str "spf");
             ("total_events", Json.Int (Sink.total_events sink));
             ("dropped_events", Json.Int (Sink.dropped sink));
           ]
          @ other) );
    ]

let write_chrome ?other sink ~path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      let buf = Buffer.create 65536 in
      Json.to_buffer buf (chrome_json ?other sink);
      Buffer.add_char buf '\n';
      Buffer.output_buffer oc buf)

(* JSONL: one object per event, flat enough for line-oriented tools.
   [extra] fields (workload, machine, mode, ...) are stamped onto every
   line so concatenated files stay self-describing. *)

let jsonl_line ?(extra = []) (e : Event.t) =
  let fields =
    extra
    @ [
        ("name", Json.Str e.Event.name);
        ("cat", Json.Str (if e.cat = "" then "spf" else e.cat));
        ("phase", Json.Str (Event.phase_letter e.phase));
        ("ts_us", Json.Float e.ts_us);
        ("dur_us", Json.Float e.dur_us);
        ("cycles_begin", Json.Int e.cycles_begin);
        ("cycles_end", Json.Int e.cycles_end);
      ]
    @ (match e.args with [] -> [] | args -> [ ("args", Json.Obj args) ])
  in
  Json.to_string (Json.Obj fields)

(* The stream's last line is a summary object (distinguished by its
   ["summary"] key) carrying the ring accounting: a consumer of a
   truncated retained window can tell exactly how many events it is
   missing. *)
let jsonl_summary ?(extra = []) sink =
  Json.to_string
    (Json.Obj
       (extra
       @ [
           ( "summary",
             Json.Obj
               [
                 ("total_events", Json.Int (Sink.total_events sink));
                 ("dropped_events", Json.Int (Sink.dropped sink));
               ] );
         ]))

let jsonl_lines ?extra sink =
  List.map (jsonl_line ?extra) (Sink.events sink) @ [ jsonl_summary ?extra sink ]

let write_jsonl ?extra sink ~path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter
        (fun line ->
          output_string oc line;
          output_char oc '\n')
        (jsonl_lines ?extra sink))
