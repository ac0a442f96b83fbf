(* Host-time spans recorded from outside the simulator's libraries: every
   span wraps one call into a library's public function. A span's self
   time is its duration minus the time covered by the spans nested in it,
   so the self times of one run's spans add up exactly to the duration of
   its outermost span. *)

type t = {
  run : int;  (** which wired run (one cell in one pass) the span belongs to *)
  cell : string;
  kind : string;  (** traced, plain twin or capture run *)
  layer : string;  (** the library the wrapped call belongs to *)
  name : string;
  start : float;
  stop : float;
  self : float;
}

(* Seconds since the program started, so written timestamps keep their
   microseconds. *)
let epoch = Unix.gettimeofday ()
let now () = Unix.gettimeofday () -. epoch

type acc = { mutable self_s : float; mutable dur_s : float }

(* The run being recorded and its running totals per (layer, name).
   [keep] also retains every span for the output file. *)
let current_run = ref (-1)
let current_cell = ref ""
let current_kind = ref ""
let totals : (string * string, acc) Hashtbl.t = Hashtbl.create 16
let keep = ref false
let kept : t list ref = ref []

(* One accumulator per open span: the time its finished children took. *)
let open_children : float ref list ref = ref []

let start_run id ~cell ~kind =
  current_run := id;
  current_cell := cell;
  current_kind := kind;
  Hashtbl.reset totals

let sum f =
  Hashtbl.fold (fun key acc total -> if f key then total +. acc.self_s else total)
    totals 0.0

(** Self time of every span of [layer] in the current run. *)
let layer_self layer = sum (fun (l, _) -> l = layer)

(** Self time of the spans named [name] in [layer]. *)
let self layer name = sum (fun key -> key = (layer, name))

(** Summed duration, nested spans included, of the spans named [name]. *)
let duration layer name =
  match Hashtbl.find_opt totals (layer, name) with
  | Some acc -> acc.dur_s
  | None -> 0.0

let record ~layer ~name f =
  let children = ref 0.0 in
  open_children := children :: !open_children;
  let start = now () in
  let finish () =
    let stop = now () in
    let dur = stop -. start in
    open_children := List.tl !open_children;
    (match !open_children with p :: _ -> p := !p +. dur | [] -> ());
    let self = dur -. !children in
    (match Hashtbl.find_opt totals (layer, name) with
    | Some acc ->
        acc.self_s <- acc.self_s +. self;
        acc.dur_s <- acc.dur_s +. dur
    | None -> Hashtbl.add totals (layer, name) { self_s = self; dur_s = dur });
    if !keep then
      kept :=
        {
          run = !current_run;
          cell = !current_cell;
          kind = !current_kind;
          layer;
          name;
          start;
          stop;
          self;
        }
        :: !kept
  in
  match f () with
  | v ->
      finish ();
      v
  | exception e ->
      finish ();
      raise e
