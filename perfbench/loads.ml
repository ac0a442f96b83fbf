(* A run's demand-load stream, captured through [Vm.Interp.set_load_observer]
   and replayed alone through a fresh [Memsim.Hierarchy]. The observer sees
   loads only: stores, software prefetches and guarded loads never reach
   it, and the hierarchy flush after a collection is not replayed, so a
   replay's time is a lower bound on the memory simulator's share. *)

open Bigarray

type chunk = (int32, int32_elt, c_layout) Array1.t

(* Each load takes three int32 slots: packed pc, address, simulated time. *)
let loads_per_chunk = 1 lsl 16

type t = {
  mutable full : chunk list;  (** newest first *)
  mutable current : chunk;
  mutable used : int;  (** loads in [current] *)
  mutable count : int;
}

let new_chunk () = Array1.create int32 c_layout (3 * loads_per_chunk)
let create () = { full = []; current = new_chunk (); used = 0; count = 0 }
let count t = t.count

let to_int32 what v =
  if v < 0 || v > 0x7fff_ffff then
    failwith (Printf.sprintf "load capture: %s %d does not fit 31 bits" what v);
  Int32.of_int v

let add t ~pc ~addr ~now =
  if t.used = loads_per_chunk then begin
    t.full <- t.current :: t.full;
    t.current <- new_chunk ();
    t.used <- 0
  end;
  let i = 3 * t.used in
  Array1.unsafe_set t.current i (to_int32 "pc" pc);
  Array1.unsafe_set t.current (i + 1) (to_int32 "address" addr);
  Array1.unsafe_set t.current (i + 2) (to_int32 "cycle" now);
  t.used <- t.used + 1;
  t.count <- t.count + 1

(** Host seconds to push every captured load through a fresh hierarchy of
    [machine]. *)
let replay machine t =
  let h = Memsim.Hierarchy.create machine in
  let run_chunk (c : chunk) n =
    for i = 0 to n - 1 do
      let j = 3 * i in
      ignore
        (Memsim.Hierarchy.demand_access h
           ~pc:(Int32.to_int (Array1.unsafe_get c j))
           ~addr:(Int32.to_int (Array1.unsafe_get c (j + 1)))
           ~kind:`Load
           ~now:(Int32.to_int (Array1.unsafe_get c (j + 2))))
    done
  in
  let start = Unix.gettimeofday () in
  List.iter (fun c -> run_chunk c loads_per_chunk) (List.rev t.full);
  run_chunk t.current t.used;
  Unix.gettimeofday () -. start
