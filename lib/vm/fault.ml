type t =
  | Unguarded_spec_loads
  | Skip_guard_dominance
  | Engine_desync
  | Hw_desync
  | Prediction_desync
  | Monitor_desync
  | Diff_desync

(* The one place a fault is spelled. *)
let table =
  [
    ( Unguarded_spec_loads,
      "unguarded-spec-loads",
      "speculative loads fault instead of yielding null when their guard \
       trips (caught by the fuzz oracle as a crash)" );
    ( Skip_guard_dominance,
      "skip-guard-dominance",
      "dereference prefetches are emitted before their spec_load guard \
       (caught by the static lint)" );
    ( Engine_desync,
      "engine-desync",
      "the closure engine retires one extra instruction per goto (caught \
       by the engine cross-check)" );
    ( Hw_desync,
      "hw-desync",
      "runs on an RPT-prefetcher machine print a spurious line (caught by \
       the hardware cross-check)" );
    ( Prediction_desync,
      "prediction-desync",
      "static/hybrid rewrites prepend an observable instruction pair \
       (caught by the prediction cross-check)" );
    ( Monitor_desync,
      "monitor-desync",
      "every monitor window boundary charges one extra cycle (caught by \
       the monitor observer-effect check and the profiler's conservation \
       law)" );
    ( Diff_desync,
      "diff-desync",
      "the blame join perturbs one loop's delta (caught by the blame \
       conservation check)" );
  ]

let all = List.map (fun (f, _, _) -> f) table
let entry f = List.find (fun (g, _, _) -> g = f) table
let name f = match entry f with _, n, _ -> n
let doc f = match entry f with _, _, d -> d

let of_name s =
  List.find_map (fun (f, n, _) -> if n = s then Some f else None) table

type set = t list

let none = []
let of_list = List.sort_uniq compare
let mem = List.mem
