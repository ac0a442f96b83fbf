(** An int-keyed hash table for the observers' hot paths.

    The generic [Hashtbl] hashes through the [caml_hash] C primitive and
    compares keys polymorphically; this table hashes an int to itself
    and compares with [Int.equal]. The keys stored here — cache-line
    indices, packed (method, pc) sites, demand keys — differ in their
    low bits, so the identity hash spreads them well. Shared by the
    attribution shadow tables, the profiler's object-site cells and the
    monitor's alloc-site sets. *)

include Hashtbl.S with type key = int
