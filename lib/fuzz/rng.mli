(** Deterministic pseudo-random number generator (splitmix64).

    Self-contained so that a published fuzzing seed reproduces the same
    MiniJava program on any build, independent of the OCaml stdlib's
    [Random] implementation. *)

type t

val create : seed:int -> t

val mix : int -> int
(** One splitmix64 scrambling step on a raw integer: derives the
    per-program seed from [campaign_seed + program_index] so that
    [spf fuzz --seed (campaign_seed + i) --count 1] replays program [i]
    of a campaign exactly. *)

val int : t -> int -> int
(** [int t bound] is uniform-ish in [\[0, bound)]; [0] when [bound <= 0]. *)

val range : t -> int -> int -> int
(** [range t lo hi] is in [\[lo, hi\]] inclusive. *)

val bool : t -> bool

val chance : t -> int -> bool
(** [chance t p] is true with probability [p]%. *)

val choose : t -> 'a array -> 'a
(** Uniform pick; raises [Invalid_argument] on an empty array. *)
