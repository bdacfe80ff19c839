(** Global MESI directory.

    Tracks, for every cache line, which cores' private hierarchies hold it
    and whether one of them holds it exclusively ([E]/[M]). The directory is
    the serialization point for coherence transactions.

    Internally the sharer set is a flat per-line bitmask (two 32-bit planes,
    cores 0–31 and 32–63) plus an exclusivity word, so the hot coherence
    path never allocates (DESIGN §12). The [sharing] variant view below is
    kept for tests and diagnostics. *)

type sharing =
  | Uncached
  | Shared of int list  (** core ids holding the line in S; non-empty, sorted *)
  | Excl of int         (** one core holds the line in E or M *)

type t

val create : unit -> t

val sharing : t -> int -> sharing

(** [set t line sharing] installs the new sharing state. [Shared []] is
    normalised to [Uncached]. *)
val set : t -> int -> sharing -> unit

(** [add_sharer t line core] transitions [Uncached -> Shared [core]] or adds
    [core] to an existing sharer set. Raises [Invalid_argument] if the line
    is currently [Excl] of another core. *)
val add_sharer : t -> int -> int -> unit

(** [drop t line core] removes [core] from the line's sharers/owner (used
    when a private cache silently evicts the line). *)
val drop : t -> int -> int -> unit

(** [others t line core] lists every core other than [core] currently
    holding the line, in ascending id order. Allocates; tests only — the
    hot path uses {!next_other}/{!others_count}. *)
val others : t -> int -> int -> int list

(** {2 Allocation-free accessors (hot path)} *)

(** No core holds the line. *)
val is_uncached : t -> int -> bool

(** Owner core id if the line is held [E]/[M], else [-1]. *)
val excl_owner : t -> int -> int

val set_uncached : t -> int -> unit

(** [set_excl t line core] makes [core] the sole (exclusive) holder. *)
val set_excl : t -> int -> int -> unit

(** [set_shared_pair t line a b] makes exactly [a] and [b] the (shared)
    holders — the owner-downgrade transition on a read miss to an [Excl]
    line. *)
val set_shared_pair : t -> int -> int -> int -> unit

(** Number of holders other than [core]. *)
val others_count : t -> int -> int -> int

(** [next_other t line core from] is the lowest-id holder of [line] that
    is [>= from] and not [core], or -1 if there is none ([0 <= from <=
    64]). Walking [from = 0], then one past each result, visits the other
    holders in ascending id order (the order [others] returns) with no
    callback; holders dropped behind the cursor do not disturb the walk. *)
val next_other : t -> int -> int -> int -> int

(** [iter_lines t f] calls [f line] for every line with at least one
    holder (coherence invariant checker; not on the hot path). *)
val iter_lines : t -> (int -> unit) -> unit
