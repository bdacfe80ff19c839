(** A binary min-heap of int keys [(time, tie)] used by the fiber
    scheduler.

    Ties on [time] are broken by the secondary integer key so that the
    scheduling order — and hence the whole simulation — is deterministic.
    Each entry also carries a caller-owned int, [aux], that travels with
    it (the scheduler stores the fiber id there and keeps the fiber's
    task in its own per-fiber slot).

    The heap holds ints only — one unboxed plane — so [add], [pop] and
    [exchange] allocate nothing and never hit the write barrier
    (DESIGN §12). The reading protocol is: check {!is_empty}, read
    {!top_time}/{!top_tie}/{!top_aux}, then {!pop}. *)

type t

val create : unit -> t

val is_empty : t -> bool
val length : t -> int

val add : t -> time:int -> tie:int -> aux:int -> unit

(** Key/aux of the minimum entry. Unspecified (may raise) if the heap is
    empty — callers check {!is_empty} first. *)
val top_time : t -> int

val top_tie : t -> int
val top_aux : t -> int

(** [pop t] removes the minimum entry — read {!top_time}/{!top_tie}/
    {!top_aux} before popping. Raises [Invalid_argument] if empty. *)
val pop : t -> unit

(** [exchange t ~time ~tie ~aux] pops the minimum entry and adds the new
    one in a single sift; the popped entry's time and aux are readable via
    {!xchg_time}/{!xchg_aux} until the next [exchange]. The incoming key
    must compare ≥ the minimum's — the scheduler's suspension-path
    precondition — and keys must form a strict total order (equal keys
    would make the fused form's pop order unspecified). Raises
    [Invalid_argument] if empty. *)
val exchange : t -> time:int -> tie:int -> aux:int -> unit

val xchg_time : t -> int
val xchg_aux : t -> int
