(** Typed transaction log of the one NOrec implementation, {!Norec}
    (tagged NOrec, {!Norec_tagged}, is the same code): the read set
    (address/value pairs, in read order) and the write buffer (one entry
    per distinct address, in first-write order, with an open-addressed
    int index for read-your-own-write lookups).

    Everything lives in int arrays that are reused across attempts and
    transactions — one log per core, taken from a {!pool} — so logging a
    transactional read or write allocates nothing once the arrays have
    grown to the transaction's footprint (DESIGN §12). *)

type t

val create : unit -> t

(** Empty both logs; keeps the arrays. *)
val reset : t -> unit

(** {1 Read set} *)

val record_read : t -> Mt_core.Ctx.addr -> int -> unit

(** [consistent t ctx] is NOrec's value-based validation: re-reads every
    logged address through [ctx], newest first, and is [false] at the
    first whose value changed (later entries are then not read). *)
val consistent : t -> Mt_core.Ctx.t -> bool

(** {1 Write buffer} *)

(** [find t addr] is the buffer position of [addr], or -1 if the
    transaction has not written it. *)
val find : t -> Mt_core.Ctx.addr -> int

(** Buffered value at a position returned by {!find}. *)
val value : t -> int -> int

(** [write t addr v] buffers [v] for [addr]: a first write appends, a
    rewrite replaces the value in place (keeping the first-write
    position). *)
val write : t -> Mt_core.Ctx.addr -> int -> unit

val writes : t -> int

(** [write_back t ctx] stores every buffered value through [ctx], in
    first-write order. *)
val write_back : t -> Mt_core.Ctx.t -> unit

(** {1 Per-core reuse} *)

(** One reusable log per core of a machine. *)
type pool

val pool : cores:int -> pool

(** [acquire pool core] is [core]'s log, emptied and marked in use. If it
    is already in use (another fiber on the same core is mid-transaction,
    or transactions nest), or [core] is outside the pool, a fresh log is
    returned instead. *)
val acquire : pool -> int -> t

(** Return a log taken with {!acquire}. *)
val release : t -> unit
