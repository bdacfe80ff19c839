(** Pure (a,b)-tree node descriptions and rebalancing arithmetic.

    Both tree variants (LLX/SCX and HoH-tagged) share this module: they
    read nodes out of simulated memory into descriptions, transform them
    with these pure functions, and materialise the results as fresh nodes.
    Keeping the arithmetic pure makes it testable in isolation (see the
    qcheck properties in [test/test_abtree.ml]).

    Conventions: an internal node with [n] children has [n-1] separator
    keys; child [i] covers keys [k] with [keys.(i-1) <= k < keys.(i)]
    (with virtual sentinels at the ends). A leaf stores its keys sorted
    ascending and has [ptrs = [||]]. [weight] is 1 for a normal node and 0
    for a flagged node (a {e flag violation} in the paper's terminology). *)

type t = {
  weight : int;        (* 1 = normal, 0 = flagged *)
  leaf : bool;
  keys : int array;
  ptrs : int array;    (* child addresses; [||] for leaves *)
}

(** Number of children (internal) or keys (leaf). *)
val size : t -> int

(** [child_index d k] — which child of internal node [d] covers key [k]. *)
val child_index : t -> int -> int

val leaf_contains : t -> int -> bool

(** [leaf_insert d k] — [d] with [k] added (sorted). [k] must be absent. *)
val leaf_insert : t -> int -> t

(** [leaf_remove d k] — [d] without [k]. [k] must be present. *)
val leaf_remove : t -> int -> t

(** [set_weight d w] *)
val set_weight : t -> int -> t

(** [absorb ~parent ~ix ~child] — the combined node obtained by splicing
    internal [child] (at parent index [ix]) into [parent]; carries
    [parent]'s weight. Sizes may exceed [b]; split afterwards if needed. *)
val absorb : parent:t -> ix:int -> child:t -> t

(** [split d] — halve an oversized node into [(left, right, separator)];
    both halves have weight 1. For leaves the separator is the first key
    of [right] (and also remains in [right]); for internal nodes it is
    removed from the key list. *)
val split : t -> t * t * int

(** [merge_pair ~sep l r] — coalesce two same-kind siblings ([sep] is the
    separator between them in the parent; used for internal merges,
    ignored for leaves). Result has weight 1. *)
val merge_pair : sep:int -> t -> t -> t

(** [distribute_pair ~sep l r] — rebalance two siblings evenly; returns
    [(l', r', sep')]. *)
val distribute_pair : sep:int -> t -> t -> t * t * int

(** [replace_pair_with_one d ix ~addr] — children [ix] and [ix+1] (and the
    separator between them) replaced by the single child [addr]. *)
val replace_pair_with_one : t -> int -> addr:int -> t

(** [update_pair d ix ~left ~right ~sep] — children [ix], [ix+1] repointed
    to [left]/[right] with a new separator. *)
val update_pair : t -> int -> left:int -> right:int -> sep:int -> t

val pp : Format.formatter -> t -> unit

(** {1 Meta-word packing} — shared by both memory layouts. *)

val pack_meta : leaf:bool -> weight:int -> count:int -> int
val meta_leaf : int -> bool
val meta_weight : int -> int
val meta_count : int -> int
