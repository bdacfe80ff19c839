open Mt_core

(* A store shard backend: a tagged set structure plus a plain-read range
   collect. The store never relies on a backend op's own tag set surviving
   the call — every structure clears the tag set internally — which is why
   scan atomicity comes from the store's per-shard version words and the
   backend only has to provide an unvalidated walk ([scan_plain]) that the
   version protocol proves quiescent. *)
module type S = sig
  include Mt_list.Set_intf.SET

  (** Plain (untagged, unvalidated) walk collecting the keys in
      [\[lo, hi\]], visiting at most [budget] nodes. Only atomic under an
      external quiescence proof (the store's version protocol). *)
  val scan_plain : Ctx.t -> t -> lo:int -> hi:int -> budget:int -> int list
end

module Hoh_list : S = struct
  include Mt_list.Hoh_list
end

module Hoh_abtree : S = struct
  include Mt_abtree.Abtree_hoh.Make (struct
    let a = 4
    let b = 8
  end)

  let name = "hoh-abtree"
end

(* Each shard owns a private tagged-NOrec instance (its own sequence
   lock), so transactions on distinct shards never conflict at the STM
   layer — cross-shard atomicity is the store's job, not NOrec's. *)
module Norec_map : S = Mt_stamp.Tx_map.Set (Mt_stm.Norec_tagged)

let all : (string * (module S)) list =
  [
    ("hoh-list", (module Hoh_list));
    ("hoh-abtree", (module Hoh_abtree));
    ("norec-tagged", (module Norec_map));
  ]

let by_name n = List.assoc_opt n all
let name (module B : S) = B.name
