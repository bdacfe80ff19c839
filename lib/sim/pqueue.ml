(* Int-key binary min-heap (DESIGN §12). Entry [i] holds [time; tie; aux]
   at stride [4 * i] of one unboxed int plane (the stride is a power of two
   so slot addressing is a shift), keeping a near-full scheduler heap
   inside a couple of cache lines. There is no value plane: the scheduler
   parks each fiber's task in a per-fiber slot and finds it through
   [aux], so sifting moves ints only — no [caml_modify] write barrier per
   level, nothing reachable to release on [pop].

   Sifts move a hole instead of swapping: the entry being placed is held
   in registers and compared against the same keys, at the same levels, as
   the classic swap-based sift, so the resulting arrangement is identical.
   Keys are strict total orders at every call site (ties embed the fiber
   id), so pop order — and hence the whole simulation schedule — is a
   pure function of the key multiset. Unchecked array accesses are all at
   slots below [size], which [grow] guarantees are allocated. The helpers
   annotate [int array]: left polymorphic they compile to generic array
   accesses (a float-array check and [caml_modify] on every store). *)

type t = {
  mutable keys : int array;  (* stride 4: time, tie, aux, unused *)
  mutable size : int;
  mutable x_time : int;  (* time/aux of the last [exchange]d-out entry *)
  mutable x_aux : int;
}

let create () = { keys = [||]; size = 0; x_time = 0; x_aux = 0 }

let is_empty t = t.size = 0
let length t = t.size

let[@inline] set (k : int array) i ~time ~tie ~aux =
  let b = i lsl 2 in
  Array.unsafe_set k b time;
  Array.unsafe_set k (b + 1) tie;
  Array.unsafe_set k (b + 2) aux

(* Copy entry [src] into slot [dst]. *)
let[@inline] move (k : int array) ~dst ~src =
  let d = dst lsl 2 and s = src lsl 2 in
  Array.unsafe_set k d (Array.unsafe_get k s);
  Array.unsafe_set k (d + 1) (Array.unsafe_get k (s + 1));
  Array.unsafe_set k (d + 2) (Array.unsafe_get k (s + 2))

(* Entry [i] orders before the key [(time, tie)]. *)
let[@inline] before (k : int array) i ~time ~tie =
  let ti = Array.unsafe_get k (i lsl 2) in
  ti < time || (ti = time && Array.unsafe_get k ((i lsl 2) + 1) < tie)

(* The key [(time, tie)] orders before entry [i]. *)
let[@inline] after (k : int array) i ~time ~tie =
  let ti = Array.unsafe_get k (i lsl 2) in
  time < ti || (time = ti && tie < Array.unsafe_get k ((i lsl 2) + 1))

(* Entry [i] orders before entry [j]. *)
let[@inline] less k i j =
  before k i ~time:(Array.unsafe_get k (j lsl 2))
    ~tie:(Array.unsafe_get k ((j lsl 2) + 1))

let grow t =
  let cap = Array.length t.keys lsr 2 in
  if t.size = cap then begin
    let keys = Array.make (max 16 (2 * cap) lsl 2) 0 in
    Array.blit t.keys 0 keys 0 (cap lsl 2);
    t.keys <- keys
  end

(* Place [(time, tie, aux)] at hole [i], moving larger ancestors down. *)
let rec sift_up k i ~time ~tie ~aux =
  let parent = (i - 1) / 2 in
  if i > 0 && after k parent ~time ~tie then begin
    move k ~dst:i ~src:parent;
    sift_up k parent ~time ~tie ~aux
  end
  else set k i ~time ~tie ~aux

(* Place [(time, tie, aux)] at hole [i], moving smaller children up. *)
let rec sift_down k size i ~time ~tie ~aux =
  let l = (2 * i) + 1 in
  if l >= size then set k i ~time ~tie ~aux
  else begin
    let r = l + 1 in
    let c = if r < size && less k r l then r else l in
    if before k c ~time ~tie then begin
      move k ~dst:i ~src:c;
      sift_down k size c ~time ~tie ~aux
    end
    else set k i ~time ~tie ~aux
  end

let add t ~time ~tie ~aux =
  grow t;
  let i = t.size in
  t.size <- i + 1;
  sift_up t.keys i ~time ~tie ~aux

let top_time t = t.keys.(0)
let top_tie t = t.keys.(1)
let top_aux t = t.keys.(2)

let pop t =
  if t.size = 0 then invalid_arg "Pqueue.pop: empty";
  let last = t.size - 1 in
  t.size <- last;
  let k = t.keys in
  let b = last lsl 2 in
  sift_down k last 0 ~time:k.(b) ~tie:k.(b + 1) ~aux:k.(b + 2)

(* Fused pop-then-add for the scheduler's suspension path: the incoming
   key is ≥ the minimum's (that is exactly the slow-path condition), so
   popping the root and sifting the new entry down from the root slot is
   equivalent to [add] followed by [pop] — one sift instead of two. Keys
   form a strict total order, so the (possibly different) internal
   arrangement is unobservable through pop order. *)
let exchange t ~time ~tie ~aux =
  if t.size = 0 then invalid_arg "Pqueue.exchange: empty";
  let k = t.keys in
  t.x_time <- k.(0);
  t.x_aux <- k.(2);
  sift_down k t.size 0 ~time ~tie ~aux

let xchg_time t = t.x_time
let xchg_aux t = t.x_aux
