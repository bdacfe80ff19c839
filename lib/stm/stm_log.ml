open Mt_core

(* Read set: [raddr]/[rval] in read order, [nreads] entries. Write buffer:
   [waddr]/[wval] in first-write order, [nwrites] entries, indexed by
   [index], an open-addressed (linear probing) table whose slots hold
   [position + 1] (0 = empty); [wslot] remembers each entry's slot so
   [reset] clears the index in O(writes), not O(capacity). The index is
   kept at most half full, so probes stay short and always terminate. *)
type t = {
  mutable raddr : int array;
  mutable rval : int array;
  mutable nreads : int;
  mutable waddr : int array;
  mutable wval : int array;
  mutable wslot : int array;
  mutable nwrites : int;
  mutable index : int array;  (* power-of-two length *)
  mutable busy : bool;  (* taken from its pool by a live transaction *)
}

let create () =
  {
    raddr = Array.make 16 0;
    rval = Array.make 16 0;
    nreads = 0;
    waddr = Array.make 8 0;
    wval = Array.make 8 0;
    wslot = Array.make 8 0;
    nwrites = 0;
    index = Array.make 16 0;
    busy = false;
  }

let reset t =
  t.nreads <- 0;
  for i = 0 to t.nwrites - 1 do
    t.index.(t.wslot.(i)) <- 0
  done;
  t.nwrites <- 0

let widen a n =
  let a' = Array.make n 0 in
  Array.blit a 0 a' 0 (Array.length a);
  a'

(* Read set ------------------------------------------------------------- *)

let record_read t addr v =
  let n = t.nreads in
  if n = Array.length t.raddr then begin
    t.raddr <- widen t.raddr (2 * n);
    t.rval <- widen t.rval (2 * n)
  end;
  t.raddr.(n) <- addr;
  t.rval.(n) <- v;
  t.nreads <- n + 1

(* Newest first, stopping at the first changed value. The walk issues
   simulated reads, so this order is part of the simulated schedule. *)
let rec consistent_from t ctx i =
  i < 0
  || (Ctx.read ctx t.raddr.(i) = t.rval.(i) && consistent_from t ctx (i - 1))

let consistent t ctx = consistent_from t ctx (t.nreads - 1)

(* Write buffer --------------------------------------------------------- *)

let[@inline] hash addr mask =
  let h = addr * 0x9E3779B1 in
  (h lxor (h lsr 17)) land mask

(* Slot holding [addr], or the empty slot where it would go. *)
let slot t addr =
  let mask = Array.length t.index - 1 in
  let i = ref (hash addr mask) in
  while
    let p = t.index.(!i) in
    p <> 0 && t.waddr.(p - 1) <> addr
  do
    i := (!i + 1) land mask
  done;
  !i

let find t addr = t.index.(slot t addr) - 1
let value t i = t.wval.(i)

(* Double the index and re-place every entry. *)
let grow_index t =
  t.index <- Array.make (2 * Array.length t.index) 0;
  for p = 0 to t.nwrites - 1 do
    let s = slot t t.waddr.(p) in
    t.index.(s) <- p + 1;
    t.wslot.(p) <- s
  done

let write t addr v =
  let s = slot t addr in
  let p = t.index.(s) in
  if p > 0 then t.wval.(p - 1) <- v
  else begin
    let n = t.nwrites in
    if n = Array.length t.waddr then begin
      t.waddr <- widen t.waddr (2 * n);
      t.wval <- widen t.wval (2 * n);
      t.wslot <- widen t.wslot (2 * n)
    end;
    t.waddr.(n) <- addr;
    t.wval.(n) <- v;
    t.nwrites <- n + 1;
    if 2 * (n + 1) > Array.length t.index then grow_index t
    else begin
      t.index.(s) <- n + 1;
      t.wslot.(n) <- s
    end
  end

let writes t = t.nwrites

let write_back t ctx =
  for i = 0 to t.nwrites - 1 do
    Ctx.write ctx t.waddr.(i) t.wval.(i)
  done

(* Per-core reuse ------------------------------------------------------- *)

type pool = t array

let pool ~cores = Array.init cores (fun _ -> create ())

let acquire pool core =
  if core < Array.length pool && not pool.(core).busy then begin
    let t = pool.(core) in
    reset t;
    t.busy <- true;
    t
  end
  else create ()

let release t = t.busy <- false
