type sharing = Uncached | Shared of int list | Excl of int

(* Flat bitmask representation (DESIGN §12). Lines are dense small ints
   (memory is bump-allocated), so the directory is three parallel int
   arrays indexed by line:

     lo.(line)  sharer bits for cores 0..31
     hi.(line)  sharer bits for cores 32..63
     ex.(line)  owner id + 1 when the line is held E/M, else 0

   Invariant: [ex.(line) > 0] implies lo/hi hold exactly the owner's bit.
   [Config.default] caps num_cores at 64, so two 32-bit planes always
   suffice within OCaml's 63-bit ints. Reads past the current capacity
   mean Uncached; only writes grow the arrays. *)
type t = {
  mutable lo : int array;
  mutable hi : int array;
  mutable ex : int array;
}

let initial_lines = 4096

let create () =
  {
    lo = Array.make initial_lines 0;
    hi = Array.make initial_lines 0;
    ex = Array.make initial_lines 0;
  }

let grow t line =
  let cap = Array.length t.lo in
  let n = max (line + 1) (2 * cap) in
  let widen a =
    let a' = Array.make n 0 in
    Array.blit a 0 a' 0 cap;
    a'
  in
  t.lo <- widen t.lo;
  t.hi <- widen t.hi;
  t.ex <- widen t.ex

let[@inline] ensure t line = if line >= Array.length t.lo then grow t line

(* Index of the (single) set bit of [b], a power of two < 2^32. *)
let[@inline] bit_index b =
  let i = ref 0 and b = ref b in
  if !b land 0xFFFF = 0 then begin i := 16; b := !b lsr 16 end;
  if !b land 0xFF = 0 then begin i := !i + 8; b := !b lsr 8 end;
  if !b land 0xF = 0 then begin i := !i + 4; b := !b lsr 4 end;
  if !b land 0x3 = 0 then begin i := !i + 2; b := !b lsr 2 end;
  if !b land 0x1 = 0 then incr i;
  !i

let[@inline] popcount32 x =
  let x = x - ((x lsr 1) land 0x55555555) in
  let x = (x land 0x33333333) + ((x lsr 2) land 0x33333333) in
  let x = (x + (x lsr 4)) land 0x0F0F0F0F in
  (* OCaml ints are 63-bit: the product's bytes above bit 31 survive the
     shift (no uint32 truncation), so extract the one byte that holds the
     total. *)
  (x * 0x01010101) lsr 24 land 0xFF

(* Hot accessors -------------------------------------------------------- *)

let[@inline] is_uncached t line =
  line >= Array.length t.lo
  || (t.ex.(line) = 0 && t.lo.(line) = 0 && t.hi.(line) = 0)

(* Owner core id if the line is held E/M, else -1. *)
let[@inline] excl_owner t line =
  if line >= Array.length t.lo then -1 else t.ex.(line) - 1

let set_uncached t line =
  if line < Array.length t.lo then begin
    t.lo.(line) <- 0;
    t.hi.(line) <- 0;
    t.ex.(line) <- 0
  end

let set_excl t line core =
  ensure t line;
  if core < 32 then begin
    t.lo.(line) <- 1 lsl core;
    t.hi.(line) <- 0
  end
  else begin
    t.lo.(line) <- 0;
    t.hi.(line) <- 1 lsl (core - 32)
  end;
  t.ex.(line) <- core + 1

let[@inline] set_bit t line core =
  if core < 32 then t.lo.(line) <- t.lo.(line) lor (1 lsl core)
  else t.hi.(line) <- t.hi.(line) lor (1 lsl (core - 32))

let set_shared_pair t line a b =
  ensure t line;
  t.lo.(line) <- 0;
  t.hi.(line) <- 0;
  t.ex.(line) <- 0;
  set_bit t line a;
  set_bit t line b

let add_sharer t line core =
  ensure t line;
  let e = t.ex.(line) in
  if e = 0 then set_bit t line core
  else if e - 1 <> core then
    invalid_arg "Directory.add_sharer: line is exclusively owned"

let drop t line core =
  if line < Array.length t.lo then begin
    let e = t.ex.(line) in
    if e = 0 then begin
      if core < 32 then t.lo.(line) <- t.lo.(line) land lnot (1 lsl core)
      else t.hi.(line) <- t.hi.(line) land lnot (1 lsl (core - 32))
    end
    else if e - 1 = core then begin
      t.lo.(line) <- 0;
      t.hi.(line) <- 0;
      t.ex.(line) <- 0
    end
  end

let[@inline] holds t line core =
  if core < 32 then t.lo.(line) land (1 lsl core) <> 0
  else t.hi.(line) land (1 lsl (core - 32)) <> 0

let others_count t line core =
  if line >= Array.length t.lo then 0
  else begin
    let n = popcount32 t.lo.(line) + popcount32 t.hi.(line) in
    if holds t line core then n - 1 else n
  end

(* [base] + index of the lowest set bit of [m], or -1 if [m = 0]. *)
let[@inline] lowest base m = if m = 0 then -1 else base + bit_index (m land -m)

(* Lowest holder id [>= from] ([from <= 64]). *)
let next_holder t line from =
  if line >= Array.length t.lo then -1
  else if from < 32 then begin
    let o = lowest 0 (t.lo.(line) land (-1 lsl from)) in
    if o >= 0 then o else lowest 32 t.hi.(line)
  end
  else lowest 32 (t.hi.(line) land (-1 lsl (from - 32)))

let next_other t line core from =
  let o = next_holder t line from in
  if o = core then next_holder t line (o + 1) else o

(* Variant-based compatibility API (tests, diagnostics) ----------------- *)

let sharing t line =
  if line >= Array.length t.lo then Uncached
  else begin
    let e = t.ex.(line) in
    if e > 0 then Excl (e - 1)
    else if t.lo.(line) = 0 && t.hi.(line) = 0 then Uncached
    else begin
      let rec from o =
        if o < 0 then [] else o :: from (next_holder t line (o + 1))
      in
      Shared (from (next_holder t line 0))
    end
  end

let set t line s =
  match s with
  | Uncached | Shared [] -> set_uncached t line
  | Shared cores ->
      ensure t line;
      t.lo.(line) <- 0;
      t.hi.(line) <- 0;
      t.ex.(line) <- 0;
      List.iter (fun c -> set_bit t line c) cores
  | Excl owner -> set_excl t line owner

let others t line core =
  let rec from o =
    if o < 0 then [] else o :: from (next_other t line core (o + 1))
  in
  from (next_other t line core 0)

let iter_lines t f =
  for line = 0 to Array.length t.lo - 1 do
    if not (t.ex.(line) = 0 && t.lo.(line) = 0 && t.hi.(line) = 0) then f line
  done
