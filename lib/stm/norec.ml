open Mt_core

type t = {
  seqlock : Ctx.addr;
  name : string;  (* labels the seqlock and the abort events *)
  tagged : bool;  (* tagged NOrec: every attempt starts on the MemTags path *)
  logs : Stm_log.pool;  (* one reusable read set + write buffer per core *)
  mutable commits : int;
  mutable aborts : int;
  mutable vbv_passes : int;
}

type tx = {
  ctx : Ctx.t;
  stm : t;
  mutable snapshot : int;  (* V: last known-consistent even time *)
  mutable tagged : bool;  (* fast path: read set tracked by tags *)
  log : Stm_log.t;  (* the value read set, kept for the VBV fallback *)
}

let obs_event ctx kind =
  let o = Ctx.obs ctx in
  if Mt_obs.Obs.enabled o then
    Mt_obs.Obs.emit o ~core:(Ctx.core ctx) ~time:(Ctx.now ctx) kind

let make ~name ~tagged ctx =
  let seqlock = Ctx.alloc ~label:(name ^ "-seqlock") ctx ~words:1 in
  {
    seqlock;
    name;
    tagged;
    logs = Stm_log.pool ~cores:(Mt_sim.Machine.num_cores (Ctx.machine ctx));
    commits = 0;
    aborts = 0;
    vbv_passes = 0;
  }

let name = "norec"
let create = make ~name ~tagged:false

let commits t = t.commits
let aborts t = t.aborts
let vbv_passes t = t.vbv_passes

let reset_stats t =
  t.commits <- 0;
  t.aborts <- 0;
  t.vbv_passes <- 0

(* Spin until the lock is free (even) and return the sequence number. *)
let rec read_sequence tx =
  let v = Ctx.read tx.ctx tx.stm.seqlock in
  if v land 1 = 1 then begin
    Ctx.work tx.ctx 2;
    read_sequence tx
  end
  else v

(* Value-based validation: raises Abort if the read set is inconsistent;
   otherwise updates the snapshot and returns it. *)
let rec validate tx =
  let time = read_sequence tx in
  tx.stm.vbv_passes <- tx.stm.vbv_passes + 1;
  if not (Stm_log.consistent tx.log tx.ctx) then begin
    obs_event tx.ctx
      (Mt_obs.Obs.Stm_abort
         { impl = tx.stm.name; reason = "vbv-inconsistent" });
    raise Stm_intf.Abort
  end
  else if Ctx.read tx.ctx tx.stm.seqlock = time then begin
    tx.snapshot <- time;
    time
  end
  else validate tx

(* Drop to the untagged path for the rest of this attempt. *)
let demote tx =
  tx.tagged <- false;
  obs_event tx.ctx Mt_obs.Obs.Stm_demote;
  Ctx.clear_tag_set tx.ctx

(* Fast revalidation after the tag set broke locally: re-tag the sequence
   lock at its current (even) value and check whether the data tags are
   still intact. If so the whole read set is known consistent *by tags*,
   with no value re-reads — the paper's replacement for VBV. Returns false
   after demoting (caller must go through validate / the untagged path). *)
let rec fast_revalidate tx =
  Ctx.remove_tag tx.ctx tx.stm.seqlock ~words:1;
  let v = Ctx.add_tag_read tx.ctx tx.stm.seqlock ~words:1 in
  if v land 1 = 1 then begin
    Ctx.work tx.ctx 2;
    fast_revalidate tx
  end
  else if Ctx.validate tx.ctx then begin
    tx.snapshot <- v;
    true
  end
  else begin
    demote tx;
    false
  end

(* NOrec's read: re-check the sequence lock after the load and re-validate
   by value whenever it moved. *)
let slow_read tx a =
  let v = ref (Ctx.read tx.ctx a) in
  while Ctx.read tx.ctx tx.stm.seqlock <> tx.snapshot do
    let (_ : int) = validate tx in
    v := Ctx.read tx.ctx a
  done;
  Stm_log.record_read tx.log a !v;
  !v

let read tx a =
  let w = Stm_log.find tx.log a in
  if w >= 0 then Stm_log.value tx.log w
  else if tx.tagged then begin
    (* Tagged load; post-read validation is a free local check. *)
    let v = Ctx.add_tag_read tx.ctx a ~words:1 in
    if Ctx.validate tx.ctx || fast_revalidate tx then begin
      Stm_log.record_read tx.log a v;
      v
    end
    else begin
      (* Demoted: establish consistency by value, then re-read. *)
      let (_ : int) = validate tx in
      slow_read tx a
    end
  end
  else slow_read tx a

let ctx tx = tx.ctx

let write tx a v = Stm_log.write tx.log a v

(* Acquire the sequence lock at our snapshot, validating on conflict. *)
let rec acquire_slow tx =
  if
    not
      (Ctx.cas tx.ctx tx.stm.seqlock ~expected:tx.snapshot
         ~desired:(tx.snapshot + 1))
  then begin
    let (_ : int) = validate tx in
    acquire_slow tx
  end

(* Acquire the lock on the tagged path: a VAS whose tag set covers the
   lock and the whole read set — one atomic step that both validates the
   reads and takes the lock, failing locally on conflict. *)
let rec acquire_fast tx =
  if Ctx.vas tx.ctx tx.stm.seqlock (tx.snapshot + 1) then ()
  else if fast_revalidate tx then acquire_fast tx
  else begin
    let (_ : int) = validate tx in
    acquire_slow tx
  end

let commit tx =
  if Stm_log.writes tx.log = 0 then
    (* Read-only: the last successful validation (tag-based or VBV)
       already witnessed a consistent snapshot. *)
    ()
  else begin
    if tx.tagged then acquire_fast tx else acquire_slow tx;
    Stm_log.write_back tx.log tx.ctx;
    Ctx.write tx.ctx tx.stm.seqlock (tx.snapshot + 2)
  end

(* TXBegin on the tagged path: tag the sequence lock; a writer commit
   anywhere makes the next Validate fail locally, with no lock re-read in
   the meantime. *)
let rec tagged_begin ctx stm =
  let v = Ctx.add_tag_read ctx stm.seqlock ~words:1 in
  if v land 1 = 1 then begin
    Ctx.work ctx 2;
    Ctx.clear_tag_set ctx;
    tagged_begin ctx stm
  end
  else v

let atomically ctx stm body =
  let log = Stm_log.acquire stm.logs (Ctx.core ctx) in
  let rec attempt n =
    if stm.tagged then Ctx.clear_tag_set ctx;
    let tx = { ctx; stm; snapshot = 0; tagged = stm.tagged; log } in
    tx.snapshot <-
      (if stm.tagged then tagged_begin ctx stm else read_sequence tx);
    match
      let result = body tx in
      commit tx;
      result
    with
    | result ->
        if stm.tagged then Ctx.clear_tag_set ctx;
        Stm_log.release log;
        stm.commits <- stm.commits + 1;
        result
    | exception Stm_intf.Abort ->
        if stm.tagged then Ctx.clear_tag_set ctx;
        stm.aborts <- stm.aborts + 1;
        (* NOrec's own randomized doubling backoff (prevents lock-step
           retry livelock), 16 * 2^n capped at 2048; a contention
           policy's wait comes on top. *)
        Ctx.work ctx
          (Mt_sim.Prng.int (Ctx.prng ctx)
             (Mt_cm.Cm.capped_backoff ~base:16 ~cap:2048 ~attempt:n));
        Ctx.cm_wait ~site:stm.seqlock ctx ~attempt:n;
        Stm_log.reset log;
        attempt (n + 1)
    | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        Stm_log.release log;
        Printexc.raise_with_backtrace e bt
  in
  attempt 0
