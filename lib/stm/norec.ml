open Mt_core

type addr = Ctx.addr

exception Abort = Stm_intf.Abort

type t = {
  seqlock : addr;
  logs : Stm_log.pool;  (* one reusable read set + write buffer per core *)
  mutable commits : int;
  mutable aborts : int;
  mutable vbv_passes : int;
}

type tx = {
  ctx : Ctx.t;
  stm : t;
  mutable snapshot : int;  (* V: last known-consistent even time *)
  log : Stm_log.t;
}

let name = "norec"

(* Hook: record the abort (with its cause) on the aborting core's trace
   track; free when tracing is off. *)
let abort_event ctx reason =
  let o = Ctx.obs ctx in
  if Mt_obs.Obs.enabled o then
    Mt_obs.Obs.emit o ~core:(Ctx.core ctx) ~time:(Ctx.now ctx)
      (Mt_obs.Obs.Stm_abort { impl = name; reason })

let create ctx =
  let seqlock = Ctx.alloc ~label:"norec-seqlock" ctx ~words:1 in
  {
    seqlock;
    logs = Stm_log.pool ~cores:(Mt_sim.Machine.num_cores (Ctx.machine ctx));
    commits = 0;
    aborts = 0;
    vbv_passes = 0;
  }

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
    abort_event tx.ctx "vbv-inconsistent";
    raise Abort
  end
  else if Ctx.read tx.ctx tx.stm.seqlock = time then begin
    tx.snapshot <- time;
    time
  end
  else validate tx

let read tx a =
  let w = Stm_log.find tx.log a in
  if w >= 0 then Stm_log.value tx.log w
  else begin
    let v = ref (Ctx.read tx.ctx a) in
    while Ctx.read tx.ctx tx.stm.seqlock <> tx.snapshot do
      let (_ : int) = validate tx in
      v := Ctx.read tx.ctx a
    done;
    Stm_log.record_read tx.log a !v;
    !v
  end

let ctx tx = tx.ctx

let write tx a v = Stm_log.write tx.log a v

let commit tx =
  if Stm_log.writes tx.log = 0 then ()  (* read-only: nothing to do *)
  else begin
    (* Acquire the sequence lock at our snapshot, validating on conflict. *)
    let rec acquire () =
      if
        not
          (Ctx.cas tx.ctx tx.stm.seqlock ~expected:tx.snapshot
             ~desired:(tx.snapshot + 1))
      then begin
        let (_ : int) = validate tx in
        acquire ()
      end
    in
    acquire ();
    Stm_log.write_back tx.log tx.ctx;
    Ctx.write tx.ctx tx.stm.seqlock (tx.snapshot + 2)
  end

let atomically ctx stm body =
  let log = Stm_log.acquire stm.logs (Ctx.core ctx) in
  let rec attempt n =
    let tx = { ctx; stm; snapshot = 0; log } in
    tx.snapshot <- read_sequence tx;
    match
      let result = body tx in
      commit tx;
      result
    with
    | result ->
        Stm_log.release log;
        stm.commits <- stm.commits + 1;
        result
    | exception Abort ->
        stm.aborts <- stm.aborts + 1;
        (* NOrec's own randomized doubling backoff (prevents lock-step
           retry livelock), 16 * 2^n capped at 2048; a contention policy's
           wait comes on top. *)
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
