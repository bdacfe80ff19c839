(* Allocation-budget gate: the simulator hot path is allocation-free per
   simulated memory access, so a simulated operation — dozens to
   thousands of simulated accesses, tag ops and fiber suspensions — must
   fit a small fixed allocation budget. The workloads are deterministic
   and the GC's allocation counters are exact, so the gate is
   wall-clock-free and stable on shared CI runners.

   Budget 1, a contended hoh-list set operation: about 60 B/op, which
   pays for the op itself (locate's result tuple, simulated node
   allocations) and the effect continuation of each suspending stall
   (2 words each). A closure or tuple per simulated access — the
   regression this gate exists for — trips the 256 B/op budget several
   times over: [Cache.probe]'s local recursive scan (a 6-word closure per
   probe, dozens of probes per op) alone cost ~2.1 kB/op before the
   machine path was made closure-free.

   Budget 2, a committed norec-tagged STAMP vacation transaction: about
   1.25k minor words, almost all of them suspension continuations (over
   a thousand simulated accesses per transaction). Generic containers in
   the transaction logs — a fresh write-set hash table per attempt, a
   boxed cons cell and pair per logged read — raise that to about 2.9k
   words and trip the 2000-word budget.

   Machine construction and table population happen once, outside the
   measured windows, and a warmup run pays one-time growth first. *)

open Mt_sim
open Mt_core
module L = Mt_list.Hoh_list

let failed = ref false

let gate ~what ~unit_ ~budget value =
  Printf.printf "%s: %.1f %s (budget %.0f)\n" what value unit_ budget;
  if value > budget then begin
    Printf.eprintf "FAIL: %s: %.1f %s exceeds the %.0f budget\n" what value unit_
      budget;
    failed := true
  end

(* Budget 1: bytes per contended hoh-list operation. *)
let threads = 4
let ops_per_thread = 500
let budget_bytes_per_op = 256.0

let list_workload s ctx =
  let g = Ctx.prng ctx in
  for _ = 1 to ops_per_thread do
    let k = Prng.int g 64 in
    match Prng.int g 3 with
    | 0 -> ignore (L.insert ctx s k)
    | 1 -> ignore (L.delete ctx s k)
    | _ -> ignore (L.contains ctx s k)
  done

let hoh_list () =
  let m = Machine.create (Config.default ~num_cores:threads ()) in
  let s = Harness.exec1 m (fun ctx -> L.create ctx) in
  Harness.exec1 m (fun ctx ->
      for k = 0 to 31 do
        ignore (L.insert ctx s (2 * k))
      done);
  ignore (Harness.exec m ~threads (list_workload s));
  let before = Gc.allocated_bytes () in
  ignore (Harness.exec m ~threads (list_workload s));
  let per_op =
    (Gc.allocated_bytes () -. before) /. float_of_int (threads * ops_per_thread)
  in
  gate ~what:"hoh-list allocation" ~unit_:"bytes/op" ~budget:budget_bytes_per_op
    per_op

(* Budget 2: minor words per committed norec-tagged vacation transaction. *)
module S = Mt_stm.Norec_tagged
module V = Mt_stamp.Vacation.Make (S)

let stm_threads = 4
let stm_ops_per_thread = 25
let budget_words_per_commit = 2000.0

let vacation () =
  let m = Machine.create (Config.default ~num_cores:stm_threads ()) in
  let params = { V.relations = 1024; queries = 4; query_pct = 60; user_pct = 90 } in
  let stm, mgr =
    Harness.exec1 m (fun ctx ->
        let stm = S.create ctx in
        (stm, V.setup ctx stm params))
  in
  let run () =
    ignore
      (Harness.exec m ~threads:stm_threads (fun ctx ->
           for _ = 1 to stm_ops_per_thread do
             V.client_op ctx stm mgr params
           done))
  in
  run ();
  S.reset_stats stm;
  let before = Gc.minor_words () in
  run ();
  let per_commit =
    (Gc.minor_words () -. before) /. float_of_int (max 1 (S.commits stm))
  in
  gate ~what:"norec-tagged vacation allocation" ~unit_:"minor words/commit"
    ~budget:budget_words_per_commit per_commit

let () =
  hoh_list ();
  vacation ();
  if !failed then exit 1
