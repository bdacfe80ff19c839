(* Tests for the NOrec STMs (baseline and tagged): atomicity, isolation,
   opacity-style invariants, abort accounting, and the tagged variant's
   fallback under tag-set overflow. *)

open Mt_sim
open Mt_core

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let machine ?(cores = 8) ?cfg () =
  match cfg with Some c -> Machine.create c | None -> Machine.create (Config.default ~num_cores:cores ())

module Battery (S : sig
  include Mt_stm.Stm_intf.S

  (* Whether commit-time aborts are expected under the counter workload.
     The tagged variant detects conflicts at read time and repairs the
     read in place, so it can legitimately finish with zero aborts. *)
  val expect_aborts : bool
end) =
struct
  let test_read_write_roundtrip () =
    let m = machine () in
    Harness.exec1 m (fun ctx ->
        let stm = S.create ctx in
        let a = Ctx.alloc ctx ~words:4 in
        S.atomically ctx stm (fun tx ->
            S.write tx a 7;
            S.write tx (a + 1) 8);
        let x, y = S.atomically ctx stm (fun tx -> (S.read tx a, S.read tx (a + 1))) in
        check_int "x" 7 x;
        check_int "y" 8 y;
        check_int "committed twice" 2 (S.commits stm))

  let test_read_own_writes () =
    let m = machine () in
    Harness.exec1 m (fun ctx ->
        let stm = S.create ctx in
        let a = Ctx.alloc ctx ~words:1 in
        let v =
          S.atomically ctx stm (fun tx ->
              S.write tx a 41;
              S.read tx a + 1)
        in
        check_int "reads own write" 42 v)

  (* Classic bank test: concurrent transfers conserve the total. *)
  let test_bank_transfers () =
    let threads = 6 in
    let accounts = 10 in
    let m = machine ~cores:threads () in
    let stm, base =
      Harness.exec1 m (fun ctx ->
          let stm = S.create ctx in
          let base = Ctx.alloc ctx ~words:accounts in
          S.atomically ctx stm (fun tx ->
              for i = 0 to accounts - 1 do
                S.write tx (base + i) 100
              done);
          (stm, base))
    in
    let (_ : int) =
      Harness.exec m ~seed:3 ~threads (fun ctx ->
          let g = Ctx.prng ctx in
          for _ = 1 to 120 do
            let src = Prng.int g accounts in
            let dst = Prng.int g accounts in
            let amount = Prng.int g 20 in
            S.atomically ctx stm (fun tx ->
                let s = S.read tx (base + src) in
                let d = S.read tx (base + dst) in
                if s >= amount && src <> dst then begin
                  S.write tx (base + src) (s - amount);
                  S.write tx (base + dst) (d + amount)
                end)
          done)
    in
    let total = ref 0 in
    for i = 0 to accounts - 1 do
      total := !total + Machine.peek m (base + i)
    done;
    check_int "total conserved" (100 * accounts) !total

  (* Opacity-flavoured test: writers keep x = y; readers must never observe
     x <> y inside a transaction. *)
  let test_consistent_snapshots () =
    let threads = 6 in
    let m = machine ~cores:threads () in
    let stm, base =
      Harness.exec1 m (fun ctx ->
          let stm = S.create ctx in
          (stm, Ctx.alloc ctx ~words:2))
    in
    let violations = ref 0 in
    let (_ : int) =
      Harness.exec m ~seed:5 ~threads (fun ctx ->
          let g = Ctx.prng ctx in
          for _ = 1 to 100 do
            if Ctx.core ctx < 3 then
              S.atomically ctx stm (fun tx ->
                  let n = Prng.int g 1000 in
                  S.write tx base n;
                  S.write tx (base + 1) n)
            else
              S.atomically ctx stm (fun tx ->
                  let x = S.read tx base in
                  let y = S.read tx (base + 1) in
                  if x <> y then incr violations)
          done)
    in
    check_int "no torn snapshots" 0 !violations

  (* Concurrent counter: final value equals the number of committed
     increment transactions. *)
  let test_counter () =
    let threads = 8 in
    let m = machine ~cores:threads () in
    let stm, cell =
      Harness.exec1 m (fun ctx ->
          let stm = S.create ctx in
          (stm, Ctx.alloc ctx ~words:1))
    in
    S.reset_stats stm;
    let (_ : int) =
      Harness.exec m ~seed:2 ~threads (fun ctx ->
          for _ = 1 to 50 do
            S.atomically ctx stm (fun tx -> S.write tx cell (S.read tx cell + 1))
          done)
    in
    check_int "all increments applied" (threads * 50) (Machine.peek m cell);
    check_int "commit count" (threads * 50) (S.commits stm);
    if S.expect_aborts then
      check_bool "aborts happened under contention" true (S.aborts stm > 0)

  let test_user_abort_retries () =
    let m = machine () in
    Harness.exec1 m (fun ctx ->
        let stm = S.create ctx in
        let cell = Ctx.alloc ctx ~words:1 in
        let tries = ref 0 in
        S.atomically ctx stm (fun tx ->
            incr tries;
            S.write tx cell !tries;
            (* Force two retries through the Abort exception. *)
            if !tries < 3 then raise Mt_stm.Stm_intf.Abort);
        check_int "retried" 3 !tries;
        check_int "only final attempt committed" 3 (Machine.peek m cell))

  (* More distinct writes than the log's initial index holds (it must
     grow mid-transaction), with rewrites of the same addresses and
     read-your-own-write checks after the growth. *)
  let test_large_write_set () =
    let n = 150 in
    let m = machine () in
    Harness.exec1 m (fun ctx ->
        let stm = S.create ctx in
        let base = Ctx.alloc ctx ~words:(8 * n) in
        S.atomically ctx stm (fun tx ->
            for i = 0 to n - 1 do
              S.write tx (base + (8 * i)) i
            done;
            for i = 0 to n - 1 do
              if i mod 3 = 0 then S.write tx (base + (8 * i)) (1000 + i)
            done;
            for i = 0 to n - 1 do
              let expect = if i mod 3 = 0 then 1000 + i else i in
              check_int "own write after growth" expect (S.read tx (base + (8 * i)))
            done);
        for i = 0 to n - 1 do
          let expect = if i mod 3 = 0 then 1000 + i else i in
          check_int "committed" expect (Machine.peek m (base + (8 * i)))
        done)

  (* An aborted attempt's reads and buffered writes must not leak into
     the retry: the retry reads memory, not the dead attempt's buffer, and
     commits only its own writes. *)
  let test_abort_resets_logs () =
    let n = 120 in
    let m = machine () in
    Harness.exec1 m (fun ctx ->
        let stm = S.create ctx in
        let base = Ctx.alloc ctx ~words:n in
        let tries = ref 0 in
        S.atomically ctx stm (fun tx ->
            incr tries;
            if !tries = 1 then begin
              for i = 0 to n - 1 do
                ignore (S.read tx (base + i));
                S.write tx (base + i) (i + 1)
              done;
              raise Mt_stm.Stm_intf.Abort
            end;
            for i = 0 to n - 1 do
              check_int "retry reads memory" 0 (S.read tx (base + i))
            done;
            S.write tx base 7);
        check_int "two attempts" 2 !tries;
        check_int "retry's write committed" 7 (Machine.peek m base);
        for i = 1 to n - 1 do
          check_int "dead attempt's write dropped" 0 (Machine.peek m (base + i))
        done)

  let cases =
    [
      Alcotest.test_case "roundtrip" `Quick test_read_write_roundtrip;
      Alcotest.test_case "large write set" `Quick test_large_write_set;
      Alcotest.test_case "abort resets logs" `Quick test_abort_resets_logs;
      Alcotest.test_case "read own writes" `Quick test_read_own_writes;
      Alcotest.test_case "bank transfers" `Quick test_bank_transfers;
      Alcotest.test_case "consistent snapshots" `Quick test_consistent_snapshots;
      Alcotest.test_case "counter" `Quick test_counter;
      Alcotest.test_case "user abort" `Quick test_user_abort_retries;
    ]
end

module Norec_battery = Battery (struct
  include Mt_stm.Norec

  let expect_aborts = true
end)

module Tagged_battery = Battery (struct
  include Mt_stm.Norec_tagged

  let expect_aborts = false
end)

(* ------------------------------------------------------------------ *)
(* The shared transaction log, directly. *)

module Log = Mt_stm.Stm_log

(* Write-buffer positions are first-write positions — the commit's
   write-back order — whatever the rewrites, across index growth; [reset]
   empties the buffer. Addresses are strided like line-aligned nodes. *)
let test_log_first_write_order () =
  let l = Log.create () in
  let n = 200 in
  for i = 0 to n - 1 do
    Log.write l (8 * i) i
  done;
  for i = n - 1 downto 0 do
    if i mod 2 = 0 then Log.write l (8 * i) (-i)
  done;
  check_int "distinct writes" n (Log.writes l);
  for i = 0 to n - 1 do
    let p = Log.find l (8 * i) in
    check_int "first-write position" i p;
    check_int "latest value" (if i mod 2 = 0 then -i else i) (Log.value l p)
  done;
  check_int "absent" (-1) (Log.find l 4);
  Log.reset l;
  check_int "reset writes" 0 (Log.writes l);
  for i = 0 to n - 1 do
    check_int "reset index" (-1) (Log.find l (8 * i))
  done;
  Log.write l 16 5;
  check_int "reused" 0 (Log.find l 16)

(* Random write sequences against an association-list model kept in
   first-write order. *)
let prop_log_model =
  QCheck.Test.make ~name:"stm log matches first-write model" ~count:300
    QCheck.(list (pair (int_bound 300) small_int))
    (fun ops ->
      let l = Log.create () in
      let model =
        List.fold_left
          (fun model (a, v) ->
            Log.write l a v;
            if List.mem_assoc a model then
              List.map (fun (a', v') -> (a', if a' = a then v else v')) model
            else model @ [ (a, v) ])
          [] ops
      in
      Log.writes l = List.length model
      && List.for_all2
           (fun i (a, v) -> Log.find l a = i && Log.value l i = v)
           (List.init (List.length model) Fun.id)
           model)

(* Write-back lands the latest values; value validation walks the read
   set newest first and stops at the first changed value; [reset]
   empties the read set. *)
let test_log_write_back_and_validation () =
  let m = machine () in
  Harness.exec1 m (fun ctx ->
      let a = Ctx.alloc ctx ~words:8 in
      let l = Log.create () in
      Log.write l a 1;
      Log.write l (a + 1) 2;
      Log.write l a 3;
      Log.write_back l ctx;
      check_int "a" 3 (Machine.peek m a);
      check_int "a+1" 2 (Machine.peek m (a + 1));
      for i = 0 to 4 do
        Log.record_read l (a + 2 + i) 0
      done;
      check_bool "unchanged" true (Log.consistent l ctx);
      Machine.poke m (a + 3) 9;
      let loads () = (Machine.stats m ~core:0).Stats.loads in
      let before = loads () in
      check_bool "changed" false (Log.consistent l ctx);
      (* newest first: a+6, a+5, a+4, then a+3 fails *)
      check_int "stops at first change" 4 (loads () - before);
      Log.reset l;
      let before = loads () in
      check_bool "empty read set" true (Log.consistent l ctx);
      check_int "nothing re-read" 0 (loads () - before))

(* One log per core, reused; a second taker on a busy core (or a core
   outside the pool) gets a fresh one. *)
let test_log_pool () =
  let pool = Log.pool ~cores:2 in
  let l0 = Log.acquire pool 0 in
  Log.write l0 8 1;
  let l0' = Log.acquire pool 0 in
  check_bool "busy core: fresh log" true (l0 != l0');
  check_int "fresh log empty" 0 (Log.writes l0');
  Log.release l0';
  Log.release l0;
  let again = Log.acquire pool 0 in
  check_bool "released log reused" true (again == l0);
  check_int "reused log emptied" 0 (Log.writes again);
  check_bool "outside the pool" true (Log.acquire pool 5 != again)

(* Tag-set overflow: with a tiny Max_Tags, big-read-set transactions must
   fall back to value validation and still commit correctly. *)
let test_tagged_overflow_fallback () =
  let cfg = { (Config.default ~num_cores:4 ()) with max_tags = 8 } in
  let m = machine ~cfg () in
  let words = 64 in
  let stm, base =
    Harness.exec1 m (fun ctx ->
        let stm = Mt_stm.Norec_tagged.create ctx in
        let base = Ctx.alloc ctx ~words in
        Mt_stm.Norec_tagged.atomically ctx stm (fun tx ->
            for i = 0 to words - 1 do
              Mt_stm.Norec_tagged.write tx (base + i) 1
            done);
        (stm, base))
  in
  let (_ : int) =
    Harness.exec m ~seed:9 ~threads:4 (fun ctx ->
        for _ = 1 to 25 do
          (* Read all words (overflowing the tag set), then increment one. *)
          Mt_stm.Norec_tagged.atomically ctx stm (fun tx ->
              let sum = ref 0 in
              for i = 0 to words - 1 do
                sum := !sum + Mt_stm.Norec_tagged.read tx (base + i)
              done;
              let slot = base + Ctx.core ctx in
              Mt_stm.Norec_tagged.write tx slot (!sum mod 97))
        done)
  in
  check_bool "committed through fallback" true (Mt_stm.Norec_tagged.commits stm > 0)

(* One NOrec implementation serves both STMs, so its untagged instance
   must never reach a tagged step: on a contended vacation run with a
   squeezed tag set (so the tagged instance surely demotes), baseline
   NOrec issues no MemTags operation and emits no demotion, while the same
   run on tagged NOrec tags, validates, acquires by VAS and demotes. *)
let vacation_tag_use (module S : Mt_stm.Stm_intf.S) =
  let module V = Mt_stamp.Vacation.Make (S) in
  let threads = 8 in
  let obs = Mt_obs.Obs.create ~retain:false ~num_cores:threads () in
  let demotes = ref 0 in
  Mt_obs.Obs.set_tap obs
    (Some
       (fun e ->
         match e.Mt_obs.Obs.kind with
         | Mt_obs.Obs.Stm_demote -> incr demotes
         | _ -> ()));
  let m =
    Machine.create ~obs { (Config.default ~num_cores:threads ()) with max_tags = 8 }
  in
  let params = { V.relations = 64; queries = 4; query_pct = 90; user_pct = 80 } in
  let stm, mgr =
    Harness.exec1 m (fun ctx ->
        let stm = S.create ctx in
        (stm, V.setup ctx stm params))
  in
  let (_ : int) =
    Harness.exec m ~seed:7 ~threads (fun ctx ->
        for _ = 1 to 15 do
          V.client_op ctx stm mgr params
        done)
  in
  (S.aborts stm, Machine.total_stats m, !demotes)

let test_untagged_issues_no_tag_ops () =
  let aborts, st, demotes = vacation_tag_use (module Mt_stm.Norec) in
  check_bool "norec: contended (aborts)" true (aborts > 0);
  check_int "norec: tag_adds" 0 st.Stats.tag_adds;
  check_int "norec: tag_removes" 0 st.Stats.tag_removes;
  check_int "norec: validates" 0 st.Stats.validates;
  check_int "norec: vas_ops" 0 st.Stats.vas_ops;
  check_int "norec: demote events" 0 demotes;
  let _, st, demotes = vacation_tag_use (module Mt_stm.Norec_tagged) in
  check_bool "tagged: tag_adds" true (st.Stats.tag_adds > 0);
  check_bool "tagged: validates" true (st.Stats.validates > 0);
  check_bool "tagged: vas_ops" true (st.Stats.vas_ops > 0);
  check_bool "tagged: demote events" true (demotes > 0)

(* A reader parked mid-transaction must abort (via failed validation) when
   a writer commits — detected locally through the tagged lock. *)
let test_tagged_reader_sees_writer () =
  let m = machine ~cores:2 () in
  let stm, cell =
    Harness.exec1 m (fun ctx ->
        let stm = Mt_stm.Norec_tagged.create ctx in
        (stm, Ctx.alloc ctx ~words:1))
  in
  let observed = ref [] in
  let rt = Runtime.create () in
  Runtime.spawn rt (fun () ->
      let ctx = Ctx.make m ~rt ~core:0 ~prng:(Prng.create ~seed:1) in
      Mt_stm.Norec_tagged.atomically ctx stm (fun tx ->
          let v1 = Mt_stm.Norec_tagged.read tx cell in
          Runtime.stall 50_000;
          let v2 = Mt_stm.Norec_tagged.read tx cell in
          observed := (v1, v2) :: !observed));
  Runtime.spawn rt (fun () ->
      let ctx = Ctx.make m ~rt ~core:1 ~prng:(Prng.create ~seed:2) in
      Runtime.stall 20_000;
      Mt_stm.Norec_tagged.atomically ctx stm (fun tx ->
          Mt_stm.Norec_tagged.write tx cell 99));
  Runtime.run rt;
  (* Whatever attempt finally committed must have seen consistent values. *)
  List.iter
    (fun (v1, v2) -> check_int "reader never saw a torn pair" v1 v2)
    !observed;
  check_bool "reader observed the final write eventually" true
    (match !observed with (99, 99) :: _ -> true | _ -> false)

(* Multi-seed schedule exploration: the same workloads must satisfy their
   oracles under every explorer interleaving, and each seed must replay to
   the identical final state. *)

let test_tagged_counter_multi_seed () =
  let threads = 4 and per_thread = 30 in
  for seed = 1 to 12 do
    let m = machine ~cores:threads () in
    let stm, cell =
      Harness.exec1 m (fun ctx ->
          let stm = Mt_stm.Norec_tagged.create ctx in
          (stm, Ctx.alloc ctx ~words:1))
    in
    let policy = Runtime.random_policy ~seed () in
    let (_ : int) =
      Harness.exec m ~seed ~policy ~threads (fun ctx ->
          for _ = 1 to per_thread do
            Mt_stm.Norec_tagged.atomically ctx stm (fun tx ->
                Mt_stm.Norec_tagged.write tx cell
                  (Mt_stm.Norec_tagged.read tx cell + 1))
          done)
    in
    check_int
      (Printf.sprintf "seed %d: every increment committed" seed)
      (threads * per_thread)
      (Machine.peek m cell)
  done

let test_tagged_bank_multi_seed () =
  let threads = 4 and accounts = 6 in
  let run seed =
    let m = machine ~cores:threads () in
    let stm, base =
      Harness.exec1 m (fun ctx ->
          let stm = Mt_stm.Norec_tagged.create ctx in
          let base = Ctx.alloc ctx ~words:accounts in
          Mt_stm.Norec_tagged.atomically ctx stm (fun tx ->
              for i = 0 to accounts - 1 do
                Mt_stm.Norec_tagged.write tx (base + i) 100
              done);
          (stm, base))
    in
    let policy = Runtime.random_policy ~seed () in
    let (_ : int) =
      Harness.exec m ~seed ~policy ~threads (fun ctx ->
          let g = Ctx.prng ctx in
          for _ = 1 to 40 do
            let src = Prng.int g accounts and dst = Prng.int g accounts in
            let amount = Prng.int g 20 in
            Mt_stm.Norec_tagged.atomically ctx stm (fun tx ->
                let s = Mt_stm.Norec_tagged.read tx (base + src) in
                let d = Mt_stm.Norec_tagged.read tx (base + dst) in
                if s >= amount && src <> dst then begin
                  Mt_stm.Norec_tagged.write tx (base + src) (s - amount);
                  Mt_stm.Norec_tagged.write tx (base + dst) (d + amount)
                end)
          done)
    in
    List.init accounts (fun i -> Machine.peek m (base + i))
  in
  for seed = 1 to 10 do
    let balances = run seed in
    check_int
      (Printf.sprintf "seed %d: total conserved" seed)
      (100 * accounts)
      (List.fold_left ( + ) 0 balances);
    check_bool
      (Printf.sprintf "seed %d: replay gives identical final state" seed)
      true
      (run seed = balances)
  done

let () =
  Alcotest.run "mt_stm"
    [
      ("norec", Norec_battery.cases);
      ("norec-tagged", Tagged_battery.cases);
      ( "tagged-specific",
        [
          Alcotest.test_case "overflow fallback" `Quick test_tagged_overflow_fallback;
          Alcotest.test_case "parked reader aborts" `Quick test_tagged_reader_sees_writer;
          Alcotest.test_case "untagged issues no tag ops" `Quick
            test_untagged_issues_no_tag_ops;
        ] );
      ( "stm-log",
        [
          Alcotest.test_case "first-write order" `Quick test_log_first_write_order;
          Alcotest.test_case "write back and validation" `Quick
            test_log_write_back_and_validation;
          Alcotest.test_case "per-core pool" `Quick test_log_pool;
          QCheck_alcotest.to_alcotest prop_log_model;
        ] );
      ( "explorer",
        [
          Alcotest.test_case "counter exact under 12 seeds" `Quick
            test_tagged_counter_multi_seed;
          Alcotest.test_case "bank conserved + deterministic under 10 seeds"
            `Quick test_tagged_bank_multi_seed;
        ] );
    ]
