(* Byte-identity pin: short fixed-seed runs whose simulated outcome must
   never move under a host-side change. Each run is reduced to its op
   count, a digest of its latency record and a digest of the machine's
   [Stats.pp] report (plus the simulated duration); the expected values
   were recorded before the scheduler heap, machine hot path and STM logs
   were made allocation-free, so any drift in schedule order, coherence
   transitions or STM read/write order fails here, offline.

   A deliberate change to simulated behaviour must re-record these
   constants (run the test and copy the reported values) and say why in
   CHANGES.md. *)

open Mt_sim
open Mt_core

type pin = { ops : int; latency : string; stats : string }

let digest s = Digest.to_hex (Digest.string s)

let stats_digest ?(extra = "") m ~duration =
  digest
    (Format.asprintf "%d %s %a" duration extra Stats.pp (Machine.total_stats m))

(* Per-op simulated latencies, fiber-major, as one digest. *)
let latency_digest per_fiber =
  let b = Buffer.create 4096 in
  Array.iter
    (fun lats ->
      List.iter (fun l -> Buffer.add_string b (string_of_int l ^ ",")) lats;
      Buffer.add_char b ';')
    per_fiber;
  digest (Buffer.contents b)

(* Closed loop: [threads] fibers each run [ops] calls of [op], timed in
   simulated cycles. *)
let closed_loop ?extra m ~threads ~ops op =
  let lats = Array.make threads [] in
  let duration =
    Harness.exec m ~seed:7 ~threads (fun ctx ->
        let id = Ctx.core ctx in
        for _ = 1 to ops do
          let t0 = Ctx.now ctx in
          op ctx;
          lats.(id) <- (Ctx.now ctx - t0) :: lats.(id)
        done)
  in
  {
    ops = threads * ops;
    latency = latency_digest lats;
    stats = stats_digest ?extra:(Option.map (fun f -> f ()) extra) m ~duration;
  }

let hoh_list () =
  let module L = Mt_list.Hoh_list in
  let threads = 32 in
  let m = Machine.create (Config.default ~num_cores:threads ()) in
  let s = Harness.exec1 m (fun ctx -> L.create ctx) in
  Harness.exec1 m (fun ctx ->
      for k = 0 to 63 do
        ignore (L.insert ctx s (2 * k))
      done);
  Machine.reset_stats m;
  closed_loop m ~threads ~ops:12 (fun ctx ->
      let g = Ctx.prng ctx in
      let k = Prng.int g 128 in
      match Prng.int g 3 with
      | 0 -> ignore (L.insert ctx s k)
      | 1 -> ignore (L.delete ctx s k)
      | _ -> ignore (L.contains ctx s k))

let served_store () =
  let module Store_serve = Mt_store.Store_serve in
  let module Serve = Mt_serve.Server in
  let backend = Option.get (Mt_store.Backend.by_name "hoh-abtree") in
  let spec =
    Store_serve.spec ~shards:4 ~key_space:4096 ~prefill:256 ~scan_width:128
      ~backend
      ~mix:(Store_serve.mix ~point_pct:80 ~txn_pct:15)
      ()
  in
  let config =
    Serve.config ~workers:3 ~batch:2 ~queue_capacity:32 ~rate_per_kcycle:4.0
      ~horizon:40_000 ()
  in
  (* The run builds its own machine; capture it through the policy hook
     (the default policy keeps the schedule untouched). *)
  let machine = ref None in
  let make_policy m =
    machine := Some m;
    Runtime.default_policy
  in
  let r, _ = Store_serve.run ~make_policy spec config in
  {
    ops = r.Serve.completed;
    latency =
      digest
        (Format.asprintf "%a|%a|%a" Mt_obs.Hist.pp r.Serve.e2e Mt_obs.Hist.pp
           r.Serve.queue_wait Mt_obs.Hist.pp r.Serve.service);
    stats = stats_digest (Option.get !machine) ~duration:r.Serve.duration;
  }

(* Open-loop service past saturation with client-side Retry admission:
   small per-worker queues with stealing bounce arrivals, so the retry
   heap's (due time, request id) order decides every re-attempt. The
   dequeue log and the admission counters go into the latency digest. *)
let served_retry () =
  let module Serve = Mt_serve.Server in
  let config =
    Serve.config ~workers:3 ~batch:2 ~queue_capacity:2
      ~queues:(Serve.Per_worker { steal = true })
      ~admission:(Serve.Retry { max_retries = 3; backoff_base = 40; backoff_cap = 400 })
      ~rate_per_kcycle:12.0 ~horizon:30_000 ~record_dequeues:true ()
  in
  let machine = ref None in
  let make_policy m =
    machine := Some m;
    Runtime.default_policy
  in
  let r =
    Serve.run_set ~make_policy (module Mt_list.Hoh_list) ~key_range:64 config
  in
  {
    ops = r.Serve.completed;
    latency =
      digest
        (Format.asprintf "%d %d %d %d|%s|%a|%a" r.Serve.generated r.Serve.dropped
           r.Serve.rejects r.Serve.steals
           (String.concat ","
              (List.map (fun (q, id) -> Printf.sprintf "%d:%d" q id) r.Serve.dequeue_log))
           Mt_obs.Hist.pp r.Serve.e2e Mt_obs.Hist.pp r.Serve.queue_wait);
    stats = stats_digest (Option.get !machine) ~duration:r.Serve.duration;
  }

let vacation (module S : Mt_stm.Stm_intf.S) () =
  let module V = Mt_stamp.Vacation.Make (S) in
  let threads = 8 in
  (* A 4-set x 2-way L1, so that evictions — and so timing — depend on
     the order of accesses, such as the commit's write-back order. *)
  let m =
    Machine.create
      { (Config.default ~num_cores:threads ()) with l1_sets_log2 = 2; l1_ways = 2 }
  in
  (* Small tables: enough conflict for aborts, retries and VBV passes. *)
  let params =
    { V.relations = 64; queries = 4; query_pct = 90; user_pct = 80 }
  in
  let stm, mgr =
    Harness.exec1 m (fun ctx ->
        let stm = S.create ctx in
        (stm, V.setup ctx stm params))
  in
  Machine.reset_stats m;
  S.reset_stats stm;
  let extra () =
    Printf.sprintf "commits %d aborts %d vbv %d" (S.commits stm) (S.aborts stm)
      (S.vbv_passes stm)
  in
  closed_loop ~extra m ~threads ~ops:15 (fun ctx ->
      V.client_op ctx stm mgr params)

let show p = Printf.sprintf "ops %d latency %s stats %s" p.ops p.latency p.stats

let check name run expected () =
  Alcotest.(check string) name (show expected) (show (run ()))

let pins =
  [
    ( "hoh-list 32 fibers",
      hoh_list,
      {
        ops = 384;
        latency = "7dff95380ab6847a097c83dc2c3db1b5";
        stats = "406eed01f3f783816fd99b9a4a343a12";
      } );
    ( "served store hoh-abtree",
      served_store,
      {
        ops = 138;
        latency = "5000b5bf939bfa5213abcb5a7605628e";
        stats = "692d374510bf3c423b12f4b4e12a6e2b";
      } );
    ( "served retry hoh-list",
      served_retry,
      {
        ops = 363;
        latency = "fbb8c6cde293274702e0781de1cb7aec";
        stats = "9c81c45d7296e0f49c2c3a70a416bd06";
      } );
    ( "vacation norec-tagged",
      vacation (module Mt_stm.Norec_tagged),
      {
        ops = 120;
        latency = "775bb1bb03b301bdb8aa720d052ee94f";
        stats = "295e8689f238755d29f9fec67f5711bb";
      } );
    ( "vacation norec",
      vacation (module Mt_stm.Norec),
      {
        ops = 120;
        latency = "8b2e1bd9f8dfaae4de00504542256b37";
        stats = "ce1a7bf7f4e6dd6f14eb83810b4092b4";
      } );
  ]

let () =
  Alcotest.run "mt_pin"
    [
      ( "pin",
        List.map
          (fun (name, run, expected) ->
            Alcotest.test_case name `Quick (check name run expected))
          pins );
    ]
