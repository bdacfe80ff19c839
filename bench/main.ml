(* Regenerates every measured figure of the paper (Figures 2, 4, 5, 6, 7
   and 8), the spurious-invalidation observation of Section 6, and the
   design-choice ablations called out in DESIGN.md.

   Usage:  dune exec bench/main.exe [-- PANEL... quick --jobs N --json FILE]

   The panels, in the order the registry ([panels], at the end) runs them:
     fig2 (or fig4)  Figures 2 & 4: lists, 35i/35d/30c
     fig5            Figure 5: lists, 15i/15d/70c
     fig6, fig7      Figures 6 & 7: (a,b)-trees, 35/35/30 and 15/15/70
     fig8            Figure 8: STAMP vacation on NOrec vs tagged NOrec
     spurious        Section 6: spurious validation failures
     ablation        tag-op costs, IAS scope, Max_Tags for tagged NOrec
     latency         the open-loop service layer (lib/serve) over list,
                     tree and STM backends: goodput, drops and e2e tails
                     across each backend's saturation knee
     store           the sharded store (lib/store) under point/txn/scan
                     request mixes, one saturation curve per backend x mix
     contention      restart contention policy (lib/cm) x threads x Zipf
                     skew over four restart-loop shapes
     timeline        windowed telemetry (lib/obs Series) of a closed- and
                     an open-loop run under an injected Max_Tags squeeze
     summary         the verdict table: each claim of EXPERIMENTS.md, checked
                     as a ratio on the panels that ran before it
   latency, store, contention and timeline have no paper counterpart.

   With no panel named, every panel runs (the paper's full sweep). A word
   that is neither a panel nor "quick" is an error (exit 2). "quick"
   shrinks the sweeps for a fast smoke run. --jobs N fans the independent
   simulation points out over N OCaml domains (0 = auto, 1 = sequential);
   stdout and JSON are byte-identical for any value. --json FILE writes the
   BENCH JSON document (Mt_workload.Bench_doc): every top-level section
   is present, empty for the panels that did not run. The wall time goes
   to stderr. The exit status is 1 when a computed verdict differs from
   the status its claim states. *)

open Mt_sim
module Spec = Mt_workload.Spec
module Driver = Mt_workload.Driver
module Report = Mt_workload.Report
module Bench_doc = Mt_workload.Bench_doc
module Pool = Mt_par.Pool
module Serve = Mt_serve.Server
module Hist = Mt_obs.Hist
module Series = Mt_obs.Series
module Obs = Mt_obs.Obs
module Json = Mt_obs.Json
module Store = Mt_store.Store
module Store_serve = Mt_store.Store_serve
module Store_backend = Mt_store.Backend
module Cm = Mt_cm.Cm
module Zipf = Mt_adversary.Zipf
module Ctx = Mt_core.Ctx

(* ------------------------------------------------------------------ *)
(* Configuration. *)

let quick = ref false
let threads_sweep () = if !quick then [ 1; 4; 16; 64 ] else [ 1; 2; 4; 8; 16; 32; 64 ]

(* Domain-parallelism over independent simulation points (--jobs N;
   0 = auto). Each point builds its own machine/runtime/PRNGs and results
   merge in input order, so output is byte-identical whatever the value. *)
let jobs = ref 0
let pmap f points =
  Pool.map ~jobs:(if !jobs > 0 then !jobs else Pool.default_jobs ()) f points

let list_range = 256
let tree_range = 8192

module Abtree_params = struct
  let a = 4
  let b = 8
end

module Abtree_hoh = Mt_abtree.Abtree_hoh.Make (Abtree_params)
module Abtree_llx = Mt_abtree.Abtree_llx.Make (Abtree_params)

let store_backend name =
  match Store_backend.by_name name with
  | Some b -> b
  | None -> failwith ("bench: unknown store backend " ^ name)

type series = { impl : string; points : (int * Driver.result) list }

(* ------------------------------------------------------------------ *)
(* The series runner behind every figure: one implementation's name and
   how to run one point of the thread sweep (the result plus the detail
   of its progress line). *)

type impl = { name : string; point : threads:int -> Driver.result * string }

let set_impl ~range ~insert_pct ~delete_pct (module S : Mt_list.Set_intf.SET) =
  {
    name = S.name;
    point =
      (fun ~threads ->
        let r =
          Driver.run_set (module S)
            (Spec.make ~key_range:range ~insert_pct ~delete_pct ~threads
               ~measure_cycles:150_000 ())
        in
        (r, Printf.sprintf "%d ops" r.Driver.ops));
  }

(* STAMP vacation -n4 -q60 -u90 on one STM: the result plus the STM's
   abort and value-based-validation counts. *)
let vacation (module S : Mt_stm.Stm_intf.S) ~threads ~relations ~max_tags
    ~warmup_cycles ~measure_cycles =
  let module V = Mt_stamp.Vacation.Make (S) in
  let params = { V.relations; queries = 4; query_pct = 60; user_pct = 90 } in
  let cfg = { (Config.default ~num_cores:threads ()) with Config.max_tags } in
  let spec =
    Spec.make ~key_range:relations ~insert_pct:0 ~delete_pct:0 ~threads
      ~warmup_cycles ~measure_cycles ()
  in
  let stm_box = ref None in
  let r =
    Driver.run_custom ~cfg ~name:S.name
      ~setup:(fun ctx ->
        let stm = S.create ctx in
        stm_box := Some stm;
        (stm, V.setup ctx stm params))
      ~op:(fun ctx (stm, mgr) -> V.client_op ctx stm mgr params)
      spec
  in
  let stm = Option.get !stm_box in
  (r, S.aborts stm, S.vbv_passes stm)

(* Figure 8's point: -r16384 (-t is replaced by a fixed simulated window).
   STM read sets are much larger than a search-structure window, so the
   configuration provisions 256 tags (see DESIGN.md). *)
let vacation_impl ((module S : Mt_stm.Stm_intf.S) as stm) =
  {
    name = S.name;
    point =
      (fun ~threads ->
        let r, aborts, vbv =
          vacation stm ~threads
            ~relations:(if !quick then 4096 else 16384)
            ~max_tags:256 ~warmup_cycles:50_000 ~measure_cycles:400_000
        in
        (r, Printf.sprintf "%d txs, %d aborts, %d vbv passes" r.Driver.ops aborts vbv));
  }

(* The whole impl x threads grid is one list of independent points, fanned
   out across domains. Progress lines print after the parallel phase, in
   input order, so stdout is deterministic for any --jobs value. *)
let run_series impls =
  let points =
    List.concat_map (fun i -> List.map (fun t -> (i, t)) (threads_sweep ())) impls
  in
  let results = pmap (fun (i, threads) -> i.point ~threads) points in
  List.iter2
    (fun (i, t) (_, detail) -> Printf.printf "  [%s t=%d] %s\n%!" i.name t detail)
    points results;
  List.map
    (fun i ->
      {
        impl = i.name;
        points =
          List.filter_map
            (fun ((i', t), (r, _)) -> if i'.name = i.name then Some (t, r) else None)
            (List.combine points results);
      })
    impls

let metric_table ~title cell series =
  Report.table ~title
    ~columns:("threads" :: List.map (fun s -> s.impl) series)
    (List.map
       (fun (t, _) ->
         string_of_int t :: List.map (fun s -> cell (List.assoc t s.points)) series)
       (List.hd series).points)

let throughput (r : Driver.result) = Report.f2 r.throughput

let series_to_json (s : series) =
  Json.Obj
    [
      ("impl", Json.String s.impl);
      ("points",
       Json.List
         (List.map
            (fun (threads, r) ->
              Json.Obj
                [ ("threads", Json.Int threads); ("result", Driver.result_to_json r) ])
            s.points));
    ]

let figure ~banner ?throughput_title ~prefix impls _ =
  print_endline ("\n=== " ^ banner ^ " ===");
  let series = run_series impls in
  Option.iter (fun title -> metric_table ~title throughput series) throughput_title;
  metric_table ~title:(prefix ^ " — throughput (ops / 1000 cycles)") throughput series;
  metric_table ~title:(prefix ^ " — L1 miss rate")
    (fun r -> Report.pct r.Driver.l1_miss_rate)
    series;
  metric_table ~title:(prefix ^ " — energy per operation (model units)")
    (fun r -> Report.f2 r.Driver.energy_per_op)
    series;
  List.map series_to_json series

let lists ~insert_pct ~delete_pct =
  List.map
    (set_impl ~range:list_range ~insert_pct ~delete_pct)
    [ (module Mt_list.Harris_list); (module Mt_list.Vas_list); (module Mt_list.Hoh_list) ]

let trees ~insert_pct ~delete_pct =
  List.map
    (set_impl ~range:tree_range ~insert_pct ~delete_pct)
    [ (module Abtree_llx); (module Abtree_hoh) ]

(* ------------------------------------------------------------------ *)
(* Section 6 observation: spurious invalidations are negligible. *)

let spurious _ =
  print_endline "\n=== Section 6: spurious validation failures ===";
  let spec range =
    Spec.make ~key_range:range ~insert_pct:35 ~delete_pct:35 ~threads:16
      ~measure_cycles:150_000 ()
  in
  let results =
    pmap
      (fun (name, m, range) -> (name, Driver.run_set m (spec range)))
      [
        ( Printf.sprintf "hoh-list r%d" list_range,
          (module Mt_list.Hoh_list : Mt_list.Set_intf.SET),
          list_range );
        ("hoh-abtree r8192", (module Abtree_hoh), tree_range);
        (* A deliberately oversized structure shows capacity evictions rising. *)
        ("hoh-abtree r65536", (module Abtree_hoh), 65536);
      ]
  in
  Report.table ~title:"Spurious (capacity/overflow) validation failures"
    ~columns:[ "workload"; "validates"; "failures"; "spurious"; "spurious/validate" ]
    (List.map
       (fun (name, (r : Driver.result)) ->
         [
           name;
           string_of_int r.validates;
           string_of_int r.validate_failures;
           string_of_int r.validate_failures_spurious;
           Report.pct
             (if r.validates = 0 then 0.0
              else float_of_int r.validate_failures_spurious /. float_of_int r.validates);
         ])
       results);
  List.map
    (fun (name, (r : Driver.result)) ->
      Json.Obj
        [
          ("workload", Json.String name);
          ("validates", Json.Int r.validates);
          ("validate_failures", Json.Int r.validate_failures);
          ("validate_failures_spurious", Json.Int r.validate_failures_spurious);
          ("result", Driver.result_to_json r);
        ])
    results

(* ------------------------------------------------------------------ *)
(* Ablations (DESIGN.md): explicit tag-op costs, conservative IAS,
   Max_Tags sensitivity for the STM. Rows within a table are independent
   simulations, run through the pool and printed in row order. *)

let ablation _ =
  print_endline "\n=== Ablations ===";
  let cfg0 = Config.default ~num_cores:16 () in
  (* One table: its rows printed, and returned as JSON rows. *)
  let table title ~columns ~cells run configs =
    let results = pmap (fun (_, x) -> run x) configs in
    Report.table ~title ~columns
      (List.map2 (fun (config, _) r -> config :: cells r) configs results);
    List.map2
      (fun (config, _) r ->
        Json.Obj
          [
            ("ablation", Json.String title);
            ("config", Json.String config);
            ("result", Driver.result_to_json r);
          ])
      configs results
  in
  let set_table title (module S : Mt_list.Set_intf.SET) ~range =
    table title ~columns:[ "config"; "thr/kcyc"; "L1 miss" ]
      ~cells:(fun (r : Driver.result) -> [ Report.f2 r.throughput; Report.pct r.l1_miss_rate ])
      (fun cfg ->
        Driver.run_set ~cfg (module S)
          (Spec.make ~key_range:range ~insert_pct:35 ~delete_pct:35 ~threads:16
             ~measure_cycles:150_000 ()))
  in
  (* Bound one at a time so the tables print in this order. *)
  let tag_costs =
    set_table "Ablation: explicit tag-instruction costs (HoH list, t16)"
      (module Mt_list.Hoh_list) ~range:list_range
      [
        ("tag=0 validate=0 (default)", cfg0);
        ("tag=1 validate=1", { cfg0 with Config.lat_tag_op = 1; lat_validate = 1 });
        ("tag=2 validate=4", { cfg0 with Config.lat_tag_op = 2; lat_validate = 4 });
      ]
  in
  let ias_scope =
    set_table "Ablation: IAS invalidation scope (HoH abtree, t16)"
      (module Abtree_hoh) ~range:tree_range
      [
        ("tag-targeted IAS (default)", cfg0);
        ("IAS elevates all sharers", { cfg0 with Config.ias_tag_targeted = false });
      ]
  in
  let max_tags =
    table "Ablation: Max_Tags for tagged NOrec (vacation r4096, t16)"
      ~columns:[ "Max_Tags"; "thr/kcyc" ]
      ~cells:(fun (r : Driver.result) -> [ Report.f2 r.throughput ])
      (fun max_tags ->
        let r, _, _ =
          vacation (module Mt_stm.Norec_tagged) ~threads:16 ~relations:4096 ~max_tags
            ~warmup_cycles:30_000 ~measure_cycles:300_000
        in
        r)
      (List.map (fun n -> (string_of_int n, n)) [ 32; 64; 128; 256 ])
  in
  tag_costs @ ias_scope @ max_tags

(* ------------------------------------------------------------------ *)
(* The open-loop panels (no paper counterpart: the paper measures
   closed-loop only). Closed-loop figures cannot see queueing delay; here
   load is offered at a configured rate whether or not the target keeps
   up. Phase 1 offers far more load than any target can serve, so its
   goodput is the target's saturation capacity; phase 2 offers multiples
   of that capacity, so the knee is always in frame: goodput plateaus at
   1.0x while the end-to-end tail explodes. *)

let serve_workers = 4
let cal_rate = 200.0
let serve_horizon () = if !quick then 60_000 else 120_000

let serve_config ~rate ~horizon =
  Serve.config ~workers:serve_workers ~batch:4 ~queue_capacity:128
    ~rate_per_kcycle:rate ~horizon ()

(* Per target, in input order: its calibration result and its grid of
   (load multiple, result). *)
let calibrate_then_grid ~run ~goodput ~mults targets =
  let calibrated = pmap (fun x -> run x cal_rate) targets in
  let points =
    List.concat
      (List.map2
         (fun x cal -> List.map (fun m -> (x, m *. goodput cal)) mults)
         targets calibrated)
  in
  let results = pmap (fun (x, rate) -> run x rate) points in
  let per = List.length mults in
  List.mapi
    (fun i (x, cal) ->
      (x, cal, List.mapi (fun j m -> (m, List.nth results ((i * per) + j))) mults))
    (List.combine targets calibrated)

(* A panel's JSON rows: every calibration point (load multiple 0), then
   every grid point. *)
let calibrate_then_grid_rows row groups =
  List.map (fun (x, cal, _) -> row x 0.0 cal) groups
  @ List.concat_map (fun (x, _, grid) -> List.map (fun (m, r) -> row x m r) grid) groups

(* Latency: one list, one tree and one STM backend. The STM backend serves
   transactional map operations (35% insert, 35% delete, 30% lookup) on
   tagged NOrec with the Fig. 8 tag provisioning, over 512 keys: the
   transactional BST stays cache-resident, keeping it in the same
   capacity class as the structures (a 4096-key map is memory-bound at
   ~25x the service time). *)

let serve_set (module S : Mt_list.Set_intf.SET) ~range =
  (S.name, fun ~rate ~horizon ->
      Serve.run_set (module S) ~key_range:range (serve_config ~rate ~horizon))

let serve_stm ~range =
  let module S = Mt_stm.Norec_tagged in
  let module TM = Mt_stamp.Tx_map.Make (S) in
  ( "norec-tagged-map",
    fun ~rate ~horizon ->
      let cfg =
        { (Config.default ~num_cores:(serve_workers + 1) ()) with Config.max_tags = 256 }
      in
      let c = serve_config ~rate ~horizon in
      Serve.run ~cfg ~name:"norec-tagged-map"
        ~setup:(fun ctx ->
          let stm = S.create ctx in
          let map = TM.create ctx in
          let g = Prng.create ~seed:(c.Serve.seed + 1) in
          for k = 0 to range - 1 do
            if Prng.float g < 0.5 then
              S.atomically ctx stm (fun tx -> ignore (TM.insert tx map k k))
          done;
          (stm, map))
        ~op:(fun ctx (stm, map) payload ->
          let k = (payload lsr 20) mod range in
          let r = payload mod 100 in
          S.atomically ctx stm (fun tx ->
              if r < 35 then ignore (TM.insert tx map k k)
              else if r < 70 then ignore (TM.remove tx map k)
              else ignore (TM.find tx map k)))
        c )

let latency _ =
  print_endline
    "\n=== Offered-load sweep: open-loop service layer (goodput vs tail latency) ===";
  let horizon = serve_horizon () in
  let groups =
    calibrate_then_grid
      [
        serve_set (module Mt_list.Hoh_list) ~range:list_range;
        serve_set (module Abtree_hoh) ~range:tree_range;
        serve_stm ~range:512;
      ]
      ~run:(fun (_, run) rate -> run ~rate ~horizon)
      ~goodput:(fun (r : Serve.result) -> r.goodput)
      ~mults:
        (if !quick then [ 0.5; 0.9; 1.1; 1.5 ]
         else [ 0.25; 0.5; 0.7; 0.85; 1.0; 1.2; 1.5; 2.0 ])
  in
  List.iter
    (fun ((name, _), (r : Serve.result), _) ->
      Printf.printf "  [%s] capacity %.3f req/kcyc (offered %.0f, drop %.1f%%)\n%!"
        name r.goodput cal_rate (100.0 *. r.drop_rate))
    groups;
  List.iter
    (fun ((name, _), _, grid) ->
      Report.table
        ~title:
          (Printf.sprintf
             "Open-loop service — %s (poisson arrivals, %d workers, batch 4)" name
             serve_workers)
        ~columns:
          [ "load"; "offered/kcyc"; "goodput/kcyc"; "drop"; "wait p50"; "e2e p50";
            "e2e p99"; "e2e p99.9" ]
        (List.map
           (fun (m, (r : Serve.result)) ->
             [
               Printf.sprintf "%.2fx" m;
               Report.f2 r.offered;
               Report.f2 r.goodput;
               Report.pct r.drop_rate;
               string_of_int (Hist.percentile r.queue_wait 50.0);
               string_of_int (Hist.percentile r.e2e 50.0);
               string_of_int (Hist.percentile r.e2e 99.0);
               string_of_int (Hist.percentile r.e2e 99.9);
             ])
           grid))
    groups;
  calibrate_then_grid_rows
    (fun (name, _) mult r ->
      Json.Obj
        [
          ("backend", Json.String name);
          ("calibration", Json.Bool (mult = 0.0));
          ("load_multiple", Json.Float mult);
          ("result", Serve.result_to_json r);
        ])
    groups

(* Store: the serve layer drives the sharded multi-structure store with a
   point/txn/scan request mix, one saturation curve per backend x mix.
   Store counters (txn commit/abort, scan validation fallbacks, per-shard
   routing imbalance) ride along with each point. *)

let store_shards = 4

let store_row (spec : Store_serve.spec) mult ((r : Serve.result), (st : Store.stats)) =
  let m = spec.mix in
  Json.Obj
    [
      ("backend", Json.String (Store_backend.name spec.backend));
      ("mix", Json.String (Store_serve.mix_name m));
      ("point_pct", Json.Int m.point_pct);
      ("txn_pct", Json.Int m.txn_pct);
      ("scan_pct", Json.Int m.scan_pct);
      ("shards", Json.Int store_shards);
      ("calibration", Json.Bool (mult = 0.0));
      ("load_multiple", Json.Float mult);
      ("result", Serve.result_to_json r);
      ("store",
       Json.Obj
         [
           ("point_ops", Json.Int st.point_ops);
           ("txn_commits", Json.Int st.txn_commits);
           ("txn_aborts", Json.Int st.txn_aborts);
           ("txn_sub_ops", Json.Int st.txn_sub_ops);
           ("txn_retries", Json.Int st.txn_retries);
           ("txn_retries_locked", Json.Int st.txn_retries_locked);
           ("txn_retries_version", Json.Int st.txn_retries_version);
           ("scans", Json.Int st.scans);
           ("scan_collects", Json.Int st.scan_collects);
           ("scan_tag_fallbacks", Json.Int st.scan_tag_fallbacks);
           ("scan_shard_retries", Json.Int st.scan_shard_retries);
           ("shard_ops",
            Json.List (Array.to_list (Array.map (fun n -> Json.Int n) st.shard_ops)));
           ("imbalance", Json.Float (Store.imbalance st));
         ]);
    ]

let store _ =
  print_endline "\n=== Sharded store: saturation curves per mix per backend ===";
  let horizon = serve_horizon () in
  let groups =
    calibrate_then_grid
      (List.concat_map
         (fun name ->
           List.map
             (fun mix ->
               Store_serve.spec ~shards:store_shards ~backend:(store_backend name)
                 ~mix ())
             [
               Store_serve.mix ~point_pct:90 ~txn_pct:5;
               Store_serve.mix ~point_pct:60 ~txn_pct:30;
               Store_serve.mix ~point_pct:50 ~txn_pct:20;
             ])
         [ "hoh-list"; "hoh-abtree"; "norec-tagged" ])
      ~run:(fun spec rate -> Store_serve.run spec (serve_config ~rate ~horizon))
      ~goodput:(fun ((r : Serve.result), _) -> r.goodput)
      ~mults:
        (if !quick then [ 0.5; 1.0; 1.5 ]
         else [ 0.25; 0.5; 0.85; 1.0; 1.2; 1.5; 2.0 ])
  in
  let label (spec : Store_serve.spec) =
    (Store_backend.name spec.backend, Store_serve.mix_name spec.mix)
  in
  List.iter
    (fun (spec, ((r : Serve.result), _), _) ->
      let backend, mix = label spec in
      Printf.printf "  [%s %s] capacity %.3f req/kcyc (offered %.0f)\n%!" backend mix
        r.goodput cal_rate)
    groups;
  List.iter
    (fun (spec, _, grid) ->
      let backend, mix = label spec in
      Report.table
        ~title:
          (Printf.sprintf "Sharded store — %s, mix %s (%d shards, %d workers)" backend
             mix store_shards serve_workers)
        ~columns:
          [ "load"; "offered/kcyc"; "goodput/kcyc"; "drop"; "e2e p99"; "txn abort";
            "scan fallback"; "imbalance" ]
        (List.map
           (fun (m, ((r : Serve.result), (st : Store.stats))) ->
             let txns = st.txn_commits + st.txn_aborts in
             [
               Printf.sprintf "%.2fx" m;
               Report.f2 r.offered;
               Report.f2 r.goodput;
               Report.pct r.drop_rate;
               string_of_int (Hist.percentile r.e2e 99.0);
               Report.pct
                 (if txns = 0 then 0.0
                  else float_of_int st.txn_aborts /. float_of_int txns);
               string_of_int st.scan_tag_fallbacks;
               Printf.sprintf "%.2f" (Store.imbalance st);
             ])
           grid))
    groups;
  calibrate_then_grid_rows store_row groups

(* ------------------------------------------------------------------ *)
(* Contention panel: restart-management policy x thread count x Zipfian
   skew, over four backends chosen for their different restart loops —
   the HoH list (VAS/IAS storms on a short hot list), the HoH (a,b)-tree
   (locate/commit restarts over a wider structure), tagged NOrec (STM
   abort/retry on the global seqlock) and the sharded store's transaction
   path (kCAS + shard-lock acquisition retries). Every point reuses the
   same per-core PRNG streams regardless of policy (jitter draws come
   from a separate split stream), so the offered operation sequence is
   identical across policies and throughput differences are pure
   contention-management effect. *)

let contention_spec ~range ~insert_pct ~delete_pct ~threads =
  Spec.make ~key_range:range ~insert_pct ~delete_pct ~threads
    ~warmup_cycles:(if !quick then 10_000 else 30_000)
    ~measure_cycles:(if !quick then 60_000 else 150_000)
    ()

(* Write-heavy Zipf-keyed set workload (45i/45d/10c). The hot rank maps
   to the LARGEST key, so for ordered structures the contended nodes sit
   at the end of the longest traversal path — a restart throws away the
   whole hand-over-hand walk, which is exactly the storm contention
   management exists to calm. The set points run the conservative IAS
   variant (paper §3's sketch; the same knob as the ablation panel):
   every successful delete elevates the whole tag set to M, so each
   success invalidates all concurrent walkers sharing the hot lines and
   the restart storm has a real fabric cost. *)
let contention_set_point (module S : Mt_list.Set_intf.SET) ~range ~theta ~cm ~threads =
  let z = Zipf.create ~n:range ~theta in
  let spec = contention_spec ~range ~insert_pct:45 ~delete_pct:45 ~threads in
  let cfg =
    { (Config.default ~num_cores:threads ()) with Config.ias_tag_targeted = false }
  in
  Driver.run_custom ~cfg ~cm ~name:S.name
    ~setup:(fun ctx ->
      let s = S.create ctx in
      let g = Prng.create ~seed:(spec.Spec.seed + 1) in
      for k = 0 to range - 1 do
        if Prng.float g < spec.Spec.init_fill then ignore (S.insert ctx s k)
      done;
      s)
    ~op:(fun ctx s ->
      let g = Ctx.prng ctx in
      let k = range - 1 - Zipf.sample z g in
      let r = Prng.int g 100 in
      if r < 45 then ignore (S.insert ctx s k)
      else if r < 90 then ignore (S.delete ctx s k)
      else ignore (S.contains ctx s k))
    spec

(* Zipf-keyed transfer transactions over a word array on tagged NOrec:
   every transaction reads and writes two skew-chosen cells, so the hot
   ranks produce genuine read/write conflicts, not just seqlock churn. *)
let contention_stm_point ~range ~theta ~cm ~threads =
  let module S = Mt_stm.Norec_tagged in
  let z = Zipf.create ~n:range ~theta in
  let spec = contention_spec ~range ~insert_pct:0 ~delete_pct:0 ~threads in
  Driver.run_custom ~cm ~name:"norec-tagged"
    ~setup:(fun ctx ->
      let stm = S.create ctx in
      let base = Ctx.alloc ~label:"cm-bank" ctx ~words:range in
      for i = 0 to range - 1 do
        Ctx.write ctx (base + i) 0
      done;
      (stm, base))
    ~op:(fun ctx (stm, base) ->
      let g = Ctx.prng ctx in
      let a = base + Zipf.sample z g in
      let b = base + Zipf.sample z g in
      S.atomically ctx stm (fun tx ->
          let va = S.read tx a and vb = S.read tx b in
          S.write tx a (va + 1);
          S.write tx b (vb - 1)))
    spec

(* Zipf-keyed 3-key transactions against the sharded store (hoh-list
   shards): hot ranks all route to the same shard, so its version word
   becomes the contended site for the shard-lock retry loop. *)
let contention_store_point ~theta ~cm ~threads =
  let key_space = 8192 and shards = 8 and txn_keys = 3 in
  let z = Zipf.create ~n:key_space ~theta in
  let backend = store_backend "hoh-list" in
  let spec = contention_spec ~range:key_space ~insert_pct:0 ~delete_pct:0 ~threads in
  Driver.run_custom ~cm ~name:"store-txn"
    ~setup:(fun ctx ->
      let st = Store.create backend ctx ~shards ~key_space in
      let g = Prng.create ~seed:(spec.Spec.seed + 1) in
      for _ = 1 to 1024 do
        ignore (Store.insert ctx st (Prng.int g key_space))
      done;
      Store.reset_stats st;
      st)
    ~op:(fun ctx st ->
      let g = Ctx.prng ctx in
      let rec build i acc =
        if i = 0 then acc
        else
          let k = Zipf.sample z g in
          let o =
            match Prng.int g 3 with 0 -> Store.Insert | 1 -> Store.Delete | _ -> Store.Get
          in
          build (i - 1) ((k, o) :: acc)
      in
      ignore (Store.txn ctx st (build txn_keys [])))
    spec

(* The 2048-node list is where storms bite hardest: one restart forfeits
   a full L2-latency hand-over-hand walk. *)
let contention_backends =
  [
    ("hoh-list", contention_set_point (module Mt_list.Hoh_list) ~range:2048);
    ("hoh-abtree", contention_set_point (module Abtree_hoh) ~range:tree_range);
    ("norec-tagged", contention_stm_point ~range:1024);
    ("store-txn", contention_store_point);
  ]

let contention _ =
  print_endline "\n=== Contention management: policy x threads x Zipf skew ===";
  let threads_list = if !quick then [ 8; 64 ] else [ 4; 16; 64 ] in
  let thetas = if !quick then [ 0.99; 2.0 ] else [ 0.6; 0.99; 2.0 ] in
  let points =
    List.concat_map
      (fun backend ->
        List.concat_map
          (fun cm ->
            List.concat_map
              (fun threads ->
                List.map (fun theta -> (backend, cm, threads, theta)) thetas)
              threads_list)
          [ Cm.immediate; Cm.backoff (); Cm.politeness () ])
      contention_backends
  in
  let rows =
    List.map2
      (fun ((name, _), cm, t, th) r -> (name, Cm.spec_name cm, t, th, r))
      points
      (pmap (fun ((_, run), cm, threads, theta) -> run ~theta ~cm ~threads) points)
  in
  List.iter
    (fun (backend, _) ->
      let rows = List.filter (fun (b, _, _, _, _) -> b = backend) rows in
      let imm_thr t th =
        List.find_map
          (fun (_, pol, t', th', (r : Driver.result)) ->
            if pol = "immediate" && t' = t && th' = th then Some r.throughput else None)
          rows
      in
      Report.table
        ~title:(Printf.sprintf "Contention — %s" backend)
        ~columns:
          [ "policy"; "threads"; "theta"; "thr/kcyc"; "vs imm"; "cm waits";
            "wait cycles" ]
        (List.map
           (fun (_, pol, t, th, (r : Driver.result)) ->
             [
               pol;
               string_of_int t;
               Printf.sprintf "%.2f" th;
               Report.f2 r.throughput;
               (match imm_thr t th with
               | Some base when base > 0.0 ->
                   Printf.sprintf "%.2fx" (r.throughput /. base)
               | _ -> "-");
               string_of_int r.stats.Stats.cm_waits;
               string_of_int r.stats.Stats.cm_wait_cycles;
             ])
           rows))
    contention_backends;
  List.map
    (fun (backend, policy, threads, theta, (r : Driver.result)) ->
      Json.Obj
        [
          ("backend", Json.String backend);
          ("policy", Json.String policy);
          ("threads", Json.Int threads);
          ("theta", Json.Float theta);
          ("result", Driver.result_to_json r);
          ("cm",
           Json.Obj
             [
               ("waits", Json.Int r.stats.Stats.cm_waits);
               ("wait_cycles", Json.Int r.stats.Stats.cm_wait_cycles);
             ]);
        ])
    rows

(* ------------------------------------------------------------------ *)
(* Timeline: windowed telemetry under an injected Max_Tags squeeze.

   Two scenarios over the HoH list — a closed-loop run (8 threads) and an
   open-loop serve run (4 workers) — each with a mid-run squeeze pulse
   dropping Max_Tags to 1. A hand-over-hand locate's window is two live
   tags, so under the pulse every traversal overflows the tag file:
   validations fail spuriously, ops spin in retry, and (open-loop) the
   queues back up — then the pulse restores and the per-window series
   shows the recovery. The telemetry runs on a retain:false sink (the
   series reads the live event stream, not the rings), so the panel is
   byte-identical for any --jobs value and with tracing on or off. *)

let timeline_window = 5_000

let timeline _ =
  print_endline "\n=== Timeline: windowed telemetry under a Max_Tags squeeze pulse ===";
  let horizon = if !quick then 60_000 else 150_000 in
  let fault = Printf.sprintf "squeeze=%d,1,%d" (horizon / 3) (horizon / 5) in
  let spec_inj =
    match Mt_adversary.Inject.of_string fault with
    | Ok s -> s
    | Error e -> failwith ("bench timeline: bad fault spec: " ^ e)
  in
  let make_policy m =
    Mt_adversary.Scenario.make_policy spec_inj ~machine:m ~seed:1 ~max_delay:0
  in
  let closed () =
    let obs = Obs.create ~retain:false ~num_cores:8 () in
    let series = Series.create ~window:timeline_window () in
    let spec =
      Spec.make ~key_range:list_range ~insert_pct:35 ~delete_pct:35 ~threads:8
        ~measure_cycles:horizon ()
    in
    let r = Driver.run_set ~obs ~make_policy ~series (module Mt_list.Hoh_list) spec in
    ("closed-squeeze", "closed-loop", series, Driver.result_to_json r)
  in
  let serve () =
    let obs = Obs.create ~retain:false ~num_cores:(serve_workers + 1) () in
    let series = Series.create ~window:timeline_window () in
    let r =
      Serve.run_set ~obs ~make_policy ~series
        (module Mt_list.Hoh_list)
        ~key_range:list_range
        (serve_config ~rate:8.0 ~horizon)
    in
    ("serve-squeeze", "open-loop", series, Serve.result_to_json r)
  in
  let scenarios = pmap (fun f -> f ()) [ closed; serve ] in
  List.iter
    (fun (name, _, series, _) ->
      List.iter
        (fun (t, label) -> Printf.printf "  [%s] mark @%-6d %s\n%!" name t label)
        (Series.marks series);
      let ws = Series.windows series in
      let peak = ref 0 in
      Array.iteri
        (fun i w ->
          if
            w.Series.w_snap.Series.c_tag_overflows
            > ws.(!peak).Series.w_snap.Series.c_tag_overflows
          then peak := i)
        ws;
      let w = ws.(!peak) in
      Printf.printf
        "  [%s] %d windows of %d cycles; peak window [%d,%d): %d tag \
         overflows, %d spurious validation failures, %d ops\n%!"
        name (Array.length ws) timeline_window w.Series.w_t0
        (w.Series.w_t0 + timeline_window)
        w.Series.w_snap.Series.c_tag_overflows w.Series.w_validate_spurious
        w.Series.w_ops)
    scenarios;
  List.map
    (fun (name, mode, series, result) ->
      Json.Obj
        [
          ("scenario", Json.String name);
          ("mode", Json.String mode);
          ("backend", Json.String "hoh-list");
          ("fault_spec", Json.String fault);
          ("series", Series.to_json series);
          ("result", result);
        ])
    scenarios

(* ------------------------------------------------------------------ *)
(* The verdict table: each claim of EXPERIMENTS.md as one row, checked on
   the JSON rows of the panels that ran before it. A claim holds when the
   ratio other/base exceeds [min_ratio] at every point it covers. Its
   stated status is what EXPERIMENTS.md says of it; a computed verdict
   that differs, in either direction, makes the bench exit 1. *)

type status = Holds | Not_reproduced of string

type claim = {
  source : string;
  paper : string;  (* the size the source states, shown beside the ratio *)
  base : string;
  other : string;
  covers : string;
  min_ratio : float;
  stated : status;
  panel : string;
  (* Each covered point as (label, base value, other value), read from the
     rows of [panel]. *)
  points : Json.t list -> (string * float * float) list;
}

let verdict_mismatches = ref 0

let num path j =
  match List.fold_left (fun j k -> Option.bind j (Json.member k)) (Some j) path with
  | Some (Json.Float x) -> x
  | Some (Json.Int n) -> float_of_int n
  | _ -> failwith ("bench summary: no number at " ^ String.concat "." path)

(* The row of [panel] whose fields include every (key, value) of [where]. *)
let row panel where rows =
  let matches j = List.for_all (fun (k, v) -> Json.member k j = Some v) where in
  match List.find_opt matches rows with
  | Some j -> j
  | None ->
      failwith
        (Printf.sprintf "bench summary: no %s row with %s" panel
           (String.concat ", " (List.map (fun (k, v) -> k ^ "=" ^ Json.to_string v) where)))

let throughput_of = num [ "result"; "throughput_per_kcycle" ]

(* A figure's [other] vs [base] throughput at every thread count >= [from]. *)
let fig_claim ~source ~paper panel ~base ~other ~from ?(min_ratio = 1.0) stated =
  let curve series impl =
    match Json.member "points" (row panel [ ("impl", Json.String impl) ] series) with
    | Some (Json.List ps) ->
        List.filter_map
          (fun p ->
            let t = int_of_float (num [ "threads" ] p) in
            if t >= from then Some (t, throughput_of p) else None)
          ps
    | _ -> failwith (Printf.sprintf "bench summary: no %s points for %s" panel impl)
  in
  {
    source; paper; base; other; min_ratio; stated; panel;
    covers = Printf.sprintf "t >= %d" from;
    points =
      (fun series ->
        let b = curve series base and o = curve series other in
        if List.map fst b <> List.map fst o then
          failwith
            (Printf.sprintf "bench summary: %s and %s differ in thread counts in %s" base other
               panel);
        List.map2 (fun (t, b) (_, o) -> (Printf.sprintf "t%d" t, b, o)) b o);
  }

(* One row's throughput against another's in a rows panel: the rows
   match [where] and differ in [key] ([base] vs [other]), at one point. *)
let row_claim ~source ?(paper = "-") panel ?(where = []) key ~base ~other ~covers ~at
    ?(min_ratio = 1.0) stated =
  let thr v rows = throughput_of (row panel ((key, Json.String v) :: where) rows) in
  {
    source; paper; base; other; covers; min_ratio; stated; panel;
    points = (fun rows -> [ (at, thr base rows, thr other rows) ]);
  }

let claims =
  [
    fig_claim ~source:"Fig 2" ~paper:"1.10-1.30x" "fig2" ~base:"harris-list"
      ~other:"hoh-list" ~from:2 Holds;
    fig_claim ~source:"Fig 2" ~paper:"1.10-1.30x" "fig2" ~base:"harris-list"
      ~other:"vas-list" ~from:2
      (Not_reproduced "VAS trails Harris at t16 (0.994x), as in every committed run");
    fig_claim ~source:"Fig 5" ~paper:"1.10-1.30x" "fig5" ~base:"harris-list"
      ~other:"hoh-list" ~from:2 Holds;
    fig_claim ~source:"Fig 6" ~paper:"up to 2x" "fig6" ~base:"llx-abtree(4,8)"
      ~other:"hoh-abtree(4,8)" ~from:1 Holds;
    fig_claim ~source:"Fig 7" ~paper:"up to 2x" "fig7" ~base:"llx-abtree(4,8)"
      ~other:"hoh-abtree(4,8)" ~from:1 Holds;
    fig_claim ~source:"Fig 8" ~paper:"up to 1.5x" "fig8" ~base:"norec" ~other:"norec-tagged"
      ~from:4 ~min_ratio:1.05
      (Not_reproduced
         "conflict evidence sticky across RemoveTag defeats the seqlock re-tag, so \
          tagged reads demote to value-based validation");
    {
      source = "Section 6"; paper = "< 1% spurious"; base = "validates"; other = "non-spurious";
      covers = "every workload"; min_ratio = 0.99; stated = Holds; panel = "spurious";
      points =
        List.map (fun r ->
            let v = num [ "validates" ] r in
            ( (match Json.member "workload" r with Some (Json.String w) -> w | _ -> "?"),
              v, v -. num [ "validate_failures_spurious" ] r ));
    };
    row_claim ~source:"Ablation" "ablation" "config" ~base:"tag=1 validate=1"
      ~other:"tag=0 validate=0 (default)" ~covers:"HoH list" ~at:"t16" Holds;
    row_claim ~source:"Ablation" "ablation" "config" ~base:"IAS elevates all sharers"
      ~other:"tag-targeted IAS (default)" ~covers:"HoH abtree" ~at:"t16" Holds;
    row_claim ~source:"Ablation" "ablation" "config" ~base:"32" ~other:"256"
      ~covers:"vacation, Max_Tags" ~at:"t16" ~min_ratio:1.15
      (Not_reproduced "its gain went with Fig 8's: tagged reads demote whatever Max_Tags is");
  ]
  @ List.map
      (fun (base, other) ->
        row_claim ~source:"Contention" "contention" "policy"
          ~where:
            [ ("backend", Json.String "hoh-list"); ("threads", Json.Int 64);
              ("theta", Json.Float 2.0) ]
          ~base ~other ~covers:"hoh-list theta 2.0" ~at:"t64" Holds)
      [ ("backoff", "politeness"); ("immediate", "backoff") ]

let status_name = function Holds -> "holds" | Not_reproduced _ -> "not reproduced"

let summary rows_of =
  print_endline "\n=== Verdicts: the paper's claims on this run ===";
  (* Per claim, when its panel ran: the smallest ratio, where it was
     found, and the computed verdict. *)
  let checked =
    List.map
      (fun c ->
        ( c,
          Option.map
            (fun rows ->
              let at, ratio =
                List.fold_left
                  (fun (at, m) (label, b, o) -> if o /. b < m then (label, o /. b) else (at, m))
                  ("", infinity) (c.points rows)
              in
              let holds = ratio > c.min_ratio in
              if holds <> (c.stated = Holds) then incr verdict_mismatches;
              (at, ratio, status_name (if holds then Holds else Not_reproduced "")))
            (rows_of c.panel) ))
      claims
  in
  let claim_text c =
    if c.min_ratio = 1.0 then Printf.sprintf "%s > %s" c.other c.base
    else Printf.sprintf "%s > %.2fx %s" c.other c.min_ratio c.base
  in
  Report.table ~title:"Claims (other/base at every covered point must exceed the minimum)"
    ~columns:[ "source"; "claim"; "covers"; "paper"; "measured min"; "stated"; "verdict" ]
    (List.map
       (fun (c, m) ->
         [ c.source; claim_text c; c.covers; c.paper ]
         @
         match m with
         | None -> [ "-"; status_name c.stated; "(skipped)" ]
         | Some (at, ratio, v) ->
             [
               Printf.sprintf "%.3fx at %s" ratio at;
               status_name c.stated;
               (if v = status_name c.stated then v else v ^ " (MISMATCH)");
             ])
       checked);
  List.map
    (fun (c, m) ->
      Json.Obj
        ([
           ("claim", Json.String (claim_text c));
           ("source", Json.String c.source);
           ("base", Json.String c.base);
           ("other", Json.String c.other);
           ("covers", Json.String c.covers);
           ("paper", Json.String c.paper);
           ("min_ratio", Json.Float c.min_ratio);
           ("stated", Json.String (status_name c.stated));
         ]
        @ (match c.stated with
          | Holds -> []
          | Not_reproduced why -> [ ("stated_reason", Json.String why) ])
        @
        (* Never a bare null (json_check enforces this). *)
        match m with
        | Some (at, ratio, v) ->
            [
              ("measured_min_ratio", Json.Float ratio);
              ("at", Json.String at);
              ("verdict", Json.String v);
            ]
        | None ->
            [
              ("skipped", Json.Bool true);
              ("reason", Json.String (c.panel ^ " not collected in this run selection"));
            ]))
    checked

(* ------------------------------------------------------------------ *)
(* The registry: every panel, in run order, with the words that select it
   (the first is its name) and the top-level JSON section it fills. A
   panel's run function gets the JSON rows of the panels that ran before
   it, by panel name, and returns its own. *)

type panel = {
  names : string list;
  section : string;
  run : (string -> Json.t list option) -> Json.t list;
}

let panels =
  let fig names ~banner ?throughput_title ~prefix impls =
    {
      names;
      section = "figures";
      run = figure ~banner ?throughput_title ~prefix impls;
    }
  in
  let rows name ?(section = name) run =
    { names = [ name ]; section; run }
  in
  [
    fig [ "fig2"; "fig4" ] ~banner:"Figures 2 & 4: linked lists, 35i/35d/30c"
      ~throughput_title:"Figure 2 — list throughput vs threads (35/35/30)"
      ~prefix:"Figure 4 — lists (35/35/30)"
      (lists ~insert_pct:35 ~delete_pct:35);
    fig [ "fig5" ] ~banner:"Figure 5: linked lists, 15i/15d/70c"
      ~prefix:"Figure 5 — lists (15/15/70)"
      (lists ~insert_pct:15 ~delete_pct:15);
    fig [ "fig6" ] ~banner:"Figure 6: (a,b)-trees, 35i/35d/30c"
      ~prefix:"Figure 6 — (a,b)-trees (35/35/30)"
      (trees ~insert_pct:35 ~delete_pct:35);
    fig [ "fig7" ] ~banner:"Figure 7: (a,b)-trees, 15i/15d/70c"
      ~prefix:"Figure 7 — (a,b)-trees (15/15/70)"
      (trees ~insert_pct:15 ~delete_pct:15);
    fig [ "fig8" ] ~banner:"Figure 8: STAMP vacation on NOrec (-n4 -q60 -u90 -r16384)"
      ~prefix:"Figure 8 — vacation"
      (List.map vacation_impl [ (module Mt_stm.Norec); (module Mt_stm.Norec_tagged) ]);
    rows "spurious" spurious;
    rows "ablation" ablation;
    rows "latency" latency;
    rows "store" store;
    rows "contention" contention;
    rows "timeline" ~section:"timeseries" timeline;
    rows "summary" ~section:"headline" summary;
  ]

(* The schema-v5 document, with its sections in this fixed order whether
   or not their panels ran ("figures" is keyed by panel name, every other
   section concatenates its panels' rows). *)
let document ran =
  let of_section key =
    List.filter_map
      (fun (p, rows) -> if p.section = key then Some (List.hd p.names, rows) else None)
      ran
  in
  Bench_doc.make ~generator:"bench/main.exe"
    (("quick", Json.Bool !quick)
    :: ("figures",
        Json.Obj
          (List.map (fun (name, js) -> (name, Json.List js)) (of_section "figures")))
    :: List.map
         (fun key -> (key, Json.List (List.concat_map snd (of_section key))))
         [ "spurious"; "ablation"; "headline"; "latency"; "store"; "contention";
           "timeseries" ])

let () =
  let rec parse json words = function
    | "--json" :: file :: rest -> parse (Some file) words rest
    | "--json" :: [] -> failwith "bench: --json requires a file argument"
    | "--jobs" :: n :: rest -> (
        match int_of_string_opt n with
        | Some n when n >= 0 ->
            jobs := n;
            parse json words rest
        | _ -> failwith "bench: --jobs requires a non-negative integer")
    | "--jobs" :: [] -> failwith "bench: --jobs requires an integer argument"
    | w :: rest -> parse json (w :: words) rest
    | [] -> (json, List.rev words)
  in
  let json_file, words = parse None [] (List.tl (Array.to_list Sys.argv)) in
  quick := List.mem "quick" words;
  let words = List.filter (fun w -> w <> "quick") words in
  let known = List.concat_map (fun p -> p.names) panels in
  (match List.filter (fun w -> not (List.mem w known)) words with
  | [] -> ()
  | unknown ->
      Printf.eprintf
        "bench: not a panel or option: %s\nvalid words: %s quick --jobs N --json FILE\n"
        (String.concat ", " unknown) (String.concat " " known);
      exit 2);
  let t0 = Unix.gettimeofday () in
  let ran =
    List.fold_left
      (fun ran p ->
        if words <> [] && not (List.exists (fun n -> List.mem n words) p.names) then ran
        else
          let rows_of name =
            List.find_map (fun (p, rows) -> if List.hd p.names = name then Some rows else None) ran
          in
          ran @ [ (p, p.run rows_of) ])
      [] panels
  in
  Option.iter
    (fun file ->
      print_newline ();
      Bench_doc.write file (document ran))
    json_file;
  Printf.eprintf "Total bench wall time: %.1f s\n" (Unix.gettimeofday () -. t0);
  if !verdict_mismatches > 0 then begin
    Printf.eprintf "bench: %d verdicts differ from their stated status\n" !verdict_mismatches;
    exit 1
  end
