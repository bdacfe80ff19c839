(* Tests for the time-series telemetry layer and the regression
   sentinel: window partition identities (the series is a partition of
   the run, not a resample), the determinism contract (byte-identical
   with trace retention on or off, for any --jobs value, across repeated
   runs), squeeze-pulse visibility (an injected Max_Tags squeeze shows
   up as an overflow/abort spike exactly in the windows overlapping the
   pulse, with quiet windows on both sides), request conservation
   between the serve layer's result counters and the per-window series,
   Perfetto flow events for per-request causal chains, hot-line profiler
   determinism, and the sentinel's exact differ on the committed
   BENCH_quick.json baseline. *)

module Obs = Mt_obs.Obs
module Series = Mt_obs.Series
module Json = Mt_obs.Json
module Hist = Mt_obs.Hist
module Trace = Mt_obs.Trace
module Spec = Mt_workload.Spec
module Driver = Mt_workload.Driver
module Bench_doc = Mt_workload.Bench_doc
module Serve = Mt_serve.Server
module Inject = Mt_adversary.Inject
module Scenario = Mt_adversary.Scenario
module Pool = Mt_par.Pool

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let window = 5_000
let threads = 4

let spec () =
  Spec.make ~key_range:128 ~insert_pct:35 ~delete_pct:35 ~threads
    ~measure_cycles:30_000 ()

(* One closed-loop HoH-list point with a series attached; returns the
   series and the driver result. *)
let run_point ?make_policy ?(retain = false) () =
  let obs = Obs.create ~retain ~num_cores:threads () in
  let series = Series.create ~window () in
  let r =
    Driver.run_set ~obs ?make_policy ~series (module Mt_list.Hoh_list)
      (spec ())
  in
  (series, r)

let series_str s = Json.to_string (Series.to_json s)

(* ------------------------------------------------------------------ *)
(* Partition identities. *)

let test_series_partitions_ops () =
  let series, r = run_point () in
  let ws = Series.windows series in
  check_bool "several windows" true (Array.length ws > 3);
  let sum = Array.fold_left (fun a w -> a + w.Series.w_ops) 0 ws in
  check_int "window ops sum to run ops" r.Driver.ops sum;
  (* The merged per-window latency histogram is the run's histogram. *)
  check_int "latency summary count" (Hist.count r.Driver.latency)
    (Hist.count (Series.latency_summary series));
  check_string "latency summary percentiles"
    (Json.to_string (Hist.to_json r.Driver.latency))
    (Json.to_string (Hist.to_json (Series.latency_summary series)))

(* ------------------------------------------------------------------ *)
(* Determinism contract. *)

let test_series_deterministic () =
  let s1, _ = run_point () and s2, _ = run_point () in
  check_string "byte-identical across runs" (series_str s1) (series_str s2)

let test_series_retain_invariant () =
  (* The series reads the live stream, not the rings: retaining a full
     trace alongside must not change a byte of the series. *)
  let s_off, r_off = run_point ~retain:false () in
  let s_on, r_on = run_point ~retain:true () in
  check_string "retain on/off identical" (series_str s_off) (series_str s_on);
  check_int "ops unchanged" r_off.Driver.ops r_on.Driver.ops

let test_series_jobs_invariant () =
  let thunk () = series_str (fst (run_point ())) in
  let seq = Pool.map ~jobs:1 (fun f -> f ()) [ thunk; thunk ] in
  let par = Pool.map ~jobs:2 (fun f -> f ()) [ thunk; thunk ] in
  List.iter2 (check_string "jobs 1 vs 2") seq par

(* ------------------------------------------------------------------ *)
(* Squeeze-pulse visibility. *)

let test_series_squeeze_spike () =
  (* Squeeze Max_Tags to 1 over [10000, 22000): a hand-over-hand locate
     needs two live tags, so every traversal in the pulse overflows. *)
  let at = 10_000 and hold = 12_000 in
  let inj =
    match Inject.of_string (Printf.sprintf "squeeze=%d,1,%d" at hold) with
    | Ok s -> s
    | Error e -> Alcotest.fail e
  in
  let make_policy m =
    Scenario.make_policy inj ~machine:m ~seed:7 ~max_delay:0
  in
  let series, r = run_point ~make_policy () in
  (match Series.marks series with
  | [ (t1, l1); (t2, l2) ] ->
      check_string "apply mark" "squeeze(max_tags=1)" l1;
      check_string "restore mark" "squeeze-restore" l2;
      check_bool "marks ordered" true (at <= t1 && t1 < t2)
  | ms -> Alcotest.failf "expected 2 marks, got %d" (List.length ms));
  let ws = Series.windows series in
  let overflows i = ws.(i).Series.w_snap.Series.c_tag_overflows in
  let spurious i = ws.(i).Series.w_validate_spurious in
  (* Window 0 and 1 precede the pulse: clean. *)
  check_int "no overflows before pulse" 0 (overflows 0 + overflows 1);
  check_int "no spurious aborts before pulse" 0 (spurious 0 + spurious 1);
  (* Windows overlapping [at, at+hold) carry the spike. *)
  let in_pulse = ref 0 in
  Array.iteri
    (fun i w ->
      if w.Series.w_t0 < at + hold && w.Series.w_t0 + window > at then
        in_pulse := !in_pulse + overflows i)
    ws;
  check_bool "overflow spike inside pulse" true (!in_pulse > 0);
  (* The run recovers: the squeeze is spurious pressure, not damage, and
     ops still complete overall. *)
  check_bool "run still completes ops" true (r.Driver.ops > 0);
  check_bool "spurious aborts recorded" true
    (r.Driver.validate_failures_spurious > 0)

(* ------------------------------------------------------------------ *)
(* Serve-layer conservation: result counters vs series sums. *)

let test_serve_series_conservation () =
  let obs = Obs.create ~retain:false ~num_cores:3 () in
  let series = Series.create ~window () in
  let c =
    Serve.config ~workers:2 ~batch:2 ~queue_capacity:8 ~rate_per_kcycle:40.0
      ~horizon:30_000 ()
  in
  let r =
    Serve.run_set ~obs ~series (module Mt_list.Hoh_list) ~key_range:128 c
  in
  let sum f =
    Array.fold_left (fun a w -> a + f w) 0 (Series.windows series)
  in
  check_int "commits = completed" r.Serve.completed
    (sum (fun w -> w.Series.w_commits));
  check_int "dequeues = completed" r.Serve.completed
    (sum (fun w -> w.Series.w_dequeues));
  check_int "drops = dropped" r.Serve.dropped
    (sum (fun w -> w.Series.w_drops));
  (* Overload at 40 req/kcycle on 2 workers: admission must bite. *)
  check_bool "overload drops requests" true (r.Serve.dropped > 0);
  check_int "enqueues = completed (every dequeue was enqueued)"
    r.Serve.completed
    (sum (fun w -> w.Series.w_enqueues))

(* ------------------------------------------------------------------ *)
(* Perfetto flow events: each request's causal chain in the trace. *)

let test_serve_flow_events () =
  let obs = Obs.create ~num_cores:3 () in
  let c =
    Serve.config ~workers:2 ~queue_capacity:8 ~rate_per_kcycle:40.0
      ~horizon:10_000 ()
  in
  let r = Serve.run_set ~obs (module Mt_list.Hoh_list) ~key_range:128 c in
  check_bool "some requests served" true (r.Serve.completed > 0);
  let s = Json.to_string (Trace.to_json obs) in
  let contains sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  check_bool "flow start (arrive)" true (contains {|"ph":"s"|});
  check_bool "flow step (enqueue/dequeue)" true (contains {|"ph":"t"|});
  check_bool "flow finish (commit/drop)" true (contains {|"ph":"f"|});
  check_bool "binding point on finish" true (contains {|"bp":"e"|});
  check_bool "req category" true (contains {|"cat":"req"|});
  check_bool "per-core drop counters exported" true
    (contains {|"dropped_per_core"|})

(* ------------------------------------------------------------------ *)
(* Hist.merge bucket exactness. *)

let test_hist_merge_bucket_exact () =
  (* Merging histograms is exactly histogramming the concatenation:
     same buckets, same counts, same percentiles, byte-identical JSON. *)
  let a = Hist.create () and b = Hist.create () and all = Hist.create () in
  let v = ref 1 in
  for i = 0 to 499 do
    v := 1 + (!v * 7919 mod 100_000);
    Hist.add (if i mod 2 = 0 then a else b) !v;
    Hist.add all !v
  done;
  Hist.merge ~into:a b;
  check_string "merged = concatenated"
    (Json.to_string (Hist.to_json all))
    (Json.to_string (Hist.to_json a));
  (* Merging an empty histogram is the identity. *)
  let before = Json.to_string (Hist.to_json a) in
  Hist.merge ~into:a (Hist.create ());
  check_string "merge empty = identity" before (Json.to_string (Hist.to_json a))

(* ------------------------------------------------------------------ *)
(* Hot-line contention profiler: determinism and top-K stability. *)

let hot_run () =
  let obs = Obs.create ~retain:false ~num_cores:threads () in
  let r = Driver.run_set ~obs (module Mt_list.Hoh_list) (spec ()) in
  check_bool "ops" true (r.Driver.ops > 0);
  obs

let test_hot_lines_deterministic () =
  let lines obs = Json.to_string (Trace.hot_lines_json ~top:8 obs) in
  let seq = Pool.map ~jobs:1 (fun f -> lines (f ())) [ hot_run; hot_run ] in
  let par = Pool.map ~jobs:2 (fun f -> lines (f ())) [ hot_run; hot_run ] in
  (match seq with
  | [ x; y ] -> check_string "repeated runs identical" x y
  | _ -> assert false);
  List.iter2 (check_string "jobs 1 vs 2") seq par

let test_hot_lines_topk_prefix () =
  (* top-3 must be exactly the first three of top-8 (stable ranking,
     ties broken by line number — no resort across cutoffs). *)
  let obs = hot_run () in
  let top8 = Obs.hot_lines ~top:8 obs in
  let top3 = Obs.hot_lines ~top:3 obs in
  check_int "top3 size" 3 (List.length top3);
  List.iteri
    (fun i (h : Obs.hot_line) ->
      let h8 = List.nth top8 i in
      check_int (Printf.sprintf "line %d" i) h8.Obs.hl_line h.Obs.hl_line;
      check_int (Printf.sprintf "invals %d" i) h8.Obs.hl_invals h.Obs.hl_invals)
    top3

(* ------------------------------------------------------------------ *)
(* The regression sentinel's exact differ (Bench_doc.diff), on the
   committed baseline. dune copies BENCH_quick.json one level above the
   test executable. *)

let baseline () =
  let dir = Filename.dirname Sys.executable_name in
  let ic = open_in_bin (Filename.concat dir "../BENCH_quick.json") in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Json.of_string s

let diff_lines old_doc new_doc =
  List.map (fun (p, o, n) -> p ^ ": " ^ o ^ " -> " ^ n) (Bench_doc.diff old_doc new_doc)

let check_lines = Alcotest.(check (list string))

let test_compare_self () =
  let b = baseline () in
  check_lines "no differing leaves" [] (diff_lines b b)

let test_compare_regression () =
  let doc thr =
    Json.Obj
      [ ("impl", Json.String "hoh-list");
        ("result", Json.Obj [ ("throughput_per_kcycle", Json.Float thr) ]) ]
  in
  check_lines "one ulp down is reported with its path"
    [ ".result.throughput_per_kcycle: 10.0 -> 9.9999999999999982" ]
    (diff_lines (doc 10.0) (doc (Float.pred 10.0)))

(* The first numeric leaf of [j] in document order, moved by one ulp (one
   for an integer), with the path Bench_doc.diff names it by. *)
let rec bump path = function
  | Json.Int n -> Some (Json.Int (n + 1), path)
  | Json.Float x -> Some (Json.Float (Float.succ x), path)
  | Json.Obj kvs ->
      let rec go acc = function
        | [] -> None
        | (k, v) :: rest -> (
            match bump (path ^ "." ^ k) v with
            | Some (v', p) -> Some (Json.Obj (List.rev_append acc ((k, v') :: rest)), p)
            | None -> go ((k, v) :: acc) rest)
      in
      go [] kvs
  | Json.List l ->
      let rec go i acc = function
        | [] -> None
        | v :: rest -> (
            match bump (Printf.sprintf "%s[%d]" path i) v with
            | Some (v', p) -> Some (Json.List (List.rev_append acc (v' :: rest)), p)
            | None -> go (i + 1) (v :: acc) rest)
      in
      go 0 [] l
  | _ -> None

(* The document's top-level sections: its object- and list-valued keys. *)
let sections doc =
  match doc with
  | Json.Obj kvs ->
      List.filter (fun (_, v) -> match v with Json.Obj _ | Json.List _ -> true | _ -> false) kvs
  | _ -> Alcotest.fail "baseline is not an object"

let replace_section doc key v =
  match doc with
  | Json.Obj kvs -> Json.Obj (List.map (fun (k, v0) -> (k, if k = key then v else v0)) kvs)
  | _ -> assert false

let test_compare_ulp_per_section () =
  let b = baseline () in
  Alcotest.(check (list string))
    "every section"
    [ "figures"; "spurious"; "ablation"; "headline"; "latency"; "store"; "contention";
      "timeseries" ]
    (List.map fst (sections b));
  List.iter
    (fun (key, v) ->
      match bump ("." ^ key) v with
      | None -> Alcotest.failf "section %s has no numeric leaf" key
      | Some (v', path) -> (
          match Bench_doc.diff b (replace_section b key v') with
          | [ (p, o, n) ] ->
              check_string (key ^ " path") path p;
              check_bool (key ^ " old <> new") true (o <> n)
          | d -> Alcotest.failf "section %s: %d differing leaves, want 1" key (List.length d)))
    (sections b)

let test_compare_structural () =
  let b = baseline () in
  let rows key =
    match List.assoc key (sections b) with Json.List l -> l | _ -> Alcotest.fail key
  in
  (* A key missing from the first contention row. *)
  let first_without_cm =
    match rows "contention" with
    | Json.Obj kvs :: rest -> Json.List (Json.Obj (List.remove_assoc "cm" kvs) :: rest)
    | _ -> Alcotest.fail "no contention row"
  in
  (match Bench_doc.diff b (replace_section b "contention" first_without_cm) with
  | [ (p, _, "(missing)") ] -> check_string "missing key path" ".contention[0].cm" p
  | d -> Alcotest.failf "missing key: %d differing leaves" (List.length d));
  (* One row fewer. *)
  let n = List.length (rows "spurious") in
  let shorter = Json.List (List.filteri (fun i _ -> i < n - 1) (rows "spurious")) in
  check_lines "list length"
    [ Printf.sprintf ".spurious.length: %d -> %d" n (n - 1) ]
    (diff_lines b (replace_section b "spurious" shorter))

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "series"
    [
      ( "series",
        [
          Alcotest.test_case "partitions ops + latency" `Quick
            test_series_partitions_ops;
          Alcotest.test_case "deterministic" `Quick test_series_deterministic;
          Alcotest.test_case "retain on/off invariant" `Quick
            test_series_retain_invariant;
          Alcotest.test_case "jobs invariant" `Quick test_series_jobs_invariant;
          Alcotest.test_case "squeeze spike visible" `Quick
            test_series_squeeze_spike;
        ] );
      ( "serve",
        [
          Alcotest.test_case "series conservation" `Quick
            test_serve_series_conservation;
          Alcotest.test_case "perfetto flow events" `Quick
            test_serve_flow_events;
        ] );
      ( "hist",
        [
          Alcotest.test_case "merge bucket-exact" `Quick
            test_hist_merge_bucket_exact;
        ] );
      ( "hot",
        [
          Alcotest.test_case "deterministic across jobs" `Quick
            test_hot_lines_deterministic;
          Alcotest.test_case "top-K prefix stable" `Quick
            test_hot_lines_topk_prefix;
        ] );
      ( "compare",
        [
          Alcotest.test_case "self compare ok" `Quick test_compare_self;
          Alcotest.test_case "regression detected" `Quick
            test_compare_regression;
          Alcotest.test_case "one ulp fails in every section" `Quick
            test_compare_ulp_per_section;
          Alcotest.test_case "structural mismatches" `Quick
            test_compare_structural;
        ] );
    ]
