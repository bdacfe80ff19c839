(* Minimal JSON validator for CI: parses each file argument with the
   strict Mt_obs.Json parser and optionally asserts the schema.

   Usage:  json_check [--bench|--trace] FILE...

   --bench  additionally requires a top-level object with an integer
            "schema_version" of at least Mt_workload.Bench_doc's (5):
            older emitters must be regenerated, not re-validated. The
            document may contain no bare nulls (a skipped measurement is
            an explicit {"skipped": true, "reason": ...}), and every
            object is checked against the point shapes whose marker keys
            it carries:
            - benchmark point ("impl" and "ops"): a self-describing
              "spec" object (key_range, init_fill, insert_pct,
              delete_pct, threads, warmup_cycles, measure_cycles, seed);
            - service point ("backend" and "goodput_per_kcycle"): a
              "serve" configuration object;
            - store point ("backend" and "mix"): integer mix percentages
              summing to 100, a "result" object and a "store" counters
              object (txn commit/abort, per-cause retry split, scan
              validation, per-shard routing);
            - contention point ("policy" and "theta"): a "result" object
              and a "cm" object with non-negative integer waits and
              wait_cycles;
            - verdict row ("claim"): a numeric "min_ratio", a "stated"
              status ("holds", or "not reproduced" with a
              "stated_reason"), and either a numeric
              "measured_min_ratio" with a "verdict" equal to the stated
              status, or the skip marker;
            - time-series object ("windows"): a full Series export
              (window geometry, marks, every per-window panel including
              "store" and "cm", a latency summary).
   --trace  additionally requires a "traceEvents" array where every
            element has "ph", "ts" and "pid" fields (the Chrome
            trace-event contract Perfetto relies on). *)

module Json = Mt_obs.Json

let fail fmt = Printf.ksprintf (fun s -> prerr_endline s; exit 1) fmt

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* Every field a point's "spec" object must carry to be replayable. *)
let spec_fields =
  [
    "key_range"; "init_fill"; "insert_pct"; "delete_pct"; "threads";
    "warmup_cycles"; "measure_cycles"; "seed";
  ]

let serve_fields =
  [
    "workers"; "batch"; "queue_capacity"; "queues"; "admission"; "arrival";
    "offered_per_kcycle"; "horizon_cycles"; "seed";
  ]

let series_fields =
  [ "window_cycles"; "n_windows"; "marks"; "windows"; "latency_summary" ]

let window_fields =
  [
    "t0"; "t1"; "ops"; "aborts"; "tags"; "mem"; "heat"; "serve"; "store";
    "cm"; "latency";
  ]

(* The counters object every sharded-store point must carry at v4. *)
let store_stat_fields =
  [
    "point_ops"; "txn_commits"; "txn_aborts"; "txn_sub_ops"; "txn_retries";
    "txn_retries_locked"; "txn_retries_version"; "scans"; "scan_collects";
    "scan_tag_fallbacks"; "scan_shard_retries"; "shard_ops"; "imbalance";
  ]

let require path what obj fields =
  List.iter
    (fun f -> if Json.member f obj = None then fail "%s: %s lacks %S" path what f)
    fields

let check_store_point path j =
  (match
     (Json.member "point_pct" j, Json.member "txn_pct" j, Json.member "scan_pct" j)
   with
  | Some (Json.Int p), Some (Json.Int t), Some (Json.Int s) when p + t + s = 100 -> ()
  | _ -> fail "%s: store point mix percentages must be integers summing to 100" path);
  (match Json.member "result" j with
  | Some (Json.Obj _) -> ()
  | _ -> fail "%s: store point lacks a \"result\" object" path);
  match Json.member "store" j with
  | Some (Json.Obj _ as st) -> require path "store point counters" st store_stat_fields
  | _ -> fail "%s: store point lacks a \"store\" counters object" path

let check_contention_point path j =
  (match Json.member "result" j with
  | Some (Json.Obj _) -> ()
  | _ -> fail "%s: contention point lacks a \"result\" object" path);
  match Json.member "cm" j with
  | Some (Json.Obj _ as cm) ->
      List.iter
        (fun f ->
          match Json.member f cm with
          | Some (Json.Int n) when n >= 0 -> ()
          | _ -> fail "%s: contention point cm.%s must be a non-negative integer" path f)
        [ "waits"; "wait_cycles" ]
  | _ -> fail "%s: contention point lacks a \"cm\" object" path

let check_verdict_row path j =
  let str k = match Json.member k j with Some (Json.String s) -> Some s | _ -> None in
  (match Json.member "min_ratio" j with
  | Some (Json.Float _) -> ()
  | _ -> fail "%s: verdict row lacks a numeric \"min_ratio\"" path);
  (match (str "stated", str "stated_reason") with
  | Some "holds", None | Some "not reproduced", Some _ -> ()
  | _ ->
      fail "%s: verdict row needs stated \"holds\" or \"not reproduced\" with a reason"
        path);
  match (Json.member "measured_min_ratio" j, Json.member "skipped" j) with
  | Some (Json.Float _), _ ->
      if str "verdict" <> str "stated" then
        fail "%s: verdict %s differs from the stated status" path
          (Option.value ~default:"(none)" (str "verdict"))
  | _, Some (Json.Bool true) ->
      if str "reason" = None then fail "%s: skipped verdict row lacks a \"reason\"" path
  | _ -> fail "%s: verdict row needs a numeric measured_min_ratio or skipped:true" path

let check_series path j ws =
  require path "time-series object" j series_fields;
  (match Json.member "window_cycles" j with
  | Some (Json.Int w) when w > 0 -> ()
  | _ -> fail "%s: window_cycles must be a positive integer" path);
  List.iteri (fun i w -> require path (Printf.sprintf "windows[%d]" i) w window_fields) ws

(* Walk the whole document. No bare nulls anywhere (a skipped measurement
   is an explicit {"skipped": true, "reason": ...}); every object is
   checked against each point shape it carries the marker keys of. *)
let rec check_points path j =
  match j with
  | Json.Null -> fail "%s: bare null (a skipped measurement must be explicit)" path
  | Json.Obj fields ->
      let has k = Json.member k j <> None in
      (match (Json.member "backend" j, Json.member "mix" j) with
      | Some (Json.String _), Some (Json.String _) -> check_store_point path j
      | _ -> ());
      (match (Json.member "policy" j, Json.member "theta" j) with
      | Some (Json.String _), Some (Json.Float _ | Json.Int _) ->
          check_contention_point path j
      | _ -> ());
      if has "claim" then check_verdict_row path j;
      (match Json.member "windows" j with
      | Some (Json.List ws) -> check_series path j ws
      | Some _ -> fail "%s: \"windows\" must be a list" path
      | None -> ());
      if has "impl" && has "ops" then begin
        match Json.member "spec" j with
        | Some (Json.Obj _ as spec) ->
            require path "benchmark point spec" spec spec_fields
        | _ -> fail "%s: benchmark point lacks a \"spec\" object" path
      end;
      if has "backend" && has "goodput_per_kcycle" then begin
        match Json.member "serve" j with
        | Some (Json.Obj _ as serve) ->
            require path "service point serve config" serve serve_fields
        | _ -> fail "%s: service point lacks a \"serve\" object" path
      end;
      List.iter (fun (_, v) -> check_points path v) fields
  | Json.List l -> List.iter (check_points path) l
  | _ -> ()

let check_bench path j =
  match Json.member "schema_version" j with
  | Some (Json.Int v) when v < Mt_workload.Bench_doc.schema_version ->
      fail
        "%s: schema_version %d rejected (v%d required — regenerate with a current \
         bench)"
        path v Mt_workload.Bench_doc.schema_version
  | Some (Json.Int _) -> check_points path j
  | _ -> fail "%s: missing integer schema_version" path

let check_trace path j =
  match Json.member "traceEvents" j with
  | Some (Json.List evs) ->
      List.iteri
        (fun i ev ->
          List.iter
            (fun field ->
              if Json.member field ev = None then
                fail "%s: traceEvents[%d] lacks %S" path i field)
            [ "ph"; "pid" ];
          (* Metadata records ("M") carry no timestamp; everything else
             must. *)
          match (Json.member "ph" ev, Json.member "ts" ev) with
          | Some (Json.String "M"), _ -> ()
          | _, Some _ -> ()
          | _, None -> fail "%s: traceEvents[%d] lacks \"ts\"" path i)
        evs
  | _ -> fail "%s: missing traceEvents array" path

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let mode, files =
    match args with
    | "--bench" :: rest -> (`Bench, rest)
    | "--trace" :: rest -> (`Trace, rest)
    | rest -> (`Any, rest)
  in
  if files = [] then fail "usage: json_check [--bench|--trace] FILE...";
  List.iter
    (fun path ->
      let j =
        try Json.of_string (read_file path) with
        | Json.Parse_error msg -> fail "%s: invalid JSON: %s" path msg
        | Sys_error e -> fail "%s" e
      in
      (match mode with
      | `Bench -> check_bench path j
      | `Trace -> check_trace path j
      | `Any -> ());
      Printf.printf "%s: OK\n" path)
    files
