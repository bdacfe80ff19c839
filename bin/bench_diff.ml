(* Regression sentinel CLI: exact comparison of a committed BENCH JSON
   baseline with a freshly generated document.

   Usage:  bench_diff BASELINE CURRENT

   Prints the first differing leaves as "path: old -> new" and exits 1 on
   any difference; 2 on usage or parse errors. The simulator is
   deterministic, so there is no tolerance: a PR that moves a simulated
   metric regenerates the baseline (Mt_workload.Bench_doc.diff is the
   engine). *)

module Json = Mt_obs.Json

let shown = 20

let fail fmt = Printf.ksprintf (fun s -> prerr_endline s; exit 2) fmt

let read_json path =
  let ic = try open_in_bin path with Sys_error e -> fail "%s" e in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  try Json.of_string s
  with Json.Parse_error msg -> fail "%s: invalid JSON: %s" path msg

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [ base; cur ] ->
      let diffs = Mt_workload.Bench_doc.diff (read_json base) (read_json cur) in
      List.iteri
        (fun i (path, o, n) -> if i < shown then Printf.printf "%s: %s -> %s\n" path o n)
        diffs;
      let n = List.length diffs in
      if n > shown then Printf.printf "... %d more\n" (n - shown);
      Printf.printf "bench_diff: %d differing leaves\n" n;
      if n > 0 then exit 1
  | _ -> fail "usage: bench_diff BASELINE CURRENT"
