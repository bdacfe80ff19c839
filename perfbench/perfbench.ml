(* perfbench — the repository benchmark.

   Usage:
     perfbench.exe --workload NAME --seed N --seconds S --trace 0|1
     perfbench.exe --list-metrics

   Two clocks are measured separately. Simulated cycles are a pure function
   of the seed: every simulated metric repeats exactly for a fixed seed.
   Host wall-clock is the simulator's own speed: a run repeats the same
   seeded experiment (a fresh machine and structure each time) until
   [--seconds] have passed and reports medians. Since the host is shared,
   the measured phase is interleaved with a fixed reference kernel, and
   its speed is reported relative to the kernel's at the same moments.

   [--trace 0] prints the end-to-end metrics. [--trace 1] alternates
   untraced and traced repetitions of the same experiment, requires their
   simulated fingerprints to be identical, checks the simulated-cycle
   ledger, runs the single-fiber host-cost ladder and prints the per-layer
   metrics. The last line of standard output is one JSON object.

   Every layer is driven from outside through its public interface: the
   closed loop through [Driver.run_custom], the open loop through
   [Server.run], with this file's own setup and op closures, store calls,
   probed backend/STM modules, a [retain:false] Obs sink with a counting
   tap, [Machine.total_stats], [Store.stats] and [Gc]. *)

open Mt_sim
open Mt_core
module Obs = Mt_obs.Obs
module Hist = Mt_obs.Hist
module Json = Mt_obs.Json
module Driver = Mt_workload.Driver
module Spec = Mt_workload.Spec
module Server = Mt_serve.Server
module Store = Mt_store.Store
module Backend = Mt_store.Backend
module Hoh_list = Mt_list.Hoh_list
module Stm = Mt_stm.Norec_tagged

exception Check_failed of string

let check cond fmt =
  Printf.ksprintf (fun msg -> if not cond then raise (Check_failed msg)) fmt

let wall = Unix.gettimeofday

(* ------------------------------------------------------------------ *)
(* Reference kernel

   The host is shared, and its speed on code of the simulator's kind moves
   by 20-40% within seconds as other tenants' load comes and goes. So host
   time is gauged against a fixed reference kernel timed at the same
   moments: a small set-associative cache model with LRU replacement and
   a hashed directory (array scans and data-dependent branches, like the
   simulator's own work, but no code of the repository and no
   allocation). The measured phase is interleaved with it: after every
   [every]-th completed op or request, [call_steps] steps, whose host time
   is kept apart from the phase's. Set-up is bracketed by it. The kernel's
   state is reset at the start of each measured phase, so every
   repetition runs the same kernel work.

   Host seconds are reported in reference seconds: scaled by [ref_ns]
   over the kernel's nanoseconds per step at the same moments, so they
   read as seconds on a host where the kernel takes [ref_ns] per step. *)

let ref_ns = 40.0

module Ref_kernel = struct
  let ways = 8
  let sets = 512
  let tags = Array.make (ways * sets) (-1)
  let ages = Array.make (ways * sets) 0
  let dir = Array.make 4096 0
  let x = ref 0
  let clock = ref 0
  let call_steps = 4096
  let every = ref 1
  let completed = ref 0
  let seconds = [| 0.0 |]  (* a float array: updating it allocates nothing *)
  let steps = ref 0

  let step () =
    x := ((!x * 1103515245) + 12345) land 0x3FFFFFFF;
    let addr = (!x lsr 4) land 0xFFFFF in
    let base = addr land (sets - 1) * ways and tag = addr lsr 9 in
    incr clock;
    let hit = ref (-1) and victim = ref base in
    for w = base to base + ways - 1 do
      if tags.(w) = tag then hit := w;
      if ages.(w) < ages.(!victim) then victim := w
    done;
    if !hit >= 0 then ages.(!hit) <- !clock
    else begin
      tags.(!victim) <- tag;
      ages.(!victim) <- !clock;
      let h = (addr * 0x9E3779B1) lsr 7 land (Array.length dir - 1) in
      dir.(h) <- dir.(h) + 1
    end

  let start ~every:k =
    Array.fill tags 0 (Array.length tags) (-1);
    Array.fill ages 0 (Array.length ages) 0;
    Array.fill dir 0 (Array.length dir) 0;
    x := 12345;
    clock := 0;
    every := k;
    completed := 0;
    seconds.(0) <- 0.0;
    steps := 0

  (* The host's nanoseconds per step now, from [n] steps. *)
  let gauge n =
    let t0 = wall () in
    for _ = 1 to n do
      step ()
    done;
    1e9 *. (wall () -. t0) /. float_of_int n

  (* Called after each completed op or request of the measured phase. *)
  let tick () =
    incr completed;
    if !completed mod !every = 0 then begin
      let t0 = wall () in
      for _ = 1 to call_steps do
        step ()
      done;
      seconds.(0) <- seconds.(0) +. (wall () -. t0);
      steps := !steps + call_steps
    end
end

(* Host set-up time runs from just before [Driver.run_custom] or
   [Server.run], which create the machine, to the end of the setup
   closure, in reference seconds at the kernel's mean speed just before
   and just after. *)
let t_setup_start = ref 0.0
let ns_before_setup = ref 0.0
let gauge_steps = 8192

let start_setup_clock () =
  (* Collect the previous repetition's garbage first, so that no
     repetition pays for another's. *)
  Gc.full_major ();
  ns_before_setup := Ref_kernel.gauge gauge_steps;
  t_setup_start := wall ()

let setup_ref_seconds () =
  let host_s = wall () -. !t_setup_start in
  let ns = (!ns_before_setup +. Ref_kernel.gauge gauge_steps) /. 2.0 in
  host_s *. ref_ns /. ns

(* Live major-heap megabytes, after a full collection. *)
let live_heap_mb () =
  Gc.full_major ();
  float_of_int ((Gc.stat ()).Gc.live_words * (Sys.word_size / 8)) /. 1e6
let ratio a b = if b = 0.0 then 0.0 else a /. b
let iratio a b = ratio (float_of_int a) (float_of_int b)

(* ------------------------------------------------------------------ *)
(* Statistics *)

(* A growable buffer of integer samples (simulated cycles). *)
module Samples = struct
  type t = { mutable a : int array; mutable n : int }

  let create () = { a = Array.make 1024 0; n = 0 }
  let clear t = t.n <- 0
  let count t = t.n

  let add t v =
    if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) 0 in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    t.a.(t.n) <- v;
    t.n <- t.n + 1

  let sorted t =
    let s = Array.sub t.a 0 t.n in
    Array.sort compare s;
    s

  let digest t =
    let b = Buffer.create (8 * t.n) in
    for i = 0 to t.n - 1 do
      Buffer.add_string b (string_of_int t.a.(i));
      Buffer.add_char b ','
    done;
    Digest.to_hex (Digest.string (Buffer.contents b))
end

(* Nearest-rank percentile, [permille] in 1..1000: the sample at rank
   ceil(permille/1000 * n) of the sorted samples. *)
let rank n permille = max 1 (((permille * n) + 999) / 1000)
let pct sorted permille =
  let n = Array.length sorted in
  if n = 0 then 0 else sorted.(rank n permille - 1)

(* Samples strictly beyond the percentile's rank. *)
let beyond n permille = n - rank n permille

let sorted_floats xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* Linear-interpolation quantile of sorted floats, [q] in [0,1]. *)
let quantile a q =
  let n = Array.length a in
  if n = 0 then 0.0
  else
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    let f = pos -. float_of_int i in
    if i + 1 >= n then a.(n - 1) else a.(i) +. (f *. (a.(i + 1) -. a.(i)))

let median xs = quantile (sorted_floats xs) 0.5

(* ------------------------------------------------------------------ *)
(* Per-call probes

   While [probing] is set (the measured phase of a traced repetition) each
   call into a probed structure records its simulated cycles — [Ctx.now]
   before and after, which is exact because fibers stall only inside
   simulator calls — and the failed synchronisation attempts charged to
   its core, each of which restarts the call. One fiber runs per core, so
   per-core counter deltas belong to the call alone. [struct_cycles]
   accumulates the innermost structure cycles per core for the ledger. *)

let probing = ref false
let max_cores = 64
let struct_cycles = Array.make max_cores 0

type probe = { cycles : Samples.t; mutable restarts : int }

let new_probe () = { cycles = Samples.create (); restarts = 0 }

let reset_probe p =
  Samples.clear p.cycles;
  p.restarts <- 0

let sync_failures (s : Stats.t) =
  s.validate_failures + s.vas_failures + s.ias_failures + s.cas_failures

let probed p ctx f =
  let core = Ctx.core ctx in
  let st = Machine.stats (Ctx.machine ctx) ~core in
  let f0 = sync_failures st in
  let t0 = Ctx.now ctx in
  let r = f () in
  let dt = Ctx.now ctx - t0 in
  struct_cycles.(core) <- struct_cycles.(core) + dt;
  Samples.add p.cycles dt;
  p.restarts <- p.restarts + sync_failures st - f0;
  r

let list_probe = new_probe ()
let abtree_probe = new_probe ()
let stm_probe = new_probe ()

(* The store's shard backend, probed from outside. It also remembers the
   shards it creates so the ladder can time raw backend ops. *)
let abtree_shards : Backend.Hoh_abtree.t list ref = ref []

module Probed_abtree : Backend.S = struct
  module B = Backend.Hoh_abtree

  type t = B.t

  let name = B.name

  let create ctx =
    let s = B.create ctx in
    abtree_shards := s :: !abtree_shards;
    s

  let insert ctx t k =
    if !probing then probed abtree_probe ctx (fun () -> B.insert ctx t k)
    else B.insert ctx t k

  let delete ctx t k =
    if !probing then probed abtree_probe ctx (fun () -> B.delete ctx t k)
    else B.delete ctx t k

  let contains ctx t k =
    if !probing then probed abtree_probe ctx (fun () -> B.contains ctx t k)
    else B.contains ctx t k

  let scan_plain ctx t ~lo ~hi ~budget =
    if !probing then
      probed abtree_probe ctx (fun () -> B.scan_plain ctx t ~lo ~hi ~budget)
    else B.scan_plain ctx t ~lo ~hi ~budget

  let to_list_unsafe = B.to_list_unsafe
end

(* Tagged NOrec with every transaction probed. *)
module Probed_stm = struct
  include Stm

  let atomically ctx t body =
    if !probing then probed stm_probe ctx (fun () -> Stm.atomically ctx t body)
    else Stm.atomically ctx t body
end

module Vacation = Mt_stamp.Vacation.Make (Probed_stm)

(* ------------------------------------------------------------------ *)
(* The counting tap of a traced repetition

   Counts events per kind, and builds the per-request ledger of the open
   loop: arrival and dequeue times come from the [Req_*] events, the op
   span and backend cycles from the op closure, and the commit event must
   land exactly at the op's end. *)

type pending = {
  mutable p_id : int;
  mutable p_deq : int;
  mutable p_wait : int;
  mutable p_t0 : int;
  mutable p_t1 : int;
  mutable p_backend : int;
}

type tap = {
  stalls : int array;
  idle_stalls : int array;  (* worker stalls outside op spans *)
  in_op : bool array;
  mutable demotes : int;
  mutable helps : int;
  mutable snap_attempts : int;
  mutable snap_invalid : int;
  arrivals : (int, int) Hashtbl.t;
  dequeued : (int * int * int) Queue.t array;  (* id, time, wait *)
  pending : pending array;
  e2e : Samples.t;
  qwait : Samples.t;
  bwait : Samples.t;
  service : Samples.t;
  mutable sum_e2e : int;
  mutable sum_q : int;
  mutable sum_b : int;
  mutable sum_self : int;
  mutable sum_backend : int;
  mutable ledger_errors : int;
  mutable first_error : string;
}

let new_tap () =
  {
    stalls = Array.make max_cores 0;
    idle_stalls = Array.make max_cores 0;
    in_op = Array.make max_cores false;
    demotes = 0;
    helps = 0;
    snap_attempts = 0;
    snap_invalid = 0;
    arrivals = Hashtbl.create 4096;
    dequeued = Array.init max_cores (fun _ -> Queue.create ());
    pending =
      Array.init max_cores (fun _ ->
          { p_id = -1; p_deq = 0; p_wait = 0; p_t0 = 0; p_t1 = 0; p_backend = 0 });
    e2e = Samples.create ();
    qwait = Samples.create ();
    bwait = Samples.create ();
    service = Samples.create ();
    sum_e2e = 0;
    sum_q = 0;
    sum_b = 0;
    sum_self = 0;
    sum_backend = 0;
    ledger_errors = 0;
    first_error = "";
  }

let ledger_error tap msg =
  tap.ledger_errors <- tap.ledger_errors + 1;
  if tap.first_error = "" then tap.first_error <- msg

(* Request [id] committed on [core] at [time]: close its ledger entry. *)
let settle tap ~core ~id ~time =
  let p = tap.pending.(core) in
  if p.p_id <> id || p.p_t1 <> time then
    ledger_error tap
      (Printf.sprintf "request %d: commit at %d does not close op span of %d" id
         time p.p_id)
  else
    match Hashtbl.find_opt tap.arrivals id with
    | None -> ledger_error tap (Printf.sprintf "request %d: no arrival" id)
    | Some arr ->
        Hashtbl.remove tap.arrivals id;
        let e2e = time - arr
        and q = p.p_deq - arr
        and b = p.p_t0 - p.p_deq
        and backend = p.p_backend in
        let self = p.p_t1 - p.p_t0 - backend in
        if q <> p.p_wait || q < 0 || b < 0 || self < 0 || backend < 0
           || e2e <> q + b + self + backend
        then
          ledger_error tap
            (Printf.sprintf "request %d: e2e %d <> queue %d + batch %d + store %d + backend %d"
               id e2e q b self backend)
        else begin
          Samples.add tap.e2e e2e;
          Samples.add tap.qwait q;
          Samples.add tap.bwait b;
          Samples.add tap.service (p.p_t1 - p.p_t0);
          tap.sum_e2e <- tap.sum_e2e + e2e;
          tap.sum_q <- tap.sum_q + q;
          tap.sum_b <- tap.sum_b + b;
          tap.sum_self <- tap.sum_self + self;
          tap.sum_backend <- tap.sum_backend + backend
        end

let feed tap (e : Obs.event) =
  match e.kind with
  | Obs.Fiber_stall _ ->
      tap.stalls.(e.core) <- tap.stalls.(e.core) + 1;
      if not tap.in_op.(e.core) then
        tap.idle_stalls.(e.core) <- tap.idle_stalls.(e.core) + 1
  | Obs.Stm_demote -> tap.demotes <- tap.demotes + 1
  | Obs.Kcas_help _ -> tap.helps <- tap.helps + 1
  | Obs.Snap_attempt _ -> tap.snap_attempts <- tap.snap_attempts + 1
  | Obs.Snap_invalid _ -> tap.snap_invalid <- tap.snap_invalid + 1
  | Obs.Req_arrive { id } -> Hashtbl.replace tap.arrivals id e.time
  | Obs.Req_dequeue { id; wait; _ } ->
      Queue.push (id, e.time, wait) tap.dequeued.(e.core)
  | Obs.Req_commit { id } -> settle tap ~core:e.core ~id ~time:e.time
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Host-cost ladder rungs *)

type rung = {
  metric : string;  (* median host ns per call; "_iqr" and "_minor_words" beside it *)
  sample : unit -> float * float;  (* host ns and minor words per call *)
}

let timed n f =
  let w0 = Gc.minor_words () in
  let t0 = wall () in
  for _ = 1 to n do
    f ()
  done;
  let t1 = wall () in
  let n = float_of_int n in
  (1e9 *. (t1 -. t0) /. n, (Gc.minor_words () -. w0) /. n)

let rung metric n f = { metric; sample = (fun () -> timed n f) }

(* A rung whose calls run in one fiber on [m]. *)
let fiber_rung m metric n f =
  { metric; sample = (fun () -> Harness.exec1 m (fun ctx -> timed n (f ctx))) }

(* Rungs every workload shares: a bare stall, a suspending stall, the
   direct machine operations and a context read, on [m]. *)
let base_rungs m =
  let a = Machine.alloc m ~words:8 in
  let core = 0 in
  let suspend () =
    (* Two fibers with equal clocks alternate: every stall suspends. *)
    let n = 50_000 in
    let t0 = ref 0.0 and t1 = ref 0.0 and w0 = ref 0.0 and w1 = ref 0.0 in
    let (_ : int) =
      Harness.exec m ~threads:2 (fun ctx ->
          if Ctx.core ctx = 0 then begin
            w0 := Gc.minor_words ();
            t0 := wall ()
          end;
          for _ = 1 to n do
            Runtime.stall 1
          done;
          t1 := wall ();
          w1 := Gc.minor_words ())
    in
    let calls = float_of_int (2 * n) in
    (1e9 *. (!t1 -. !t0) /. calls, (!w1 -. !w0) /. calls)
  in
  [
    fiber_rung m "runtime.host_ns_per_stall" 200_000 (fun _ () -> Runtime.stall 1);
    { metric = "runtime.host_ns_per_suspend"; sample = suspend };
    rung "machine.host_ns.read" 200_000 (fun () -> ignore (Machine.read m ~core a));
    rung "machine.host_ns.write" 200_000 (fun () -> ignore (Machine.write m ~core a 0));
    rung "machine.host_ns.cas" 200_000 (fun () ->
        ignore (Machine.cas m ~core a ~expected:0 ~desired:0));
    rung "machine.host_ns.vas" 200_000 (fun () -> ignore (Machine.vas m ~core a 0));
    rung "machine.host_ns.ias" 200_000 (fun () -> ignore (Machine.ias m ~core a 0));
    rung "machine.host_ns.tag_clear" 100_000 (fun () ->
        ignore (Machine.add_tag m ~core a ~words:1);
        ignore (Machine.clear_tag_set m ~core));
    fiber_rung m "ctx.host_ns_per_read" 200_000 (fun ctx () -> ignore (Ctx.read ctx a));
  ]

let ladder_reps = 11

(* Interleaved repetitions: every rep samples every rung once, in order,
   so slow drift of the host affects all rungs alike. *)
let run_ladder rungs =
  let samples = List.map (fun r -> (r, ref [], ref 0.0)) rungs in
  for _ = 1 to ladder_reps do
    List.iter
      (fun (r, ns, words) ->
        let t, w = r.sample () in
        ns := t :: !ns;
        words := w)
      samples
  done;
  List.concat_map
    (fun (r, ns, words) ->
      let a = sorted_floats !ns in
      [
        (r.metric, quantile a 0.5);
        (r.metric ^ "_iqr", quantile a 0.75 -. quantile a 0.25);
        (r.metric ^ "_minor_words", !words);
      ])
    samples

(* ------------------------------------------------------------------ *)
(* One repetition of a workload *)

type rep = {
  setup_s : float;  (* reference seconds *)
  measure_s : float;  (* host seconds of the measured phase, kernel calls excluded *)
  ref_s : float;  (* host seconds of the reference kernel, interleaved *)
  ref_steps : int;
  live_mb : float;  (* live heap after the measured phase, machine and state included *)
  minor_words : float;  (* minor words allocated in the measured phase *)
  ops : int;  (* ops or requests completed in the measured phase *)
  attempted : int;
  failed : int;
  drain_cycles : int;  (* open loop: cycles the workers ran past the horizon *)
  throughput : float;  (* completed per 1000 simulated cycles *)
  lat_n : int;
  lat_p50 : int;
  lat_p99 : int;
  lat_p999 : int;
  energy_per_op : float;
  success_ratio : float;
  stats : Stats.t;  (* measured-phase machine counters *)
  fingerprint : string;
  layers : (string * float) list;  (* traced repetitions only *)
  rungs : rung list;
      (* the ladder, on this repetition's machine and state; dropped once
         the repetition is summarised so at most one machine stays live *)
}

(* Detects the start of the measured phase of [Driver.run_custom] from
   inside the op closure: each phase runs on a fresh runtime. *)
type phase = { mutable rt : Runtime.t option; mutable n : int }

let enter_phase ph ctx on_new =
  let rt = Ctx.runtime ctx in
  match ph.rt with
  | Some r when r == rt -> ()
  | _ ->
      ph.rt <- Some rt;
      ph.n <- ph.n + 1;
      on_new ph.n

let stats_digest s = Digest.to_hex (Digest.string (Format.asprintf "%a" Stats.pp s))

let machine_layers ~ops (s : Stats.t) tap =
  let per x = iratio x ops in
  [
    ("runtime.stalls_per_op", per (Array.fold_left ( + ) 0 tap.stalls));
    ("machine.accesses_per_op", per (Stats.l1_accesses s));
    ("machine.l1_miss_rate", Stats.l1_miss_rate s);
    ("machine.l2_misses_per_op", per s.l2_misses);
    ("machine.invalidations_per_op", per s.invalidations_sent);
    ("machine.tag_probes_per_op", per s.tag_probes_sent);
    ("machine.spurious_validate_ratio", iratio s.validate_failures_spurious s.validates);
    ("cm.waits_per_op", per s.cm_waits);
    ("cm.wait_cycles_share", iratio s.cm_wait_cycles s.busy_cycles);
  ]

let struct_layers prefix p =
  let s = Samples.sorted p.cycles in
  let calls = Samples.count p.cycles in
  [
    (prefix ^ ".sim_cycles_p50", float_of_int (pct s 500));
    (prefix ^ ".sim_cycles_p99", float_of_int (pct s 990));
    (prefix ^ ".restarts_per_op", iratio p.restarts calls);
    (prefix ^ ".useful_ratio", iratio calls (calls + p.restarts));
  ]

let rec ascending = function a :: (b :: _ as tl) -> a < b && ascending tl | _ -> true

let latency_of_samples lat =
  let s = Samples.sorted lat in
  (Array.length s, pct s 500, pct s 990, pct s 999)

(* A closed-loop repetition through [Driver.run_custom]: [make ctx]
   builds the state on core 0, [op ctx state] performs one logical op and
   returns nothing; [finish m state] checks the final state and returns
   extra fingerprint text and layer metrics. *)
let closed_rep (type s) ~traced ~ref_every ~cfg ~(spec : Spec.t) ~name
    ~(make : Ctx.t -> s) ~(op : Ctx.t -> s -> unit)
    ~(on_measure : s -> unit)
    ~(finish : Machine.t -> s -> ops:int -> tap -> string * (string * float) list)
    ~(rungs : Machine.t -> s -> rung list) =
  let obs =
    if traced then Obs.create ~retain:false ~num_cores:cfg.Config.num_cores ()
    else Obs.null
  in
  let tap = new_tap () in
  let state = ref None and machine = ref None in
  let setup_s = ref 0.0 and t_measure = ref 0.0 and w_measure = ref 0.0 in
  let lat = Samples.create () in
  let ph = { rt = None; n = 0 } in
  let mismatches = ref 0 in
  Array.fill struct_cycles 0 max_cores 0;
  List.iter reset_probe [ list_probe; abtree_probe; stm_probe ];
  let setup ctx =
    machine := Some (Ctx.machine ctx);
    let s = make ctx in
    state := Some s;
    setup_s := setup_ref_seconds ();
    s
  in
  let start_measure s n =
    if n = 2 then begin
      on_measure s;
      if traced then begin
        Obs.set_tap obs (Some (feed tap));
        probing := true
      end;
      w_measure := Gc.minor_words ();
      t_measure := wall ();
      Ref_kernel.start ~every:ref_every
    end
  in
  let op ctx s =
    enter_phase ph ctx (start_measure s);
    let core = Ctx.core ctx in
    let c0 = struct_cycles.(core) in
    let t0 = Ctx.now ctx in
    op ctx s;
    let dt = Ctx.now ctx - t0 in
    if ph.n = 2 then begin
      Ref_kernel.tick ();
      Samples.add lat dt;
      (* Ledger: an op's latency is the sum of its structure calls. *)
      if !probing && struct_cycles.(core) - c0 <> dt then incr mismatches
    end
  in
  start_setup_clock ();
  let r = Driver.run_custom ~cfg ~obs ~name ~setup ~op spec in
  let ref_s = Ref_kernel.seconds.(0) and ref_steps = !Ref_kernel.steps in
  let measure_s = wall () -. !t_measure -. ref_s in
  let minor_words = Gc.minor_words () -. !w_measure in
  probing := false;
  Obs.set_tap obs None;
  let m = Option.get !machine and s = Option.get !state in
  check (ph.n = 2) "%s: expected a warmup and a measured phase, saw %d" name ph.n;
  check (Samples.count lat = r.Driver.ops) "%s: %d op samples for %d ops" name
    (Samples.count lat) r.Driver.ops;
  check (!mismatches = 0) "%s: %d ops whose latency is not the sum of their structure calls"
    name !mismatches;
  Machine.check_coherence m;
  let n, p50, p99, p999 = latency_of_samples lat in
  check (Hist.count r.Driver.latency = n && Hist.max_value r.Driver.latency = pct (Samples.sorted lat) 1000)
    "%s: latency samples disagree with Driver's histogram" name;
  let extra, layers = finish m s ~ops:r.Driver.ops tap in
  let layers =
    if traced then machine_layers ~ops:r.Driver.ops r.Driver.stats tap @ layers else []
  in
  (* The rungs hold the machine and state, so both are live here. *)
  let rungs = rungs m s in
  let live_mb = live_heap_mb () in
  {
    setup_s = !setup_s;
    live_mb;
    measure_s;
    ref_s;
    ref_steps;
    minor_words;
    ops = r.Driver.ops;
    attempted = r.Driver.ops;
    failed = 0;
    drain_cycles = 0;
    throughput = r.Driver.throughput;
    lat_n = n;
    lat_p50 = p50;
    lat_p99 = p99;
    lat_p999 = p999;
    energy_per_op = r.Driver.energy_per_op;
    success_ratio = 1.0;
    stats = r.Driver.stats;
    fingerprint =
      Printf.sprintf "%s ops=%d dur=%d lat=%s stats=%s %s" name r.Driver.ops
        r.Driver.duration (Samples.digest lat) (stats_digest r.Driver.stats) extra;
    layers;
    rungs;
  }

(* ------------------------------------------------------------------ *)
(* list-hot: 32 closed-loop clients on a 256-key hand-over-hand tagged
   list, 35% insert / 35% delete / 30% contains. *)

let list_keys = 256
let list_threads = 32

type list_state = { set : Hoh_list.t; mutable prefill : int; mutable ins : int; mutable del : int }

let list_op ctx st =
  let g = Ctx.prng ctx in
  let k = Prng.int g list_keys in
  let r = Prng.int g 100 in
  if r < 35 then begin if Hoh_list.insert ctx st.set k then st.ins <- st.ins + 1 end
  else if r < 70 then begin if Hoh_list.delete ctx st.set k then st.del <- st.del + 1 end
  else ignore (Hoh_list.contains ctx st.set k)

let list_hot_rep ~seed ~traced ~threads ~measure_cycles =
  let cfg = Config.default ~num_cores:list_threads () in
  let spec =
    Spec.make ~key_range:list_keys ~insert_pct:35 ~delete_pct:35 ~threads
      ~warmup_cycles:20_000 ~measure_cycles ~seed ()
  in
  let make ctx =
    let st = { set = Hoh_list.create ctx; prefill = 0; ins = 0; del = 0 } in
    let g = Prng.create ~seed:(seed + 1) in
    for k = 0 to list_keys - 1 do
      if Prng.bool g && Hoh_list.insert ctx st.set k then st.prefill <- st.prefill + 1
    done;
    st
  in
  let op ctx st =
    if !probing then probed list_probe ctx (fun () -> list_op ctx st) else list_op ctx st
  in
  let finish m st ~ops:_ _tap =
    let keys = Hoh_list.to_list_unsafe m st.set in
    check (ascending keys) "list-hot: contents not strictly ascending";
    check (List.for_all (fun k -> k >= 0 && k < list_keys) keys) "list-hot: key out of range";
    let size = List.length keys in
    check (size = st.prefill + st.ins - st.del)
      "list-hot: final size %d <> prefill %d + inserts %d - deletes %d" size st.prefill
      st.ins st.del;
    ( Printf.sprintf "size=%d ins=%d del=%d" size st.ins st.del,
      if traced then struct_layers "hoh_list" list_probe else [] )
  in
  let rungs m st =
    base_rungs m
    @ [
        fiber_rung m "hoh_list.host_ns_per_op" 20_000 (fun ctx () -> list_op ctx st);
      ]
  in
  closed_rep ~traced ~ref_every:256 ~cfg ~spec ~name:"list-hot" ~make ~op ~on_measure:ignore ~finish ~rungs

(* ------------------------------------------------------------------ *)
(* vacation-stm: 8 closed-loop clients running STAMP vacation on tagged
   NOrec with -n4 -q60 -u90 -r16384 and 256 tags. *)

let vac_params = { Vacation.relations = 16384; queries = 4; query_pct = 60; user_pct = 90 }
let vac_threads = 8

type vac_state = {
  stm : Stm.t;
  mgr : Vacation.manager;
  mutable commits0 : int;
  mutable aborts0 : int;
}

let vacation_rep ~seed ~traced ~threads ~measure_cycles =
  let cfg = { (Config.default ~num_cores:vac_threads ()) with Config.max_tags = 256 } in
  let spec =
    Spec.make ~key_range:vac_params.relations ~insert_pct:0 ~delete_pct:0 ~threads
      ~warmup_cycles:50_000 ~measure_cycles ~seed ()
  in
  let make ctx =
    let stm = Stm.create ctx in
    { stm; mgr = Vacation.setup ctx stm vac_params; commits0 = 0; aborts0 = 0 }
  in
  let on_measure st =
    st.commits0 <- Stm.commits st.stm;
    st.aborts0 <- Stm.aborts st.stm
  in
  let op ctx st = Vacation.client_op ctx st.stm st.mgr vac_params in
  let finish m st ~ops tap =
    check (Vacation.tables_consistent_unsafe m st.mgr) "vacation-stm: tables inconsistent";
    let _, used = Vacation.inventory_unsafe m st.mgr in
    let held = Vacation.customer_reservations_unsafe m st.mgr in
    check (used = held) "vacation-stm: %d units used but %d reservations held" used held;
    let commits = Stm.commits st.stm - st.commits0
    and aborts = Stm.aborts st.stm - st.aborts0 in
    ( Printf.sprintf "used=%d commits=%d aborts=%d" used (Stm.commits st.stm) (Stm.aborts st.stm),
      if traced then
        let s = Samples.sorted stm_probe.cycles in
        [
          ("norec_tagged.sim_cycles_p50", float_of_int (pct s 500));
          ("norec_tagged.sim_cycles_p99", float_of_int (pct s 990));
          ("norec_tagged.restarts_per_op", iratio aborts ops);
          ("norec_tagged.useful_ratio", iratio commits (commits + aborts));
          ("norec_tagged.aborts_per_commit", iratio aborts commits);
          ("norec_tagged.demotes_per_commit", iratio tap.demotes commits);
        ]
      else [] )
  in
  let rungs m st =
    base_rungs m
    @ [
        fiber_rung m "norec_tagged.host_ns_per_op" 200 (fun ctx () ->
            Vacation.client_op ctx st.stm st.mgr vac_params);
      ]
  in
  closed_rep ~traced ~ref_every:16 ~cfg ~spec ~name:"vacation-stm" ~make ~op ~on_measure ~finish ~rungs

(* ------------------------------------------------------------------ *)
(* store-mixed: Poisson arrivals into a 4-worker server (shared queue,
   batch 4) over a 4-shard store on hoh-abtree. 16384 keys prefilled
   half full; 85% point ops (20/20/60 insert/delete/get), 10% 3-key
   transactions, 5% 256-key scans. The request decoding follows
   [Store_serve] but bounds the key space so the size stays stationary,
   and resubmits an aborted transaction until it commits. *)

let store_keys = 16384
let store_workers = 4
let store_rate = 2.0
let scan_width = 256

let lcg h = ((h * 2685821657736338717) + 1442695040888963407) land max_int

type store_kind = Point | Txn | Scan

let kind_of payload =
  let c = payload mod 100 in
  if c < 85 then Point else if c < 95 then Txn else Scan

type store_state = {
  store : Store.t;
  mutable size : int;  (* prefill + successful inserts - successful deletes *)
  mutable aborts : int;  (* aborted transaction attempts, all resubmitted *)
}

let txn_ops h =
  let rec build i h acc =
    if i = 0 then List.rev acc
    else
      let h = lcg h in
      let k = h mod store_keys in
      let h = lcg h in
      let o = match h mod 3 with 0 -> Store.Insert | 1 -> Store.Delete | _ -> Store.Get in
      build (i - 1) h ((k, o) :: acc)
  in
  build 3 h []

let point_op ctx st h =
  let k = h mod store_keys in
  match lcg h mod 100 with
  | o when o < 20 -> if Store.insert ctx st.store k then st.size <- st.size + 1
  | o when o < 40 -> if Store.delete ctx st.store k then st.size <- st.size - 1
  | _ -> ignore (Store.get ctx st.store k)

(* One transaction attempt: true when it committed. *)
let txn_attempt ctx st ops =
  match Store.txn ctx st.store ops with
  | Store.Committed results ->
      List.iter2
        (fun (_, o) ok ->
          match (o, ok) with
          | Store.Insert, true -> st.size <- st.size + 1
          | Store.Delete, true -> st.size <- st.size - 1
          | _ -> ())
        ops results;
      true
  | Store.Aborted _ ->
      st.aborts <- st.aborts + 1;
      false

let scan_op ctx st h =
  let lo = h mod (store_keys - scan_width + 1) in
  let keys = Store.scan ctx st.store ~lo ~hi:(lo + scan_width - 1) in
  List.iter (fun k -> check (k >= lo && k < lo + scan_width) "store-mixed: scan key out of range") keys

(* One request. [call] wraps every store call (the traced run times each
   one); an aborted transaction is resubmitted until it commits. *)
let store_call ?(call = fun f -> f ()) ctx st payload =
  let h = lcg payload in
  match kind_of payload with
  | Point -> call (fun () -> point_op ctx st h)
  | Scan -> call (fun () -> scan_op ctx st h)
  | Txn ->
      let ops = txn_ops h in
      let committed = ref false in
      while not !committed do
        call (fun () -> committed := txn_attempt ctx st ops)
      done

let store_kind_cycles = [| Samples.create (); Samples.create (); Samples.create () |]
let kind_index = function Point -> 0 | Txn -> 1 | Scan -> 2

let store_rep ~seed ~traced ~rate ~horizon =
  let threads = store_workers + 1 in
  let config =
    Server.config ~workers:store_workers ~batch:4 ~queue_capacity:4096 ~rate_per_kcycle:rate
      ~horizon ~seed ()
  in
  let obs = if traced then Obs.create ~retain:false ~num_cores:threads () else Obs.null in
  let tap = new_tap () in
  let state = ref None and machine = ref None in
  let setup_s = ref 0.0 and t_measure = ref 0.0 and w_measure = ref 0.0 in
  let store_cycles = ref 0 and store_backend = ref 0 in
  abtree_shards := [];
  Array.fill struct_cycles 0 max_cores 0;
  List.iter reset_probe [ list_probe; abtree_probe; stm_probe ];
  Array.iter Samples.clear store_kind_cycles;
  let setup ctx =
    let m = Ctx.machine ctx in
    machine := Some m;
    let st =
      {
        store = Store.create (module Probed_abtree) ctx ~shards:4 ~key_space:store_keys;
        size = 0;
        aborts = 0;
      }
    in
    let g = Prng.create ~seed:(seed + 1) in
    for k = 0 to store_keys - 1 do
      if Prng.bool g && Store.insert ctx st.store k then st.size <- st.size + 1
    done;
    Store.reset_stats st.store;
    Machine.reset_stats m;
    state := Some st;
    if traced then begin
      Obs.set_tap obs (Some (feed tap));
      probing := true
    end;
    setup_s := setup_ref_seconds ();
    w_measure := Gc.minor_words ();
    t_measure := wall ();
    Ref_kernel.start ~every:512;
    st
  in
  let op ctx st payload =
    if not !probing then store_call ctx st payload
    else begin
      let core = Ctx.core ctx in
      let p = tap.pending.(core) in
      (match Queue.take_opt tap.dequeued.(core) with
      | Some (id, deq, wait) ->
          p.p_id <- id;
          p.p_deq <- deq;
          p.p_wait <- wait
      | None -> ledger_error tap "op without a dequeue event");
      tap.in_op.(core) <- true;
      let b0 = struct_cycles.(core) in
      let t0 = Ctx.now ctx in
      p.p_t0 <- t0;
      (* Each store call is timed on its own: a resubmitted transaction is
         several calls. *)
      let samples = store_kind_cycles.(kind_index (kind_of payload)) in
      let timed_call f =
        let c0 = Ctx.now ctx and bc = struct_cycles.(core) in
        f ();
        let dt = Ctx.now ctx - c0 in
        Samples.add samples dt;
        store_cycles := !store_cycles + dt;
        store_backend := !store_backend + struct_cycles.(core) - bc
      in
      store_call ~call:timed_call ctx st payload;
      p.p_t1 <- Ctx.now ctx;
      p.p_backend <- struct_cycles.(core) - b0;
      tap.in_op.(core) <- false
    end;
    Ref_kernel.tick ()
  in
  start_setup_clock ();
  let r = Server.run ~obs ~name:"store-mixed" ~setup ~op config in
  let ref_s = Ref_kernel.seconds.(0) and ref_steps = !Ref_kernel.steps in
  let measure_s = wall () -. !t_measure -. ref_s in
  let minor_words = Gc.minor_words () -. !w_measure in
  probing := false;
  Obs.set_tap obs None;
  let m = Option.get !machine and st = Option.get !state in
  Machine.check_coherence m;
  check
    (r.Server.generated = r.Server.completed + r.Server.dropped && r.Server.still_queued = 0)
    "store-mixed: generated %d <> completed %d + dropped %d (still queued %d)"
    r.Server.generated r.Server.completed r.Server.dropped r.Server.still_queued;
  let keys = Store.to_list_unsafe m st.store in
  check (ascending keys && List.for_all (fun k -> k >= 0 && k < store_keys) keys)
    "store-mixed: contents not strictly ascending within the key space";
  check (List.length keys = st.size) "store-mixed: final size %d <> counted size %d"
    (List.length keys) st.size;
  let stats = Machine.total_stats m in
  let sstats = Store.stats st.store in
  let e2e = r.Server.e2e in
  let ops = r.Server.completed in
  let energy =
    Stats.energy (Machine.cfg m) stats ~cycles:(r.Server.duration * Machine.num_cores m)
  in
  let attempts = r.Server.generated + st.aborts in
  let layers =
    if not traced then []
    else begin
      check (tap.ledger_errors = 0) "store-mixed ledger: %d errors, first: %s" tap.ledger_errors
        tap.first_error;
      check (Samples.count tap.e2e = ops && Hashtbl.length tap.arrivals = r.Server.dropped)
        "store-mixed ledger: %d entries for %d completed requests" (Samples.count tap.e2e) ops;
      let e2e_sorted = Samples.sorted tap.e2e in
      check (pct e2e_sorted 1000 = Hist.max_value e2e)
        "store-mixed ledger: max e2e %d <> server's %d" (pct e2e_sorted 1000) (Hist.max_value e2e);
      let kind_pct i p = float_of_int (pct (Samples.sorted store_kind_cycles.(i)) p) in
      let q = Samples.sorted tap.qwait and b = Samples.sorted tap.bwait in
      let svc = Samples.sorted tap.service in
      let txns = sstats.Store.txn_commits + sstats.Store.txn_aborts in
      let workers_idle = Array.fold_left ( + ) 0 (Array.sub tap.idle_stalls 0 store_workers) in
      let share x = iratio x tap.sum_e2e in
      machine_layers ~ops stats tap
      @ struct_layers "abtree_hoh" abtree_probe
      @ [
          ("kcas.helps_per_txn", iratio tap.helps txns);
          ("kcas.snap_invalid_ratio", iratio tap.snap_invalid tap.snap_attempts);
          ("store.sim_cycles.point_p50", kind_pct 0 500);
          ("store.sim_cycles.point_p99", kind_pct 0 990);
          ("store.sim_cycles.txn_p50", kind_pct 1 500);
          ("store.sim_cycles.txn_p99", kind_pct 1 990);
          ("store.sim_cycles.scan_p50", kind_pct 2 500);
          ("store.sim_cycles.scan_p99", kind_pct 2 990);
          ("store.self_cycles_share", iratio (!store_cycles - !store_backend) !store_cycles);
          ("store.txn_commit_ratio", iratio sstats.Store.txn_commits txns);
          ("store.txn_retries_locked_per_txn", iratio sstats.Store.txn_retries_locked txns);
          ("store.txn_retries_version_per_txn", iratio sstats.Store.txn_retries_version txns);
          ("store.scan_fallback_ratio", iratio sstats.Store.scan_tag_fallbacks sstats.Store.scans);
          ("store.imbalance", Store.imbalance sstats);
          ("serve.queue_wait_p50_cycles", float_of_int (pct q 500));
          ("serve.queue_wait_p99_cycles", float_of_int (pct q 990));
          ("serve.batch_wait_p50_cycles", float_of_int (pct b 500));
          ("serve.service_p50_cycles", float_of_int (pct svc 500));
          ("serve.service_p99_cycles", float_of_int (pct svc 990));
          ("serve.batch_fill_mean", Hist.mean r.Server.batch_fill);
          ("serve.overhead_stalls_per_request", iratio workers_idle ops);
          ("ledger.queue_wait_share", share tap.sum_q);
          ("ledger.batch_wait_share", share tap.sum_b);
          ("ledger.store_self_share", share tap.sum_self);
          ("ledger.backend_share", share tap.sum_backend);
        ]
    end
  in
  let rungs =
    let shard = List.hd !abtree_shards in
    let module B = Backend.Hoh_abtree in
    let abtree_op ctx =
      let g = Ctx.prng ctx in
      let k = Prng.int g store_keys in
      match Prng.int g 100 with
      | o when o < 20 -> ignore (B.insert ctx shard k)
      | o when o < 40 -> ignore (B.delete ctx shard k)
      | _ -> ignore (B.contains ctx shard k)
    in
    (* Each call serves a fresh request of one kind: [first] is the
       lowest payload class of that kind (see [kind_of]). *)
    let store_rung metric n first =
      fiber_rung m metric n (fun ctx () ->
          let p = Int64.to_int (Prng.next (Ctx.prng ctx)) land max_int in
          store_call ctx st ((p / 1000 * 100) + first))
    in
    base_rungs m
    @ [
        fiber_rung m "abtree_hoh.host_ns_per_op" 20_000 (fun ctx () -> abtree_op ctx);
        store_rung "store.host_ns.point" 20_000 0;
        store_rung "store.host_ns.txn" 5_000 85;
        store_rung "store.host_ns.scan" 1_000 95;
      ]
  in
  let live_mb = live_heap_mb () in
  (* End-to-end latency: exact from the ledger when traced; otherwise the
     server's histogram, whose quantiles are bucketed (within 12.5%). *)
  let lat_n, lat_p50, lat_p99, lat_p999 =
    if traced then latency_of_samples tap.e2e
    else
      (Hist.count e2e, Hist.percentile e2e 50.0, Hist.percentile e2e 99.0,
       Hist.percentile e2e 99.9)
  in
  {
    setup_s = !setup_s;
    measure_s;
    ref_s;
    ref_steps;
    live_mb;
    minor_words;
    ops;
    attempted = r.Server.generated;
    failed = r.Server.dropped;
    drain_cycles = r.Server.duration - horizon;
    throughput = r.Server.goodput;
    lat_n;
    lat_p50;
    lat_p99;
    lat_p999;
    energy_per_op = ratio energy (float_of_int ops);
    success_ratio = 1.0 -. iratio (st.aborts + r.Server.dropped) attempts;
    stats;
    fingerprint =
      Printf.sprintf
        "store-mixed gen=%d done=%d drop=%d dur=%d e2e=%s wait=%s svc=%s stats=%s aborts=%d size=%d"
        r.Server.generated r.Server.completed r.Server.dropped r.Server.duration
        (Json.to_string (Hist.to_json e2e))
        (Json.to_string (Hist.to_json r.Server.queue_wait))
        (Json.to_string (Hist.to_json r.Server.service))
        (stats_digest stats) st.aborts st.size;
    layers;
    rungs;
  }

(* ------------------------------------------------------------------ *)
(* Workloads *)

type workload = {
  wname : string;
  rep : seed:int -> traced:bool -> rep;
  (* The fixed SLO on p99 latency (cycles) and the ladder of load points
     for [sim_rate_at_slo_per_kcycle], in ascending load: each point is
     (offered rate or client count, its repetition). *)
  slo_cycles : int;
  slo_ladder : seed:int -> rep -> (string * rep) list;
}

let list_measure = 2_000_000
let vac_measure = 13_000_000
let store_horizon = 60_000_000

let workloads =
  [
    {
      wname = "list-hot";
      rep =
        (fun ~seed ~traced ->
          list_hot_rep ~seed ~traced ~threads:list_threads ~measure_cycles:list_measure);
      slo_cycles = 6_000;
      slo_ladder =
        (fun ~seed main ->
          List.map
            (fun t ->
              ( Printf.sprintf "%d clients" t,
                list_hot_rep ~seed ~traced:false ~threads:t ~measure_cycles:(list_measure / 2) ))
            [ 1; 4; 16 ]
          @ [ (Printf.sprintf "%d clients" list_threads, main) ]);
    };
    {
      wname = "store-mixed";
      rep = (fun ~seed ~traced -> store_rep ~seed ~traced ~rate:store_rate ~horizon:store_horizon);
      slo_cycles = 20_480;
      slo_ladder =
        (fun ~seed main ->
          List.map
            (fun rate ->
              if rate = store_rate then (Printf.sprintf "%.2f/kcycle" rate, main)
              else
                ( Printf.sprintf "%.2f/kcycle" rate,
                  store_rep ~seed ~traced:false ~rate ~horizon:(store_horizon / 2) ))
            [ 1.0; 2.0; 2.5; 3.0; 3.5 ]);
    };
    {
      wname = "vacation-stm";
      rep =
        (fun ~seed ~traced ->
          vacation_rep ~seed ~traced ~threads:vac_threads ~measure_cycles:vac_measure);
      slo_cycles = 12_000;
      slo_ladder =
        (fun ~seed main ->
          List.map
            (fun t ->
              ( Printf.sprintf "%d clients" t,
                vacation_rep ~seed ~traced:false ~threads:t ~measure_cycles:(vac_measure / 4) ))
            [ 1; 4 ]
          @ [ (Printf.sprintf "%d clients" vac_threads, main) ]);
    };
  ]

(* ------------------------------------------------------------------ *)
(* Metric tables (BENCHMARK.json lists the same names). *)

(* name, unit, clock, better *)
let end_to_end =
  [
    ("sim_ops_per_ref_s", "1/s", "host", "higher");
    ("setup_s", "s", "host", "lower");
    ("host_live_heap_mb", "MB", "host", "lower");
    ("sim_throughput_per_kcycle", "1/kcycle", "sim", "higher");
    ("sim_latency_p50_cycles", "cycles", "sim", "lower");
    ("sim_latency_p99_cycles", "cycles", "sim", "lower");
    ("sim_latency_p999_cycles", "cycles", "sim", "lower");
    ("sim_rate_at_slo_per_kcycle", "1/kcycle", "sim", "higher");
    ("sim_energy_per_op", "energy/op", "sim", "lower");
    ("sim_success_ratio", "ratio", "sim", "higher");
  ]

let rung_metrics =
  [
    "runtime.host_ns_per_stall";
    "runtime.host_ns_per_suspend";
    "machine.host_ns.read";
    "machine.host_ns.write";
    "machine.host_ns.cas";
    "machine.host_ns.vas";
    "machine.host_ns.ias";
    "machine.host_ns.tag_clear";
    "ctx.host_ns_per_read";
    "hoh_list.host_ns_per_op";
    "abtree_hoh.host_ns_per_op";
    "norec_tagged.host_ns_per_op";
    "store.host_ns.point";
    "store.host_ns.txn";
    "store.host_ns.scan";
  ]

let per_layer =
  List.concat_map
    (fun r -> [ (r, "ns", "lower"); (r ^ "_iqr", "ns", "lower"); (r ^ "_minor_words", "words", "lower") ])
    rung_metrics
  @ List.concat_map
      (fun s ->
        [
          (s ^ ".sim_cycles_p50", "cycles", "lower");
          (s ^ ".sim_cycles_p99", "cycles", "lower");
          (s ^ ".restarts_per_op", "count", "lower");
          (s ^ ".useful_ratio", "ratio", "higher");
        ])
      [ "hoh_list"; "abtree_hoh"; "norec_tagged" ]
  @ [
      ("runtime.stalls_per_op", "count", "lower");
      ("machine.host_ns_per_sim_access", "ns", "lower");
      ("machine.accesses_per_op", "count", "lower");
      ("machine.l1_miss_rate", "ratio", "lower");
      ("machine.l2_misses_per_op", "count", "lower");
      ("machine.invalidations_per_op", "count", "lower");
      ("machine.tag_probes_per_op", "count", "lower");
      ("machine.spurious_validate_ratio", "ratio", "lower");
      ("cm.waits_per_op", "count", "lower");
      ("cm.wait_cycles_share", "ratio", "lower");
      ("norec_tagged.aborts_per_commit", "count", "lower");
      ("norec_tagged.demotes_per_commit", "count", "lower");
      ("kcas.helps_per_txn", "count", "lower");
      ("kcas.snap_invalid_ratio", "ratio", "lower");
      ("store.sim_cycles.point_p50", "cycles", "lower");
      ("store.sim_cycles.point_p99", "cycles", "lower");
      ("store.sim_cycles.txn_p50", "cycles", "lower");
      ("store.sim_cycles.txn_p99", "cycles", "lower");
      ("store.sim_cycles.scan_p50", "cycles", "lower");
      ("store.sim_cycles.scan_p99", "cycles", "lower");
      ("store.self_cycles_share", "ratio", "lower");
      ("store.txn_commit_ratio", "ratio", "higher");
      ("store.txn_retries_locked_per_txn", "count", "lower");
      ("store.txn_retries_version_per_txn", "count", "lower");
      ("store.scan_fallback_ratio", "ratio", "lower");
      ("store.imbalance", "ratio", "lower");
      ("serve.queue_wait_p50_cycles", "cycles", "lower");
      ("serve.queue_wait_p99_cycles", "cycles", "lower");
      ("serve.batch_wait_p50_cycles", "cycles", "lower");
      ("serve.service_p50_cycles", "cycles", "lower");
      ("serve.service_p99_cycles", "cycles", "lower");
      ("serve.batch_fill_mean", "count", "higher");
      ("serve.overhead_stalls_per_request", "count", "lower");
      ("ledger.queue_wait_share", "ratio", "lower");
      ("ledger.batch_wait_share", "ratio", "lower");
      ("ledger.store_self_share", "ratio", "lower");
      ("ledger.backend_share", "ratio", "lower");
      ("obs.tracing_overhead_ratio", "ratio", "lower");
      ("host.minor_words_per_op", "words", "lower");
      ("host.sim_ops_per_wall_s", "1/s", "higher");
      ("host.ref_ns_per_step", "ns", "lower");
    ]

(* ------------------------------------------------------------------ *)
(* Output *)

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.17g" v

let print_result ~correct ~attempted ~failed metrics =
  let body =
    String.concat ", "
      (List.map
         (fun (name, unit, v) ->
           Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" name (json_number v) unit)
         metrics)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n" correct
    attempted failed body

let list_metrics () =
  let row better (name, unit) =
    Printf.sprintf "    {\"name\": \"%s\", \"unit\": \"%s\", \"better\": \"%s\"}" name unit better
  in
  print_endline "end_to_end:";
  List.iter
    (fun (n, u, clock, better) -> Printf.printf "%s  # %s clock\n" (row better (n, u)) clock)
    end_to_end;
  print_endline "per_layer:";
  List.iter (fun (n, u, better) -> print_endline (row better (n, u))) per_layer

(* ------------------------------------------------------------------ *)
(* The two kinds of run *)

let fingerprint_check wname reps =
  let fps = List.sort_uniq compare (List.map (fun r -> r.fingerprint) reps) in
  check (List.length fps = 1) "%s: simulated fingerprints differ between repetitions of one seed:\n%s"
    wname (String.concat "\n" fps);
  Printf.printf "fingerprint %s %s\n" wname (Digest.to_hex (Digest.string (List.hd fps)))

(* Host nanoseconds per reference-kernel step during the measured phase. *)
let ref_ns_per_step r = 1e9 *. r.ref_s /. float_of_int r.ref_steps

(* Ops completed per reference second of the measured phase. *)
let ops_per_ref_s r = float_of_int r.ops /. (r.measure_s *. ref_ns /. ref_ns_per_step r)

let log_rep w r =
  Printf.eprintf
    "%s: setup %.4f ref-s, measured %.4f s for %d ops (%.0f ops/s), kernel %.1f ns/step \
     (%.0f ops/ref-s), live heap %.3f MB\n%!"
    w.wname r.setup_s r.measure_s r.ops (float_of_int r.ops /. r.measure_s) (ref_ns_per_step r)
    (ops_per_ref_s r) r.live_mb

(* Repetitions of the workload for [seconds] of host time, at least
   [min_reps] and a multiple of [step]; [traced n] says whether the [n]th
   is traced. Returns them in order, with the ladder rungs of the newest
   untraced one. *)
let repeat ?(step = 1) w ~seed ~seconds ~min_reps ~traced =
  let t_start = wall () in
  let rungs = ref [] in
  let rec loop acc n =
    if n >= min_reps && n mod step = 0 && wall () -. t_start >= seconds then
      (List.rev acc, !rungs)
    else begin
      (* An untraced repetition replaces the kept rungs: drop them first,
         since they hold a machine that would count in its live heap. *)
      if not (traced n) then rungs := [];
      let r = w.rep ~seed ~traced:(traced n) in
      log_rep w r;
      if not (traced n) then rungs := r.rungs;
      loop ({ r with rungs = [] } :: acc) (n + 1)
    end
  in
  loop [] 0

(* The completion rate at which p99 latency reaches [slo], from a ladder in
   ascending load. A point meets the SLO when its p99 is under it, nothing
   was dropped and the backlog at the horizon drained within it. Between
   the last point that meets it and the first that does not, the rate is
   interpolated linearly in log p99, so the figure moves smoothly instead
   of jumping a whole step when one point's p99 wobbles. If every point
   meets the SLO, it is the highest point's rate; if none does, 0. *)
let rate_at_slo ~slo points =
  let meets r = r.lat_p99 < slo && r.failed = 0 && r.drain_cycles < slo in
  let rec go prev = function
    | [] -> Option.fold ~none:0.0 ~some:(fun p -> p.throughput) prev
    | r :: tl when meets r -> go (Some r) tl
    | r :: _ -> (
        match prev with
        | None -> 0.0
        | Some p when r.failed > 0 || r.drain_cycles >= slo || r.lat_p99 <= p.lat_p99 ->
            p.throughput
        | Some p ->
            let f =
              (log (float_of_int slo) -. log (float_of_int p.lat_p99))
              /. (log (float_of_int r.lat_p99) -. log (float_of_int p.lat_p99))
            in
            p.throughput +. (Float.min 1.0 (Float.max 0.0 f) *. (r.throughput -. p.throughput)))
  in
  go None points

let sum_of f reps = List.fold_left (fun a r -> a + f r) 0 reps

let untraced_run w ~seed ~seconds =
  (* A traced repetition first. It warms the host (code, heap) without
     being timed, it gives the exact simulated figures (the open loop's
     exact latencies come from its ledger), and its fingerprint must equal
     every untraced repetition's. *)
  let sim = { (w.rep ~seed ~traced:true) with rungs = [] } in
  log_rep w sim;
  let reps, _ = repeat w ~seed ~seconds ~min_reps:4 ~traced:(fun _ -> false) in
  fingerprint_check w.wname (sim :: reps);
  (* The first untraced repetition still runs slow while the heap settles:
     its host figures are not counted. *)
  let timed = List.tl reps in
  (* The SLO ladder: simulated only, so each point runs once. *)
  let ladder = w.slo_ladder ~seed sim in
  List.iter
    (fun (label, r) ->
      Printf.printf
        "slo-ladder %s: %-14s throughput %.4f/kcycle p99 %d (slo %d) dropped %d drain %d\n"
        w.wname label r.throughput r.lat_p99 w.slo_cycles r.failed r.drain_cycles)
    ladder;
  let rate_at_slo = rate_at_slo ~slo:w.slo_cycles (List.map snd ladder) in
  check (rate_at_slo > 0.0) "%s: the lowest ladder point misses the %d-cycle p99 SLO" w.wname
    w.slo_cycles;
  check (beyond sim.lat_n 999 >= 10) "%s: only %d samples beyond p99.9 (%d samples)" w.wname
    (beyond sim.lat_n 999) sim.lat_n;
  let metrics =
    [
      ("sim_ops_per_ref_s", median (List.map ops_per_ref_s timed));
      ("setup_s", median (List.map (fun r -> r.setup_s) timed));
      ("host_live_heap_mb", median (List.map (fun r -> r.live_mb) timed));
      ("sim_throughput_per_kcycle", sim.throughput);
      ("sim_latency_p50_cycles", float_of_int sim.lat_p50);
      ("sim_latency_p99_cycles", float_of_int sim.lat_p99);
      ("sim_latency_p999_cycles", float_of_int sim.lat_p999);
      ("sim_rate_at_slo_per_kcycle", rate_at_slo);
      ("sim_energy_per_op", sim.energy_per_op);
      ("sim_success_ratio", sim.success_ratio);
    ]
  in
  Printf.printf "%s seed %d: %d timed repetitions; latency from %d samples (%d beyond p99, %d beyond p99.9)\n"
    w.wname seed (List.length timed) sim.lat_n (beyond sim.lat_n 990) (beyond sim.lat_n 999);
  let rows =
    List.map
      (fun (name, unit, clock, _) ->
        let v = List.assoc name metrics in
        Printf.printf "  %-28s %16.4f %-10s %s\n" name v unit clock;
        (name, unit, v))
      end_to_end
  in
  let failed = sum_of (fun r -> r.failed) (sim :: reps) in
  print_result ~correct:(failed = 0) ~attempted:(sum_of (fun r -> r.attempted) (sim :: reps))
    ~failed rows

let traced_run w ~seed ~seconds =
  (* An untimed warm-up, then untraced and traced repetitions alternate. *)
  let warm = { (w.rep ~seed ~traced:false) with rungs = [] } in
  log_rep w warm;
  let reps, rungs =
    repeat ~step:2 w ~seed ~seconds ~min_reps:2 ~traced:(fun n -> n mod 2 = 1)
  in
  fingerprint_check w.wname (warm :: reps);
  let plain = List.filteri (fun i _ -> i mod 2 = 0) reps
  and traced = List.filteri (fun i _ -> i mod 2 = 1) reps in
  let tr = List.hd traced in
  let wall_plain = median (List.map (fun r -> r.measure_s) plain) in
  (* In reference-kernel steps, so the host's momentary speed cancels. *)
  let steps_of r = r.measure_s /. ref_ns_per_step r in
  let steps_plain = median (List.map steps_of plain) in
  let steps_traced = median (List.map steps_of traced) in
  let ladder = run_ladder rungs in
  let measured =
    tr.layers @ ladder
    @ [
        ("machine.host_ns_per_sim_access",
         1e9 *. wall_plain /. float_of_int (Stats.l1_accesses tr.stats));
        ("obs.tracing_overhead_ratio", steps_traced /. steps_plain);
        ("host.minor_words_per_op",
         median (List.map (fun r -> r.minor_words /. float_of_int r.ops) plain));
        ("host.sim_ops_per_wall_s",
         median (List.map (fun r -> float_of_int r.ops /. r.measure_s) plain));
        ("host.ref_ns_per_step", median (List.map ref_ns_per_step plain));
      ]
  in
  List.iter
    (fun (name, _) ->
      check (List.exists (fun (n, _, _) -> n = name) per_layer) "unlisted metric %s" name)
    measured;
  Printf.printf "%s seed %d: %d untraced + %d traced repetitions, simulated metrics identical\n"
    w.wname seed (List.length plain) (List.length traced);
  let rows =
    List.map
      (fun (name, unit, _) ->
        (* A layer this workload bypasses reports 0. *)
        let v = Option.value (List.assoc_opt name measured) ~default:0.0 in
        Printf.printf "  %-40s %16.4f %s\n" name v unit;
        (name, unit, v))
      per_layer
  in
  let reps = warm :: reps in
  let failed = sum_of (fun r -> r.failed) reps in
  print_result ~correct:(failed = 0) ~attempted:(sum_of (fun r -> r.attempted) reps) ~failed rows


let usage () =
  prerr_endline
    "usage: perfbench.exe --workload (list-hot|store-mixed|vacation-stm) --seed N --seconds S --trace 0|1\n\
    \       perfbench.exe --list-metrics";
  exit 2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  if args = [ "--list-metrics" ] then (list_metrics (); exit 0);
  let rec parse acc = function
    | key :: v :: tl when String.length key > 2 && String.sub key 0 2 = "--" ->
        parse ((String.sub key 2 (String.length key - 2), v) :: acc) tl
    | [] -> acc
    | _ -> usage ()
  in
  let opts = parse [] args in
  let get k = match List.assoc_opt k opts with Some v -> v | None -> usage () in
  let int_opt k = match int_of_string_opt (get k) with Some n -> n | None -> usage () in
  let wname = get "workload" in
  let seed = int_opt "seed" and seconds = int_opt "seconds" and trace = int_opt "trace" in
  let w =
    match List.find_opt (fun w -> w.wname = wname) workloads with
    | Some w -> w
    | None -> usage ()
  in
  if seconds < 1 || (trace <> 0 && trace <> 1) then usage ();
  match
    if trace = 0 then untraced_run w ~seed ~seconds:(float_of_int seconds)
    else traced_run w ~seed ~seconds:(float_of_int seconds)
  with
  | () -> ()
  | exception Check_failed msg ->
      Printf.eprintf "perfbench: correctness check failed: %s\n" msg;
      exit 1
  | exception Failure msg ->
      Printf.eprintf "perfbench: %s\n" msg;
      exit 1
