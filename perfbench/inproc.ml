(* The in-process scheduler workloads: one caller drives
   [Conflict_scheduler] through a seed-generated step stream.

   A run repeats whole passes until its time is up; each pass builds its
   own stream of a fixed size and a fresh scheduler, so every pass does
   the same amount of work and [step_growth] does not depend on how fast
   the host is. *)

module Cs = Dct_sched.Conflict_scheduler
module Si = Dct_sched.Scheduler_intf
module Gs = Dct_deletion.Graph_state
module Rules = Dct_deletion.Rules
module Policy = Dct_deletion.Policy
module Intset = Dct_graph.Intset
module Step = Dct_txn.Step
module Gen = Dct_workload.Generator
module Mix = Dct_workload.Mix
open Common

type spec = {
  policy : Policy.t;
  build : seed:int -> Step.t array;
  warmup : int;  (** leading steps run untimed, as part of set-up *)
  stats_every : int;  (** the caller reads [stats] every so many steps; 0 = never *)
}

let churn =
  {
    policy = Policy.Greedy_c1;
    build =
      (fun ~seed ->
        Array.of_list
          (Gen.basic
             { Gen.default with n_txns = 4000; n_entities = 100_000; mpl = 8; skew = "uniform"; seed }));
    warmup = 0;
    stats_every = 64;
  }

let gc_noncurrent =
  {
    policy = Policy.Noncurrent;
    build =
      (fun ~seed -> Array.of_list (Mix.schedule Mix.Ycsb_a ~n_txns:8000 ~keys:256 ~mpl:8 ~seed));
    warmup = 10_000;
    stats_every = 0;
  }

let create spec = Cs.create ~policy:spec.policy ~oracle:Dct_graph.Cycle_oracle.Topo ()

type pass = {
  summary : summary;
  digest : string;
  serializable : bool;  (** the committed projection passed the [ser] checker *)
}

(* One pass as a user would run it: telemetry off, only the step call
   inside the clock.  With [heap], the scheduler's retained memory is
   measured against a baseline taken once the inputs exist.  [steps]
   reuses inputs already built, leaving their garbage out of the pass. *)
let timed_pass ?steps spec ~seed ~heap =
  let t0 = Clock.now_ns () in
  let steps = match steps with Some s -> s | None -> spec.build ~seed in
  let n = Array.length steps in
  let outcomes = Bytes.make n '?' in
  let lat = Array.make (n - spec.warmup) 0 in
  let live0, paused = heap_baseline ~heap in
  let sched = create spec in
  for i = 0 to spec.warmup - 1 do
    Bytes.set outcomes i (code (Cs.step sched steps.(i)))
  done;
  let setup_ns = Clock.now_ns () - t0 - paused in
  let committed = ref 0 in
  let t1 = Clock.now_ns () in
  for i = spec.warmup to n - 1 do
    let s = steps.(i) in
    let a = Clock.now_ns () in
    let o = Cs.step sched s in
    lat.(i - spec.warmup) <- Clock.now_ns () - a;
    Bytes.unsafe_set outcomes i (code o);
    (match (o, s) with Si.Accepted, Step.Write _ -> incr committed | _ -> ());
    if spec.stats_every > 0 && (i + 1) mod spec.stats_every = 0 then
      ignore (Sys.opaque_identity (Cs.stats sched))
  done;
  let run_ns = Clock.now_ns () - t1 in
  let retained_words = if heap then live_words () - live0 else 0 in
  {
    summary = { lat; run_ns; committed = !committed; setup_ns; retained_words };
    digest = digest outcomes (Cs.deleted_log sched);
    serializable = serializable steps outcomes;
  }

(* The gates every pass must clear, timed or the traced run's reference. *)
let pass_problems passes =
  List.concat
    (List.mapi
       (fun k p ->
         if p.serializable then []
         else [ Printf.sprintf "pass %d: committed projection fails the ser checker" k ])
       passes)

let timed spec ~seed ~seconds =
  let passes =
    repeat ~seconds (fun k -> timed_pass spec ~seed:(pass_seed ~seed k) ~heap:(k = 0))
  in
  (List.map (fun p -> p.summary) passes, pass_problems passes)

(* The traced run re-drives the same stream through the layers' own
   entry points — [Graph_state.would_cycle], [Rules.apply],
   [Policy.run], [Conflict_scheduler.stats] — timing each call from
   here.  The scheduler is used only for its graph state and [stats];
   its [step] is bypassed, so the decisions come from the re-drive. *)
type traced_pass = {
  rows : (string * timer) list;  (** the ledger's layer rows, in order *)
  total_ns : int;  (** the whole timed segment *)
  offered : int;  (** completed residents offered to [Policy.run], summed over calls *)
  deleted : int;
  resident_sum : int;
  resident_peak : int;
  end_state : Report.metric list;
  traced_digest : string;
}

let traced_pass spec steps =
  let n = Array.length steps in
  let sched = create spec in
  let gs = Cs.graph_state sched in
  let outcomes = Bytes.make n '?' in
  let deletions = ref [] in
  let oracle = timer () and rules = timer () and policy = timer () and stats = timer () in
  let bench = timer () in
  let active = ref 0 and offered = ref 0 and deleted = ref 0 in
  let resident_sum = ref 0 and resident_peak = ref 0 in
  let t_start = ref (Clock.now_ns ()) in
  for i = 0 to n - 1 do
    if i = spec.warmup then begin
      List.iter (fun tm -> tm.ns <- 0; tm.calls <- 0) [ oracle; rules; policy; stats; bench ];
      offered := 0;
      deleted := 0;
      resident_sum := 0;
      resident_peak := 0;
      t_start := Clock.now_ns ()
    end;
    let s = steps.(i) in
    (match time_call bench (fun () -> cycle_query gs s) with
    | Some (into, sources) -> ignore (time_call oracle (fun () -> Gs.would_cycle gs ~into ~sources))
    | None -> ());
    let o = time_call rules (fun () -> Rules.apply gs s) in
    Bytes.set outcomes i (rules_code o);
    (match o with
    | Rules.Ignored -> ()
    | Rules.Accepted | Rules.Rejected ->
        time_call bench (fun () ->
            (* a begin makes a transaction active; its commit or abort ends that *)
            (match (o, s) with
            | Rules.Accepted, Step.Begin _ -> incr active
            | Rules.Accepted, Step.Read _ -> ()
            | _ -> decr active);
            offered := !offered + Gs.txn_count gs - !active);
        let d = time_call policy (fun () -> Policy.run spec.policy gs) in
        if not (Intset.is_empty d) then begin
          deletions := (i + 1, d) :: !deletions;
          deleted := !deleted + Intset.cardinal d
        end);
    time_call bench (fun () ->
        let r = Gs.txn_count gs in
        resident_sum := !resident_sum + r;
        resident_peak := max !resident_peak r);
    if spec.stats_every > 0 && (i + 1) mod spec.stats_every = 0 then
      ignore (Sys.opaque_identity (time_call stats (fun () -> Cs.stats sched)))
  done;
  let total_ns = Clock.now_ns () - !t_start in
  let f = float_of_int in
  {
    rows =
      [ ("graph.oracle (would_cycle)", oracle); ("deletion.rules (apply)", rules);
        ("deletion.policy (run)", policy); ("scheduler.stats", stats);
        ("benchmark bookkeeping", bench) ];
    total_ns;
    offered = !offered;
    deleted = !deleted;
    resident_sum = !resident_sum;
    resident_peak = !resident_peak;
    end_state =
      [
        Report.metric "deletion.graph_state.entities_retained" (f (Intset.cardinal (Gs.entities gs)));
        Report.metric "deletion.graph_state.tombstones"
          (f (Intset.cardinal (Gs.aborted_txns gs) + Intset.cardinal (Gs.deleted_txns gs)));
        Report.metric "deletion.graph_state.resident_bytes_end" (f (Gs.resident_bytes gs));
      ];
    traced_digest = digest outcomes (List.rev !deletions);
  }

(* Untraced and traced passes over the first pass's inputs, alternating
   until [seconds] are up: the layer timers are summed over the traced
   passes, the trace overhead is the median of the pairs' ratios. *)
let traced spec ~seed ~seconds =
  let seed = pass_seed ~seed 0 in
  let steps = spec.build ~seed in
  let pairs =
    repeat ~seconds (fun _ ->
        let reference = timed_pass ~steps spec ~seed ~heap:false in
        (reference, traced_pass spec steps))
  in
  let traced = List.map snd pairs in
  let last = List.nth traced (List.length traced - 1) in
  let sum f = List.fold_left (fun acc p -> acc + f p) 0 traced in
  let rows = merge_rows (List.map (fun p -> p.rows) traced) in
  let row name = List.assoc name rows in
  let total = sum (fun p -> p.total_ns) in
  let unattributed = total - List.fold_left (fun acc (_, tm) -> acc + tm.ns) 0 rows in
  let steps_measured = List.length traced * (Array.length steps - spec.warmup) in
  let problems =
    pass_problems (List.map fst pairs)
    @
    if List.for_all (fun (r, t) -> t.traced_digest = r.digest) pairs then []
    else [ "traced re-drive made different decisions from the timed run" ]
  in
  let per_step x = float_of_int x /. float_of_int steps_measured in
  let offered = sum (fun p -> p.offered) and deleted = sum (fun p -> p.deleted) in
  let oracle = row "graph.oracle (would_cycle)" in
  let m = Report.metric in
  let metrics =
    [
      m "graph.oracle.query_ns" (per_call oracle);
      m "graph.oracle.queries_per_step" (per_step oracle.calls);
      m "deletion.rules.apply_ns" (per_call (row "deletion.rules (apply)"));
      m "deletion.policy.run_ns" (per_call (row "deletion.policy (run)"));
      m "deletion.policy.yield"
        (if offered = 0 then 0. else float_of_int deleted /. float_of_int offered)
        ~note:(Printf.sprintf "%d deleted of %d offered" deleted offered);
      m "deletion.graph_state.resident_txns_mean" (per_step (sum (fun p -> p.resident_sum)));
      m "deletion.graph_state.resident_txns_peak" (float_of_int last.resident_peak);
      m "ledger.traced_step_ns" (per_step total);
      m "unattributed_ns" (per_step unattributed);
      m "telemetry.trace_overhead"
        (Samples.median
           (List.map (fun (r, t) -> float_of_int r.summary.run_ns /. float_of_int t.total_ns) pairs))
        ~note:(Printf.sprintf "median of %d pairs" (List.length pairs));
    ]
    @ last.end_state
    @ if spec.stats_every > 0 then [ m "scheduler.stats_ns" (per_call (row "scheduler.stats")) ] else []
  in
  let ledger =
    List.map (fun (name, tm) -> (name, float_of_int tm.ns)) rows
    @ [ ("unattributed", float_of_int unattributed) ]
  in
  (metrics, ledger, problems, steps_measured)
