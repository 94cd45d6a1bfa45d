(* The in-process engine workload: [Engine] with the sequential
   executor, fed a TPC-C-like step stream by one caller.  Like the
   scheduler workloads, a run repeats whole fixed-size passes, each
   over its own seed-generated stream. *)

module Engine = Dct_engine.Engine
module Coordinator = Dct_engine.Coordinator
module Shard = Dct_engine.Shard
module Gs = Dct_deletion.Graph_state
module Rules = Dct_deletion.Rules
module Policy = Dct_deletion.Policy
module Intset = Dct_graph.Intset
module Si = Dct_sched.Scheduler_intf
module Step = Dct_txn.Step
module Mix = Dct_workload.Mix
open Common

let policy = Policy.Greedy_c1
let oracle = Dct_graph.Cycle_oracle.Topo

let config ~shards ~batch = Engine.config ~policy ~oracle ~shards ~batch ()

type spec = { shards : int; batch : int; build : seed:int -> Step.t array }

let tpcc =
  {
    shards = 4;
    batch = 16;
    build =
      (fun ~seed -> Array.of_list (Mix.schedule Mix.Tpcc ~n_txns:3000 ~keys:1024 ~mpl:8 ~seed));
  }

type pass = {
  summary : summary;  (** latency: submit to decision, in submission order *)
  digest : string;
  serializable : bool;  (** the committed projection passed the [ser] checker *)
  reported_committed : int;  (** [Engine.report]'s count *)
  undecided : int;
}

(* Submit every step, then flush the last partial batch.  A step's
   latency runs from the start of its [submit] to its [on_step]
   decision, which for all but the batch-filling step happens inside a
   later step's [submit]. *)
let timed_pass ?steps spec ~seed ~heap =
  let t0 = Clock.now_ns () in
  let steps = match steps with Some s -> s | None -> spec.build ~seed in
  let n = Array.length steps in
  let outcomes = Bytes.make n '?' in
  let lat = Array.make n 0 in
  let live0, paused = heap_baseline ~heap in
  let eng = Engine.create (config ~shards:spec.shards ~batch:spec.batch) in
  let committed = ref 0 in
  Engine.set_on_step eng
    (Some
       (fun idx step o ->
         let i = idx - 1 in
         lat.(i) <- Clock.now_ns () - lat.(i);
         Bytes.unsafe_set outcomes i (code o);
         match (o, step) with Si.Accepted, Step.Write _ -> incr committed | _ -> ()));
  let setup_ns = Clock.now_ns () - t0 - paused in
  let t1 = Clock.now_ns () in
  for i = 0 to n - 1 do
    lat.(i) <- Clock.now_ns ();
    Engine.submit eng steps.(i)
  done;
  Engine.tick eng;
  let run_ns = Clock.now_ns () - t1 in
  let retained_words = if heap then live_words () - live0 else 0 in
  {
    summary = { lat; run_ns; committed = !committed; setup_ns; retained_words };
    digest = digest outcomes [];
    serializable = serializable steps outcomes;
    reported_committed = (Engine.report eng ~wall_seconds:0.).Engine.committed;
    undecided = Bytes.fold_left (fun acc c -> if c = '?' then acc + 1 else acc) 0 outcomes;
  }

(* The gates every pass must clear, timed or the traced run's reference. *)
let pass_problems passes =
  List.concat
    (List.mapi
       (fun k p ->
         (if p.serializable then []
          else [ Printf.sprintf "pass %d: committed projection fails the ser checker" k ])
         @ (if p.reported_committed = p.summary.committed then []
            else [ Printf.sprintf "pass %d: engine-reported commits differ from observed" k ])
         @
         if p.undecided = 0 then []
         else [ Printf.sprintf "pass %d: %d submitted steps never decided" k p.undecided ])
       passes)

let timed spec ~seed ~seconds =
  let passes =
    repeat ~seconds (fun k -> timed_pass spec ~seed:(pass_seed ~seed k) ~heap:(k = 0))
  in
  (List.map (fun p -> p.summary) passes, pass_problems passes)

(* One traced round: an engine driven over [steps] with every
   [submit]/[tick] call timed, then a standalone coordinator fed the
   same steps in decision order the way [Engine] drives it — decide,
   then one GC round unless the step was ignored — with the cycle query
   Rule 2/3 will make issued before each decision. *)
type round = {
  submit : timer;
  total_ns : int;  (** the whole engine loop *)
  decide : timer;
  gc : timer;
  query : timer;
  resident_sum : int;
  resident_peak : int;
  engine_digest : string;
  replay_agrees : bool;  (** the replay decided exactly as the engine *)
  end_state : Report.metric list;
}

let traced_round spec steps =
  let n = Array.length steps in
  let eng = Engine.create (config ~shards:spec.shards ~batch:spec.batch) in
  let outcomes = Bytes.make n '?' in
  Engine.set_on_step eng (Some (fun idx _ o -> Bytes.unsafe_set outcomes (idx - 1) (code o)));
  let submit = timer () in
  let t0 = Clock.now_ns () in
  Array.iter (fun s -> time_call submit (fun () -> Engine.submit eng s)) steps;
  time_call submit (fun () -> Engine.tick eng);
  let total_ns = Clock.now_ns () - t0 in
  let c = Coordinator.create ~policy ~oracle () in
  let gs = Coordinator.graph_state c in
  let replayed = Bytes.make n '?' in
  let decide = timer () and gc = timer () and query = timer () in
  let resident_sum = ref 0 and resident_peak = ref 0 in
  Array.iteri
    (fun i s ->
      (match cycle_query gs s with
      | Some (into, sources) -> ignore (time_call query (fun () -> Gs.would_cycle gs ~into ~sources))
      | None -> ());
      let o = time_call decide (fun () -> Coordinator.decide c s) in
      Bytes.set replayed i (rules_code o);
      (match o with
      | Rules.Ignored -> ()
      | Rules.Accepted | Rules.Rejected -> ignore (time_call gc (fun () -> Coordinator.collect_garbage c)));
      let r = Gs.txn_count gs in
      resident_sum := !resident_sum + r;
      resident_peak := max !resident_peak r)
    steps;
  let r = Engine.report eng ~wall_seconds:0. in
  let shard_sum f = Array.fold_left (fun acc s -> acc + f s) 0 r.Engine.shard_stats in
  let m = Report.metric and f = float_of_int in
  {
    submit;
    total_ns;
    decide;
    gc;
    query;
    resident_sum = !resident_sum;
    resident_peak = !resident_peak;
    engine_digest = digest outcomes [];
    replay_agrees = Bytes.equal replayed outcomes;
    end_state =
      [
        m "deletion.graph_state.entities_retained" (f (Intset.cardinal (Gs.entities gs)));
        m "deletion.graph_state.tombstones"
          (f (Intset.cardinal (Gs.aborted_txns gs) + Intset.cardinal (Gs.deleted_txns gs)));
        m "deletion.graph_state.resident_bytes_end" (f (Gs.resident_bytes gs));
        m "engine.coordinator.resident_hwm" (f r.Engine.coordinator.Coordinator.resident_hwm);
        m "engine.shard.resident_hwm" (f r.Engine.shard_resident_hwm);
        m "engine.cross_shard_arcs" (f r.Engine.cross_shard_arcs);
        m "engine.distributed_txns" (f r.Engine.distributed_txns);
        m "engine.shard.wal_retained" (f (shard_sum (fun s -> s.Shard.wal_retained)));
        m "engine.shard.store_versions" (f (shard_sum (fun s -> s.Shard.store_versions)));
      ];
  }

(* Untraced passes and traced rounds over the first pass's inputs, in
   turn until [seconds] are up. *)
let traced spec ~seed ~seconds =
  let seed = pass_seed ~seed 0 in
  let steps = spec.build ~seed in
  let pairs =
    repeat ~seconds (fun _ ->
        let reference = timed_pass ~steps spec ~seed ~heap:false in
        (reference, traced_round spec steps))
  in
  let rounds = List.map snd pairs in
  let last = List.nth rounds (List.length rounds - 1) in
  let problems =
    pass_problems (List.map fst pairs)
    @ (if List.for_all (fun (p, r) -> r.engine_digest = p.digest) pairs then []
     else [ "traced engine made different decisions from the timed run" ])
    @
    if List.for_all (fun r -> r.replay_agrees) rounds then []
    else [ "standalone coordinator replay made different decisions from the engine" ]
  in
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 rounds in
  let rows =
    merge_rows
      (List.map (fun r -> [ ("submit", r.submit); ("decide", r.decide); ("gc", r.gc); ("query", r.query) ])
         rounds)
  in
  let row name = List.assoc name rows in
  let submit = (row "submit").ns and decide = (row "decide").ns and gc = (row "gc").ns in
  let total = sum (fun r -> r.total_ns) in
  let steps_measured = Array.length steps * List.length rounds in
  let per_step x = float_of_int x /. float_of_int steps_measured in
  let m = Report.metric in
  let metrics =
    [
      m "graph.oracle.query_ns" (per_call (row "query"));
      m "graph.oracle.queries_per_step" (per_step (row "query").calls);
      m "deletion.graph_state.resident_txns_mean" (per_step (sum (fun r -> r.resident_sum)));
      m "deletion.graph_state.resident_txns_peak" (float_of_int last.resident_peak);
      m "engine.submit_ns" (per_step submit) ~note:"per step";
      m "engine.coordinator.decide_ns" (per_step decide) ~note:"per step, standalone replay";
      m "engine.coordinator.gc_ns" (per_step gc) ~note:"per step, standalone replay";
      m "engine.shards_ns" (per_step (submit - decide - gc)) ~note:"submit - coordinator";
      m "ledger.traced_step_ns" (per_step total);
      m "unattributed_ns" (per_step (total - submit));
      m "telemetry.trace_overhead"
        (Samples.median
           (List.map (fun (p, r) -> float_of_int p.summary.run_ns /. float_of_int r.total_ns) pairs))
        ~note:(Printf.sprintf "median of %d pairs" (List.length pairs));
    ]
    @ last.end_state
  in
  let ledger =
    [
      ("engine.coordinator (decide)", float_of_int decide);
      ("engine.coordinator (gc)", float_of_int gc);
      ("engine.shards (submit - coordinator)", float_of_int (submit - decide - gc));
      ("unattributed", float_of_int (total - submit));
    ]
  in
  (metrics, ledger, problems, steps_measured)
