(* Metamorphic properties of the deletability index: the index backend
   is a cost profile, not a semantics.  For every graph model and every
   deletion policy, a full simulation under --gc-index naive,
   incremental and checked must produce byte-for-byte identical decision
   traces — same per-step outcomes, same deletions at the same steps,
   same telemetry outcome counters, same final graph.  [checked] runs
   naive and incremental in lock-step and raises on the first
   divergence, so merely completing is itself the differential.  The
   engine sweep (same 240-comparison shape as [test_engine.ml]) runs
   with the checked index at every GC site: coordinator, shards, and the
   single-node reference. *)

module Q = QCheck
module Intset = Dct_graph.Intset
module Digraph = Dct_graph.Digraph
module Oracle = Dct_graph.Cycle_oracle
module Step = Dct_txn.Step
module Gs = Dct_deletion.Graph_state
module C1 = Dct_deletion.Condition_c1
module Rules = Dct_deletion.Rules
module Policy = Dct_deletion.Policy
module Dindex = Dct_deletion.Deletability_index
module Cs = Dct_sched.Conflict_scheduler
module Pd = Dct_sched.Predeclared_scheduler
module Mw = Dct_sched.Multiwrite_scheduler
module Si = Dct_sched.Scheduler_intf
module Tracer = Dct_telemetry.Tracer
module Metrics = Dct_telemetry.Metrics
module Eng = Dct_engine.Engine
module Gen = Dct_workload.Generator

let check = Alcotest.(check bool)
let outcome_name = Si.outcome_name

let rec take n = function
  | [] -> []
  | _ when n = 0 -> []
  | x :: tl -> x :: take (n - 1) tl

let profile ?(n_txns = 50) ?(n_entities = 14) ?(mpl = 6) seed =
  { Gen.default with Gen.n_txns; n_entities; mpl; seed }

(* ------------------------------------------------------------------ *)
(* holds_fast = holds, pointwise, on random mid-flight states          *)

let state_of_seed seed =
  let schedule = Gen.basic (profile ~n_txns:12 ~n_entities:5 ~mpl:3 seed) in
  let prefix = take (List.length schedule * 2 / 3) schedule in
  let gs = Gs.create () in
  ignore (Rules.apply_all gs prefix);
  gs

let seed_arb = Q.make ~print:string_of_int Q.Gen.(1 -- 10_000)

let holds_fast_is_holds =
  Q.Test.make ~name:"holds_fast = holds (pointwise)" ~count:150 seed_arb
    (fun seed ->
      let gs = state_of_seed seed in
      let memo = C1.hashtbl_memo () in
      Intset.for_all
        (fun ti ->
          C1.holds gs ti = C1.holds_fast gs ti
          && C1.holds gs ti = C1.holds_fast ~memo gs ti)
        (Gs.completed_txns gs))

let eligible_agrees =
  Q.Test.make ~name:"C1.eligible = filter holds" ~count:100 seed_arb
    (fun seed ->
      let gs = state_of_seed seed in
      Intset.equal (C1.eligible gs)
        (Intset.filter (C1.holds gs) (Gs.completed_txns gs)))

(* Corollary 1's set, maintained by the graph state, against its
   per-entity reference. *)
let noncurrent_agrees gs ~after =
  let reference = Intset.filter (C1.noncurrent gs) (Gs.completed_txns gs) in
  if not (Intset.equal (Gs.noncurrent_completed gs) reference) then
    Q.Test.fail_reportf "noncurrent diverged after %s: maintained %s, naive %s"
      (Step.to_string after)
      (Format.asprintf "%a" Intset.pp (Gs.noncurrent_completed gs))
      (Format.asprintf "%a" Intset.pp reference)

(* An incrementally maintained index must answer exactly like a naive
   one at every step of a live run, whatever mutations the schedule
   throws at it — this is Checked mode's own assertion, re-stated from
   outside against a second, independent graph replica. *)
let index_tracks_reference =
  Q.Test.make ~name:"incremental index = naive, stepwise" ~count:60 seed_arb
    (fun seed ->
      let schedule = Gen.basic (profile ~n_txns:15 ~n_entities:6 ~mpl:4 seed) in
      let gs = Gs.create () in
      let idx = Dindex.attach Dindex.Incremental gs in
      List.iter
        (fun s ->
          ignore (Rules.apply gs s);
          if not (Intset.equal (Dindex.eligible idx) (C1.eligible gs)) then
            Q.Test.fail_reportf "eligible diverged after %s"
              (Step.to_string s);
          noncurrent_agrees gs ~after:s;
          (* interleave deletions so the index also sees bypass removals *)
          ignore (Policy.run ~index:idx Policy.Greedy_c1 gs))
        schedule;
      true)

(* The multi-write model is the one path where an abort rolls a write
   back: a cascade makes the older accessors of each entity its doomed
   writers touched current again, and can take a finished reader back
   out of the noncurrent set. *)
let noncurrent_tracks_cascades =
  Q.Test.make ~name:"noncurrent = naive under cascading aborts, stepwise"
    ~count:60 seed_arb (fun seed ->
      let schedule =
        Gen.multiwrite (profile ~n_txns:30 ~n_entities:5 ~mpl:5 seed)
      in
      let mw = Mw.create ~deletion:(Mw.C3_exact 8) () in
      List.iter
        (fun s ->
          ignore (Mw.step mw s);
          noncurrent_agrees (Mw.graph_state mw) ~after:s)
        schedule;
      true)

(* ------------------------------------------------------------------ *)
(* Basic model: full decision-trace equality across index backends     *)

let run_basic ?gc_index ~policy ~oracle schedule =
  let registry = Metrics.create () in
  let tracer = Tracer.create ~metrics:registry ~sink:Dct_telemetry.Sink.null () in
  let t = Cs.create ~policy ?oracle ~tracer ?gc_index () in
  let outcomes =
    List.map (fun s -> outcome_name (Cs.step t s)) schedule
  in
  let deletions =
    List.map
      (fun (step, set) -> (step, Intset.to_sorted_list set))
      (Cs.deleted_log t)
  in
  let st = Cs.stats t in
  let outcome_counters =
    List.sort compare
      (List.filter
         (fun (k, _) -> String.length k >= 8 && String.sub k 0 8 = "outcome.")
         (Metrics.counters registry))
  in
  ( outcomes,
    deletions,
    (st.Si.committed_total, st.Si.aborted_total, st.Si.deleted_total),
    outcome_counters,
    Gs.graph (Cs.graph_state t) )

let test_basic_backends_agree () =
  List.iter
    (fun policy ->
      List.iter
        (fun oracle ->
          List.iter
            (fun seed ->
              let schedule = Gen.basic (profile seed) in
              let o_n, d_n, s_n, c_n, g_n =
                run_basic ~policy ~oracle schedule
              in
              let o_i, d_i, s_i, c_i, g_i =
                run_basic ~gc_index:Dindex.Incremental ~policy ~oracle
                  schedule
              in
              let o_c, d_c, s_c, c_c, g_c =
                run_basic ~gc_index:Dindex.Checked ~policy ~oracle schedule
              in
              let name what =
                Printf.sprintf "%s/%s/seed %d: %s" (Policy.name policy)
                  (match oracle with
                  | None -> "default"
                  | Some b -> Oracle.backend_name b)
                  seed what
              in
              Alcotest.(check (list string))
                (name "outcomes naive=incremental") o_n o_i;
              Alcotest.(check (list string))
                (name "outcomes incremental=checked") o_i o_c;
              Alcotest.(check (list (pair int (list int))))
                (name "deletions naive=incremental") d_n d_i;
              Alcotest.(check (list (pair int (list int))))
                (name "deletions incremental=checked") d_i d_c;
              Alcotest.(check (triple int int int))
                (name "stats naive=incremental") s_n s_i;
              Alcotest.(check (triple int int int))
                (name "stats incremental=checked") s_i s_c;
              Alcotest.(check (list (pair string int)))
                (name "telemetry outcome counters naive=incremental") c_n c_i;
              Alcotest.(check (list (pair string int)))
                (name "telemetry outcome counters incremental=checked") c_i c_c;
              check (name "graph naive=incremental") true
                (Digraph.equal g_n g_i);
              check (name "graph incremental=checked") true
                (Digraph.equal g_i g_c))
            [ 5; 23; 71 ])
        [ None; Some Oracle.Closure ])
    Policy.all_correct

(* ------------------------------------------------------------------ *)
(* Predeclared (C4) and multiwrite (C3 fallback + quick_reject check)  *)

let run_predeclared ?gc_index schedule =
  let t = Pd.create ~use_c4_deletion:true ?gc_index () in
  let outcomes = List.map (fun s -> outcome_name (Pd.step t s)) schedule in
  let drained = Pd.drain t in
  let st = Pd.stats t in
  ( outcomes,
    drained,
    (st.Si.committed_total, st.Si.aborted_total, st.Si.deleted_total),
    Gs.graph (Pd.graph_state t) )

let test_predeclared_backends_agree () =
  List.iter
    (fun seed ->
      let schedule = Gen.predeclared (profile ~n_entities:10 seed) in
      let o_n, dr_n, s_n, g_n = run_predeclared schedule in
      let o_i, dr_i, s_i, g_i =
        run_predeclared ~gc_index:Dindex.Incremental schedule
      in
      let o_c, dr_c, s_c, g_c =
        run_predeclared ~gc_index:Dindex.Checked schedule
      in
      let name what = Printf.sprintf "c4/seed %d: %s" seed what in
      Alcotest.(check (list string)) (name "outcomes naive=incremental") o_n o_i;
      Alcotest.(check (list string)) (name "outcomes incremental=checked") o_i o_c;
      Alcotest.(check int) (name "drained naive=incremental") dr_n dr_i;
      Alcotest.(check int) (name "drained incremental=checked") dr_i dr_c;
      Alcotest.(check (triple int int int)) (name "stats naive=incremental") s_n s_i;
      Alcotest.(check (triple int int int)) (name "stats incremental=checked") s_i s_c;
      check (name "graph naive=incremental") true (Digraph.equal g_n g_i);
      check (name "graph incremental=checked") true (Digraph.equal g_i g_c))
    [ 5; 23; 71; 9 ]

let run_multiwrite ?gc_index schedule =
  let t = Mw.create ~deletion:(Mw.C3_exact 8) ?gc_index () in
  let outcomes = List.map (fun s -> outcome_name (Mw.step t s)) schedule in
  let st = Mw.stats t in
  ( outcomes,
    (st.Si.committed_total, st.Si.aborted_total, st.Si.deleted_total),
    Gs.graph (Mw.graph_state t) )

let test_multiwrite_backends_agree () =
  List.iter
    (fun seed ->
      let schedule = Gen.multiwrite (profile ~n_txns:60 ~n_entities:12 seed) in
      let o_n, s_n, g_n = run_multiwrite schedule in
      let o_i, s_i, g_i = run_multiwrite ~gc_index:Dindex.Incremental schedule in
      (* Checked additionally cross-checks quick_reject against the
         exact enumeration on every candidate. *)
      let o_c, s_c, g_c = run_multiwrite ~gc_index:Dindex.Checked schedule in
      let name what = Printf.sprintf "c3/seed %d: %s" seed what in
      Alcotest.(check (list string)) (name "outcomes naive=incremental") o_n o_i;
      Alcotest.(check (list string)) (name "outcomes incremental=checked") o_i o_c;
      Alcotest.(check (triple int int int)) (name "stats naive=incremental") s_n s_i;
      Alcotest.(check (triple int int int)) (name "stats incremental=checked") s_i s_c;
      check (name "graph naive=incremental") true (Digraph.equal g_n g_i);
      check (name "graph incremental=checked") true (Digraph.equal g_i g_c))
    [ 9; 31; 77 ]

(* ------------------------------------------------------------------ *)
(* The index actually indexes: most refreshes are incremental, and the
   verdicts re-checked are a strict subset of what the naive path would
   re-derive (every completed transaction, every GC round).             *)

let test_index_stats_show_incrementality () =
  let schedule = Gen.basic (profile ~n_txns:200 ~n_entities:48 42) in
  let gs = Gs.create () in
  let idx = Dindex.attach Dindex.Incremental gs in
  let naive_work = ref 0 in
  List.iter
    (fun s ->
      ignore (Rules.apply gs s);
      naive_work := !naive_work + Intset.cardinal (Gs.completed_txns gs);
      ignore (Policy.run ~index:idx Policy.Greedy_c1 gs))
    schedule;
  let stat k = List.assoc k (Dindex.stats idx) in
  check "refreshes happened" true (stat "refreshes" > 0);
  check "at most the initial full rebuild" true (stat "full_rebuilds" <= 1);
  Alcotest.(check bool)
    (Printf.sprintf "rechecks (%d) < naive verdict re-derivations (%d)"
       (stat "rechecks") !naive_work)
    true
    (stat "rechecks" < !naive_work)

(* ------------------------------------------------------------------ *)
(* Engine differential sweep under the checked index                   *)

(* Same shape as test_engine.ml's sweep: 20 profiles x shards {1,2,4,8}
   x policies {Noncurrent, Greedy_c1, Exact_max} = 240 comparisons,
   every one with gc_index Checked at all GC sites. *)
let sweep_profiles =
  let mk ?(txns = 50) ?(entities = 24) ?(mpl = 5) ?(theta = 0.8)
      ?(cross = 0.1) ?(batch = 8) seed =
    (txns, entities, mpl, theta, cross, batch, seed)
  in
  [
    mk 101;
    mk ~theta:0.0 102;
    mk ~theta:1.2 ~entities:12 103;
    mk ~mpl:2 104;
    mk ~mpl:10 ~txns:70 105;
    mk ~batch:1 106;
    mk ~batch:64 107;
    mk ~cross:0.0 108;
    mk ~cross:0.6 109;
    mk ~cross:1.0 ~theta:1.0 110;
    mk ~entities:8 ~theta:1.1 ~mpl:6 111;
    mk ~entities:64 ~txns:80 112;
    mk ~txns:30 ~batch:7 113;
    mk ~txns:90 ~theta:0.99 ~cross:0.25 114;
    mk ~mpl:8 ~theta:0.9 ~batch:16 115;
    mk ~entities:16 ~cross:0.4 ~batch:3 116;
    mk ~theta:0.5 ~mpl:7 117;
    mk ~txns:60 ~entities:32 ~theta:1.05 118;
    mk ~mpl:4 ~cross:0.8 ~batch:32 119;
    mk ~txns:100 ~entities:40 ~theta:0.7 ~batch:12 120;
  ]

let workload ~txns ~entities ~mpl ~theta ~shards ~cross seed =
  Gen.basic
    {
      Gen.default with
      Gen.n_txns = txns;
      n_entities = entities;
      mpl;
      skew = Printf.sprintf "zipf:%g" theta;
      seed;
      shards;
      cross_shard = cross;
    }

let test_engine_differential_checked () =
  let runs = ref 0 in
  List.iter
    (fun (txns, entities, mpl, theta, cross, batch, seed) ->
      List.iter
        (fun shards ->
          let steps = workload ~txns ~entities ~mpl ~theta ~shards ~cross seed in
          List.iter
            (fun policy ->
              incr runs;
              let d =
                Eng.differential ~gc_index:Dindex.Checked ~shards ~batch
                  ~policy steps
              in
              if not (Eng.differential_ok d) then
                Alcotest.failf
                  "profile seed=%d shards=%d batch=%d policy=%s diverged:@\n%a"
                  seed shards batch (Policy.name policy) Eng.pp_differential d)
            [ Policy.Noncurrent; Policy.Greedy_c1; Policy.Exact_max ])
        [ 1; 2; 4; 8 ])
    sweep_profiles;
  check "sweep covers >= 240 runs" true (!runs >= 240)

(* The certifier never deletes, so the CLI refuses to attach an index
   to it, as it does for the schedulers without a conflict graph. *)
let test_certify_refuses_index () =
  let dct = Filename.concat (Filename.concat ".." "bin") "dct.exe" in
  if not (Sys.file_exists dct) then Alcotest.skip ()
  else
    Alcotest.(check int) "certify --gc-index exits 2" 2
      (Sys.command
         (Filename.quote_command dct ~stdout:Filename.null ~stderr:Filename.null
            [ "simulate"; "-m"; "certify"; "--gc-index"; "incremental"; "-n"; "10" ]))

let () =
  let qcheck =
    List.map QCheck_alcotest.to_alcotest
      [
        holds_fast_is_holds;
        eligible_agrees;
        index_tracks_reference;
        noncurrent_tracks_cascades;
      ]
  in
  Alcotest.run "gc_index"
    [
      ("qcheck", qcheck);
      ( "models",
        [
          Alcotest.test_case "basic: naive = incremental = checked" `Slow
            test_basic_backends_agree;
          Alcotest.test_case "predeclared: naive = incremental = checked"
            `Quick test_predeclared_backends_agree;
          Alcotest.test_case "multiwrite: naive = incremental = checked"
            `Quick test_multiwrite_backends_agree;
          Alcotest.test_case "index stats show incrementality" `Quick
            test_index_stats_show_incrementality;
          Alcotest.test_case "certify has no index to attach" `Quick
            test_certify_refuses_index;
        ] );
      ( "engine",
        [
          Alcotest.test_case "240-run differential under checked index" `Slow
            test_engine_differential_checked;
        ] );
    ]
