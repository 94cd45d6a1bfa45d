(* The sharded engine's contracts:

   - Partitioner: hash and range placement, spec parsing/printing;
   - Admission: deterministic batch boundaries, tick flushes, counters;
   - Engine bookkeeping: counter identities, config validation, trace
     emission through the coordinator's tracer;
   - the residency invariant observed live, mid-run: no shard ever
     holds more resident transactions than the coordinator;
   - DIFFERENTIAL (the tentpole guarantee): across 20 workload
     profiles x shards {1,2,4,8} x policies {Noncurrent, Greedy_c1,
     Exact_max} — 240 runs on the Inline executor — every step's
     outcome equals the single-node SGT scheduler's on the same merged
     step sequence, per-shard residency never exceeds single-node
     residency at the same step, deletion rounds match, and the sharded
     stores agree with the single-node store entity by entity. *)

module Eng = Dct_engine.Engine
module Partitioner = Dct_engine.Partitioner
module Admission = Dct_engine.Admission
module Shard = Dct_engine.Shard
module Coordinator = Dct_engine.Coordinator
module Policy = Dct_deletion.Policy
module Step = Dct_txn.Step
module Gen = Dct_workload.Generator
module E = Dct_telemetry.Event
module Sink = Dct_telemetry.Sink
module Tracer = Dct_telemetry.Tracer

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- partitioner --- *)

let test_partitioner_hash () =
  let p = Partitioner.hash ~shards:4 in
  check_int "shards" 4 (Partitioner.shards p);
  for e = 0 to 20 do
    check_int "entity mod shards" (e mod 4) (Partitioner.shard_of p e)
  done;
  Alcotest.(check string) "spec" "hash" (Partitioner.spec p)

let test_partitioner_range () =
  let p = Partitioner.range ~shards:3 ~span:10 in
  check_int "first span" 0 (Partitioner.shard_of p 9);
  check_int "second span" 1 (Partitioner.shard_of p 10);
  check_int "third span" 2 (Partitioner.shard_of p 29);
  (* Entities past the last span wrap round-robin by span. *)
  check "beyond spans stays in range" true
    (let s = Partitioner.shard_of p 31 in
     s >= 0 && s < 3);
  Alcotest.(check string) "spec" "range:10" (Partitioner.spec p)

let test_partitioner_of_string () =
  check "hash parses" true
    (match Partitioner.of_string "hash" ~shards:2 with
    | Ok p -> Partitioner.spec p = "hash"
    | Error _ -> false);
  check "range parses" true
    (match Partitioner.of_string "range:16" ~shards:2 with
    | Ok p -> Partitioner.spec p = "range:16"
    | Error _ -> false);
  check "garbage rejected" true
    (Result.is_error (Partitioner.of_string "mod:3" ~shards:2));
  check "bad span rejected" true
    (Result.is_error (Partitioner.of_string "range:0" ~shards:2))

(* --- admission --- *)

let test_admission_batching () =
  let a = Admission.create ~batch:3 in
  let s i = Step.Begin i in
  check "first submit buffers" true (Admission.submit a (s 1) = None);
  check "second submit buffers" true (Admission.submit a (s 2) = None);
  (match Admission.submit a (s 3) with
  | Some [ Step.Begin 1; Step.Begin 2; Step.Begin 3 ] -> ()
  | Some _ -> Alcotest.fail "batch out of order"
  | None -> Alcotest.fail "third submit should flush the batch");
  check "drained" true (Admission.pending a = 0);
  ignore (Admission.submit a (s 4));
  (match Admission.tick a with
  | [ Step.Begin 4 ] -> ()
  | _ -> Alcotest.fail "tick should flush the partial batch");
  check_int "empty tick" 0 (List.length (Admission.tick a));
  check_int "submitted" 4 (Admission.submitted a);
  check_int "full batches" 1 (Admission.full_batches a);
  check "ticks counted" true (Admission.ticks a >= 1);
  check "batch 0 rejected" true
    (try
       ignore (Admission.create ~batch:0);
       false
     with Invalid_argument _ -> true)

(* --- engine bookkeeping --- *)

let workload ?(txns = 60) ?(entities = 24) ?(mpl = 6) ?(theta = 0.8)
    ?(shards = 1) ?(cross = 0.1) seed =
  Gen.basic
    {
      Gen.default with
      Gen.n_txns = txns;
      n_entities = entities;
      mpl;
      skew = (if theta <= 0.0 then "uniform" else Printf.sprintf "zipf:%.2f" theta);
      shards;
      cross_shard = cross;
      seed;
    }

let test_config_validation () =
  check "shards 0 rejected" true
    (try
       ignore (Eng.config ~shards:0 ~batch:4 ());
       false
     with Invalid_argument _ -> true);
  check "batch 0 rejected" true
    (try
       ignore (Eng.config ~shards:2 ~batch:0 ());
       false
     with Invalid_argument _ -> true);
  check "partitioner mismatch rejected" true
    (try
       ignore
         (Eng.config ~shards:2 ~batch:4
            ~partitioner:(Partitioner.hash ~shards:3) ());
       false
     with Invalid_argument _ -> true)

let test_engine_counters () =
  let eng = Eng.create (Eng.config ~shards:4 ~batch:8 ()) in
  let steps = workload ~shards:4 7 in
  let r = Eng.run eng steps in
  check_int "all submitted" (List.length steps) r.Eng.submitted;
  check_int "all processed" r.Eng.submitted r.Eng.steps;
  check_int "outcomes partition the steps" r.Eng.steps
    (r.Eng.accepted + r.Eng.rejected + r.Eng.ignored);
  check "some commits" true (r.Eng.committed > 0);
  check "commits bounded by accepts" true (r.Eng.committed <= r.Eng.accepted);
  check "shard peak <= coordinator peak" true
    (r.Eng.shard_resident_hwm <= r.Eng.coordinator.Coordinator.resident_hwm);
  let shard_committed =
    Array.fold_left
      (fun acc (s : Shard.stats) -> acc + s.Shard.committed)
      0 r.Eng.shard_stats
  in
  (* Completion broadcast: every hosting shard commits the txn, so the
     per-shard sum is at least the global count. *)
  check "broadcast commits cover global" true
    (shard_committed >= r.Eng.committed);
  check "arcs classified" true (r.Eng.cross_shard_arcs + r.Eng.local_arcs >= 0)

let test_engine_trace_emitted () =
  let buf = Buffer.create 1024 in
  let tracer = Tracer.create ~sink:(Sink.memory buf) () in
  let eng = Eng.create (Eng.config ~shards:2 ~batch:4 ~tracer ()) in
  let steps = workload ~txns:20 ~shards:2 3 in
  let r = Eng.run eng steps in
  let events, errors = Sink.parse_string_lenient (Buffer.contents buf) in
  check_int "trace parses cleanly" 0 (List.length errors);
  let submissions =
    List.length
      (List.filter
         (function E.Step_submitted _ -> true | _ -> false)
         events)
  in
  let decisions =
    List.length
      (List.filter (function E.Decision _ -> true | _ -> false) events)
  in
  check_int "one submission event per step" r.Eng.steps submissions;
  check_int "one decision event per step" r.Eng.steps decisions

let test_residency_invariant_live () =
  (* Observed after every decided step, not just at the end: no shard's
     resident set ever outgrows the coordinator's.  The default Inline
     executor leaves shard state readable between steps. *)
  let eng = Eng.create (Eng.config ~shards:4 ~batch:5 ()) in
  let violated = ref None in
  let on_step index _step _outcome =
    let coord = (Coordinator.stats (Eng.coordinator eng)).Coordinator.resident_txns in
    for shard = 0 to Eng.shard_count eng - 1 do
      let r = Dct_deletion.Graph_state.txn_count (Shard.graph_state (Eng.shard eng shard)) in
      if r > coord && !violated = None then violated := Some (index, shard, r, coord)
    done
  in
  ignore (Eng.run ~on_step eng (workload ~txns:80 ~shards:4 ~cross:0.3 11));
  match !violated with
  | None -> ()
  | Some (i, s, r, c) ->
      Alcotest.failf "step %d: shard %d resident %d > coordinator %d" i s r c

(* --- the differential sweep --- *)

(* 20 profiles spanning contention (uniform to theta=1.2), scale,
   concurrency, batch size and cross-shard traffic.  Each runs under
   shards {1,2,4,8} x policies {Noncurrent, Greedy_c1, Exact_max}:
   240 engine-vs-single-node comparisons. *)
let profiles =
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

let shard_counts = [ 1; 2; 4; 8 ]
let policies = [ Policy.Noncurrent; Policy.Greedy_c1; Policy.Exact_max ]

let test_differential_sweep () =
  let runs = ref 0 in
  List.iter
    (fun (txns, entities, mpl, theta, cross, batch, seed) ->
      List.iter
        (fun shards ->
          (* Generate with matching affinity so the workload actually
             exercises the partitioning it runs under. *)
          let steps =
            workload ~txns ~entities ~mpl ~theta ~shards ~cross seed
          in
          List.iter
            (fun policy ->
              incr runs;
              let d = Eng.differential ~shards ~batch ~policy steps in
              if not (Eng.differential_ok d) then
                Alcotest.failf
                  "profile seed=%d shards=%d batch=%d policy=%s diverged:@\n%a"
                  seed shards batch (Policy.name policy) Eng.pp_differential d;
              check "shard peak <= single-node peak" true
                (d.Eng.engine_shard_peak <= d.Eng.single_peak))
            policies)
        shard_counts)
    profiles;
  check "sweep covers >= 240 runs" true (!runs >= 240)

let test_differential_range_partitioner () =
  (* The exactness argument is partitioner-independent; spot-check the
     range partitioner too. *)
  List.iter
    (fun span ->
      let steps = workload ~txns:60 ~entities:32 ~theta:0.9 21 in
      let partitioner = Partitioner.range ~shards:4 ~span in
      let d =
        Eng.differential ~partitioner ~shards:4 ~batch:8
          ~policy:Policy.Greedy_c1 steps
      in
      if not (Eng.differential_ok d) then
        Alcotest.failf "range:%d diverged:@\n%a" span Eng.pp_differential d)
    [ 1; 8; 16 ]

let () =
  Alcotest.run "engine"
    [
      ( "partitioner",
        [
          Alcotest.test_case "hash placement" `Quick test_partitioner_hash;
          Alcotest.test_case "range placement" `Quick test_partitioner_range;
          Alcotest.test_case "spec parsing" `Quick test_partitioner_of_string;
        ] );
      ( "admission",
        [ Alcotest.test_case "batch boundaries" `Quick test_admission_batching ] );
      ( "engine",
        [
          Alcotest.test_case "config validation" `Quick test_config_validation;
          Alcotest.test_case "counter identities" `Quick test_engine_counters;
          Alcotest.test_case "trace emission" `Quick test_engine_trace_emitted;
          Alcotest.test_case "live residency invariant" `Quick
            test_residency_invariant_live;
        ] );
      ( "differential",
        [
          Alcotest.test_case "240-run sweep vs single-node SGT" `Slow
            test_differential_sweep;
          Alcotest.test_case "range partitioner spot-check" `Quick
            test_differential_range_partitioner;
        ] );
    ]
