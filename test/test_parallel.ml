(* The engine's executors, held to the Inline reference:

   - DIFFERENTIAL MATRIX: seed x shard-count x batch-size x policy — 240
     runs through the seeded-interleaving Replay executor — asserting
     identical decisions and deletion rounds against the single-node
     SGT scheduler, and identical per-shard state (residents, stores,
     WALs, counters) and JSONL traces against the Inline executor.  A
     smaller matrix runs through real Domain.spawn appliers; the large
     real-domain matrix skips (and says so) on single-core runners,
     where Replay carries the guarantee.

   - EXECUTOR INDEPENDENCE: every replay seed, a real-domain run and
     the Inline run land on one snapshot, on the pipelined (untraced)
     path.

   - MUTATION CHECKS: a dropped broadcast-GC message and a reordered
     cross-shard batch (test-only fault hooks) must each make the
     differential fail — pinned here as expected-failure cases, or the
     suite is not sensitive to the protocol; a crashed applier must
     raise Shard_failure under every executor.

   - LOCKED SINK: concurrent emitters through Sink.locked can never
     interleave JSONL mid-record (the --trace under --domains fix),
     plus Metrics.merge arithmetic. *)

module Eng = Dct_engine.Engine
module Mailbox = Dct_engine.Mailbox
module Shard = Dct_engine.Shard
module Policy = Dct_deletion.Policy
module Gen = Dct_workload.Generator
module Sink = Dct_telemetry.Sink
module Event = Dct_telemetry.Event
module Metrics = Dct_telemetry.Metrics
module Store = Dct_kv.Store
module Intset = Dct_graph.Intset

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

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

(* --- the replay differential matrix: >= 200 parallel runs --- *)

let profiles =
  (* (txns, entities, mpl, theta, cross) *)
  [
    (40, 16, 4, 0.0, 0.1);
    (60, 24, 6, 0.5, 0.1);
    (60, 24, 6, 0.9, 0.3);
    (60, 32, 8, 0.99, 0.1);
    (80, 16, 8, 0.8, 0.5);
    (80, 48, 4, 0.6, 0.2);
    (100, 24, 10, 0.9, 0.1);
    (100, 64, 6, 0.7, 0.4);
    (120, 32, 8, 0.95, 0.2);
    (120, 24, 12, 0.5, 0.3);
  ]

let run_matrix ~executor_of ~shard_counts ~batches ~policies ~label =
  let runs = ref 0 in
  let failures = ref [] in
  List.iteri
    (fun i (txns, entities, mpl, theta, cross) ->
      List.iter
        (fun shards ->
          List.iter
            (fun batch ->
              List.iter
                (fun policy ->
                  incr runs;
                  let seed = 1000 + (i * 7) in
                  let steps =
                    workload ~txns ~entities ~mpl ~theta ~shards ~cross seed
                  in
                  let d =
                    Eng.differential ~executor:(executor_of !runs) ~shards
                      ~batch ~policy steps
                  in
                  if not (Eng.differential_ok d) then
                    failures :=
                      Format.asprintf
                        "%s profile %d shards %d batch %d %s:@\n%a" label i
                        shards batch (Policy.name policy) Eng.pp_differential
                        d
                      :: !failures)
                policies)
            batches)
        shard_counts)
    profiles;
  (!runs, List.rev !failures)

let test_replay_matrix () =
  let runs, failures =
    run_matrix
      ~executor_of:(fun i -> Eng.Replay (i * 31))
      ~shard_counts:[ 1; 2; 4; 8 ]
      ~batches:[ 4; 16 ]
      ~policies:[ Policy.Noncurrent; Policy.Greedy_c1; Policy.Exact_max ]
      ~label:"replay"
  in
  check ("at least 200 runs, got " ^ string_of_int runs) true (runs >= 200);
  match failures with
  | [] -> ()
  | f :: _ ->
      Alcotest.failf "%d of %d replay runs diverged; first:@\n%s"
        (List.length failures) runs f

(* A small real-domain sanity matrix that runs everywhere: domains are
   OS threads even on one core, so the protocol (mailboxes, barriers,
   joins) is exercised; only the speedup needs real cores. *)
let test_domains_sanity () =
  let runs, failures =
    run_matrix
      ~executor_of:(fun _ -> Eng.Domains)
      ~shard_counts:[ 2; 4 ] ~batches:[ 8 ]
      ~policies:[ Policy.Greedy_c1 ] ~label:"domains"
  in
  check_int "20 domain runs" 20 runs;
  match failures with
  | [] -> ()
  | f :: _ ->
      Alcotest.failf "%d of %d domain runs diverged; first:@\n%s"
        (List.length failures) runs f

let test_domains_matrix () =
  if Eng.available_domains () = 1 then begin
    print_endline
      "  [skip] single-core runner: the full real-domain matrix needs \
       multiple cores; Replay mode carries the differential guarantee \
       here (the domains sanity matrix above still exercised \
       Domain.spawn).";
    Alcotest.skip ()
  end
  else begin
    let runs, failures =
      run_matrix
        ~executor_of:(fun _ -> Eng.Domains)
        ~shard_counts:[ 1; 2; 4; 8 ]
        ~batches:[ 4; 16 ]
        ~policies:[ Policy.Noncurrent; Policy.Greedy_c1; Policy.Exact_max ]
        ~label:"domains"
    in
    check ("at least 200 domain runs, got " ^ string_of_int runs) true
      (runs >= 200);
    match failures with
    | [] -> ()
    | f :: _ ->
        Alcotest.failf "%d of %d domain runs diverged; first:@\n%s"
          (List.length failures) runs f
  end

(* --- executor independence: the executor and the interleaving seed
   are unobservable --- *)

(* Shards run one batch behind the coordinator under every executor. *)
let snapshot executor ~shards steps =
  let eng = Eng.create (Eng.config ~policy:Policy.Greedy_c1 ~executor ~shards ~batch:8 ()) in
  let r = Eng.run eng steps in
  let shard_snap i =
    let sh = Eng.shard eng i in
    let store =
      Intset.to_sorted_list (Store.entities (Shard.store sh))
      |> List.map (fun e -> (e, Store.peek (Shard.store sh) ~entity:e))
    in
    (Shard.stats sh, store)
  in
  ( ( r.Eng.steps,
      r.Eng.accepted,
      r.Eng.rejected,
      r.Eng.committed,
      r.Eng.aborted,
      r.Eng.barriers ),
    (r.Eng.cross_shard_arcs, r.Eng.local_arcs, r.Eng.distributed_txns),
    List.init shards shard_snap )

let test_replay_seed_invariance () =
  let steps = workload ~txns:100 ~entities:32 ~mpl:8 ~theta:0.9 ~shards:4
      ~cross:0.4 77 in
  let reference = snapshot Eng.Inline ~shards:4 steps in
  List.iter
    (fun seed ->
      check
        (Printf.sprintf "replay seed %d matches inline" seed)
        true
        (snapshot (Eng.Replay seed) ~shards:4 steps = reference))
    [ 0; 1; 7; 42; 1234; 99991 ]

(* And the Domains schedule is equally unobservable: a real-domain run
   lands on the same snapshot as a replay and the Inline run. *)
let test_domains_match_replay () =
  let steps = workload ~txns:80 ~entities:24 ~mpl:8 ~theta:0.9 ~shards:3
      ~cross:0.3 31 in
  let via_inline = snapshot Eng.Inline ~shards:3 steps in
  check "domains == inline" true (snapshot Eng.Domains ~shards:3 steps = via_inline);
  check "replay == inline" true (snapshot (Eng.Replay 5) ~shards:3 steps = via_inline)

(* [report] on a live engine reaps every outstanding barrier before it
   reads shard state — under Domains that means awaiting it — so a
   mid-run report is the same under every executor. *)
let test_mid_run_report () =
  let steps = workload ~txns:60 ~entities:24 ~mpl:6 ~theta:0.9 ~shards:3
      ~cross:0.3 17 in
  let mid_run executor =
    let eng = Eng.create (Eng.config ~policy:Policy.Greedy_c1 ~executor ~shards:3 ~batch:8 ()) in
    List.iter (Eng.submit eng) steps;
    Eng.tick eng;
    let r = Eng.report eng ~wall_seconds:0.0 in
    ignore (Eng.finish eng ~wall_seconds:0.0);
    ( (r.Eng.committed, r.Eng.aborted, r.Eng.barriers),
      (r.Eng.cross_shard_arcs, r.Eng.local_arcs),
      Array.to_list r.Eng.shard_stats )
  in
  let inline = mid_run Eng.Inline in
  check "domains == inline" true (mid_run Eng.Domains = inline);
  check "replay == inline" true (mid_run (Eng.Replay 9) = inline)

(* --- mutation checks: the fault hooks must be detected --- *)

let mutation_workload seed = workload ~txns:120 ~entities:64 ~mpl:8 ~theta:0.8
    ~shards:4 ~cross:0.4 seed

(* Scan ordinals until one injected fault is caught: some ordinals are
   genuinely unobservable (a broadcast for transactions the victim
   shard never hosted; a reordered batch whose commands commute), so
   the pinned expectation is "a fault of each kind is detected within
   the first few opportunities", plus proof the hook actually fired. *)
let scan_fault ~kind ~set_fault =
  let detections = ref [] in
  let fired = ref 0 in
  for n = 0 to 7 do
    let fault = Eng.Fault.create () in
    set_fault fault n;
    let d =
      Eng.differential ~executor:(Eng.Replay 1) ~fault ~shards:4 ~batch:8
        ~policy:Policy.Greedy_c1 (mutation_workload 11)
    in
    let injected =
      match kind with
      | `Drop -> fault.Eng.Fault.dropped
      | `Reorder -> fault.Eng.Fault.reordered
    in
    fired := !fired + injected;
    if injected > 0 && not (Eng.differential_ok d) then
      detections := n :: !detections
  done;
  (!fired, List.rev !detections)

let test_mutation_drop_broadcast () =
  let fired, detections =
    scan_fault ~kind:`Drop ~set_fault:(fun f n ->
        f.Eng.Fault.drop_broadcast <- Some (n, 0))
  in
  check ("drop hook fired, count " ^ string_of_int fired) true (fired > 0);
  check
    ("dropped broadcast detected at ordinals "
    ^ String.concat "," (List.map string_of_int detections))
    true (detections <> [])

let test_mutation_reorder_batch () =
  let fired, detections =
    scan_fault ~kind:`Reorder ~set_fault:(fun f n ->
        f.Eng.Fault.reorder_batch <- Some (n, 0))
  in
  check ("reorder hook fired, count " ^ string_of_int fired) true (fired > 0);
  check
    ("reordered batch detected at ordinals "
    ^ String.concat "," (List.map string_of_int detections))
    true (detections <> [])

(* A crashed shard applier must surface as [Shard_failure], never as a
   clean exit — the bug class where `dct serve` reported success over a
   dead shard — under every executor.  The Domains applier dies on its
   own thread; the Inline run is driven the way the network server
   drives the engine (submit, then finish), so finish's drain of late
   failures is covered too. *)
let test_crash_surfaces_shard_failure () =
  let steps = mutation_workload 11 in
  let expect_failure executor drive =
    let what = Eng.executor_name executor in
    let fault = Eng.Fault.create () in
    fault.Eng.Fault.crash_cmd <- Some (0, 1);
    let eng = Eng.create ~fault (Eng.config ~policy:Policy.Greedy_c1 ~executor ~shards:4 ~batch:8 ()) in
    (match drive eng with
    | exception Eng.Shard_failure (shard, msg) ->
        check (what ^ " names a shard") true (shard >= 0 && shard < 4);
        check (what ^ " carries a description") true (msg <> "")
    | _ -> Alcotest.failf "%s: crash injected but the run exited cleanly" what);
    check (what ^ " crash injected") true (fault.Eng.Fault.crashes > 0)
  in
  let run eng = ignore (Eng.run eng steps) in
  expect_failure (Eng.Replay 1) run;
  expect_failure Eng.Domains run;
  expect_failure Eng.Inline (fun eng ->
      List.iter (Eng.submit eng) steps;
      ignore (Eng.finish eng ~wall_seconds:0.0))

(* The same hooks must be invisible when disarmed: a Fault.create ()
   with no mutation set changes nothing. *)
let test_fault_disarmed () =
  let fault = Eng.Fault.create () in
  let d =
    Eng.differential ~executor:(Eng.Replay 1) ~fault ~shards:4 ~batch:8
      ~policy:Policy.Greedy_c1 (mutation_workload 11)
  in
  check_int "nothing dropped" 0 fault.Eng.Fault.dropped;
  check_int "nothing reordered" 0 fault.Eng.Fault.reordered;
  if not (Eng.differential_ok d) then
    Alcotest.failf "disarmed fault diverged:@\n%a" Eng.pp_differential d

(* --- locked sink: no mid-record interleaving under domains --- *)

let test_locked_sink_concurrent () =
  let buf = Buffer.create 4096 in
  let sink = Sink.locked (Sink.memory buf) in
  let n_domains = 4 and per_domain = 200 in
  let emitters =
    List.init n_domains (fun d ->
        Domain.spawn (fun () ->
            for i = 0 to per_domain - 1 do
              Sink.emit sink
                (Event.Decision
                   {
                     index = (d * per_domain) + i;
                     txn = d;
                     outcome = "accepted";
                     reason = "";
                   })
            done))
  in
  List.iter Domain.join emitters;
  Sink.flush sink;
  (* Every line parses (nothing interleaved mid-record) and every event
     arrived exactly once. *)
  match Sink.parse_string (Buffer.contents buf) with
  | Error e -> Alcotest.failf "interleaved trace: %s" e
  | Ok events ->
      check_int "every event intact" (n_domains * per_domain)
        (List.length events);
      let seen = Hashtbl.create 1024 in
      List.iter
        (function
          | Event.Decision { index; _ } ->
              if Hashtbl.mem seen index then
                Alcotest.failf "event %d duplicated" index;
              Hashtbl.replace seen index ()
          | _ -> Alcotest.fail "unexpected event shape")
        events;
      check_int "no event lost" (n_domains * per_domain)
        (Hashtbl.length seen)

let test_locked_sink_idempotent () =
  check "Null stays Null" true (Sink.locked Sink.null = Sink.null);
  let buf = Buffer.create 16 in
  let once = Sink.locked (Sink.memory buf) in
  (match Sink.locked once with
  | Sink.Locked { inner = Sink.Memory _; _ } -> ()
  | _ -> Alcotest.fail "double-locking nested the wrapper")

(* The engine end-to-end version of the same guarantee: a traced
   Domains run produces a parseable trace byte-identical (modulo
   timing) to the Inline executor's — already asserted inside every
   matrix differential via trace_divergence = None; here we pin that a
   trace actually flowed (non-vacuous check). *)
let test_traced_domains_run () =
  let buf = Buffer.create 4096 in
  let tracer =
    Dct_telemetry.Tracer.create ~sink:(Sink.locked (Sink.memory buf)) ()
  in
  let cfg =
    Eng.config ~policy:Policy.Greedy_c1 ~tracer ~executor:Eng.Domains ~shards:3
      ~batch:8 ()
  in
  let steps = workload ~txns:40 ~entities:24 ~shards:3 3 in
  ignore (Eng.run (Eng.create cfg) steps);
  match Sink.parse_string (Buffer.contents buf) with
  | Error e -> Alcotest.failf "domains trace malformed: %s" e
  | Ok events ->
      check "trace non-empty" true (List.length events > 0)

(* --- Metrics.merge arithmetic --- *)

let test_metrics_merge () =
  let a = Metrics.create () and b = Metrics.create () in
  Metrics.incr a "par.cmds" ~by:10;
  Metrics.incr b "par.cmds" ~by:32;
  Metrics.incr b "par.gc_runs";
  Metrics.gauge a "par.shard.resident" 4;
  Metrics.gauge a "par.shard.resident" 2;
  Metrics.gauge b "par.shard.resident" 3;
  Metrics.observe a "lat" 100.0;
  Metrics.observe a "lat" 100.0;
  Metrics.observe b "lat" 1_000_000.0;
  Metrics.merge ~into:a b;
  check_int "counters add" 42 (Metrics.counter a "par.cmds");
  check_int "absent counter copied" 1 (Metrics.counter a "par.gc_runs");
  check_int "gauge keeps max value" 3 (Metrics.gauge_value a "par.shard.resident");
  check_int "gauge keeps max hwm" 4 (Metrics.high_water a "par.shard.resident");
  check_int "histogram counts add" 3 (Metrics.histo_count a "lat");
  check "histogram mean weighted" true
    (abs_float (Metrics.histo_mean a "lat" -. ((100.0 +. 100.0 +. 1_000_000.0) /. 3.0))
     < 1e-6);
  (* merge is the no-op identity on an empty source *)
  let before = Metrics.counter a "par.cmds" in
  Metrics.merge ~into:a (Metrics.create ());
  check_int "empty merge is identity" before (Metrics.counter a "par.cmds")

(* The worker registries actually flow through the merge: a metrics-on
   parallel run surfaces the per-domain applier counters. *)
let test_worker_metrics_merged () =
  let m = Metrics.create () in
  let tracer = Dct_telemetry.Tracer.create ~metrics:m () in
  let cfg =
    Eng.config ~policy:Policy.Greedy_c1 ~tracer ~executor:(Eng.Replay 3)
      ~shards:2 ~batch:8 ()
  in
  let steps = workload ~txns:40 ~entities:24 ~shards:2 9 in
  let _ = Eng.run (Eng.create cfg) steps in
  check "applier command counter merged" true (Metrics.counter m "par.cmds" > 0);
  check "applier gc counter merged" true (Metrics.counter m "par.gc_runs" > 0)

(* --- mailbox unit: the batch atomicity the protocol rests on --- *)

let test_mailbox_unit () =
  let mb = Mailbox.create () in
  Mailbox.push mb 1;
  Mailbox.push_batch mb [ 2; 3; 4 ];
  Mailbox.push_batch mb [];
  check_int "pending" 4 (Mailbox.pending mb);
  check_int "pushed" 4 (Mailbox.pushed mb);
  check_int "batches counts non-empty only" 1 (Mailbox.batches mb);
  check "drain order" true (Mailbox.drain mb = [ 1; 2; 3; 4 ]);
  check "empty drain" true (Mailbox.drain mb = []);
  Mailbox.close mb;
  check "closed" true (Mailbox.is_closed mb);
  check "drain_wait on closed+empty = shutdown signal" true
    (Mailbox.drain_wait mb = []);
  check "push after close raises" true
    (try
       Mailbox.push mb 5;
       false
     with Invalid_argument _ -> true)

let () =
  Alcotest.run "parallel"
    [
      ( "differential",
        [
          Alcotest.test_case "240-run replay matrix vs single-node + inline"
            `Slow test_replay_matrix;
          Alcotest.test_case "real-domain sanity matrix" `Slow
            test_domains_sanity;
          Alcotest.test_case "full real-domain matrix (multi-core only)" `Slow
            test_domains_matrix;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "replay seed invariance" `Quick
            test_replay_seed_invariance;
          Alcotest.test_case "domains run == replay run" `Quick
            test_domains_match_replay;
        ] );
      ( "mid-run-report",
        [
          Alcotest.test_case "every executor reports alike" `Quick
            test_mid_run_report;
        ] );
      ( "mutation",
        [
          Alcotest.test_case "dropped GC broadcast detected" `Slow
            test_mutation_drop_broadcast;
          Alcotest.test_case "reordered batch detected" `Slow
            test_mutation_reorder_batch;
          Alcotest.test_case "crashed applier raises Shard_failure" `Quick
            test_crash_surfaces_shard_failure;
          Alcotest.test_case "disarmed hooks change nothing" `Quick
            test_fault_disarmed;
        ] );
      ( "telemetry",
        [
          Alcotest.test_case "locked sink: no mid-record interleaving" `Quick
            test_locked_sink_concurrent;
          Alcotest.test_case "locked sink: idempotent wrap" `Quick
            test_locked_sink_idempotent;
          Alcotest.test_case "traced domains run parses" `Quick
            test_traced_domains_run;
          Alcotest.test_case "Metrics.merge arithmetic" `Quick
            test_metrics_merge;
          Alcotest.test_case "worker registries merged" `Quick
            test_worker_metrics_merged;
        ] );
      ( "mailbox",
        [ Alcotest.test_case "batch atomicity + shutdown" `Quick test_mailbox_unit ] );
    ]
