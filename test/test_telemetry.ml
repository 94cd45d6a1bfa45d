(* The telemetry layer's contracts:

   - the event vocabulary round-trips through its JSONL encoding, both
     in memory and through a file sink;
   - the metrics registry counts, tracks high-water marks and buckets
     latencies as documented;
   - METAMORPHIC: enabling tracing changes no scheduler decision — for
     every graph model and policy, the traced run's outcomes,
     deletions and final stats are identical to the untraced run's,
     and the Decision events in the sink replay the observed outcomes
     byte for byte;
   - the Checked backend's probe attribution: per operation, a checked
     run carries exactly the closure-run and topo-run sample counts;
   - a basic-model trace re-fed through [Audit.of_telemetry] passes
     the deletion auditor;
   - telemetry does not change the engine's report under any executor;
   - the driver's residency gauges peak at least as high as every
     checkpoint it traced;
   - the deletion counters agree with the GC-round events, for every
     model, C3 and C4 included;
   - a metrics-only tracer builds no event yet feeds the same counters
     and gauges as a traced run. *)

module Intset = Dct_graph.Intset
module Oracle = Dct_graph.Cycle_oracle
module Step = Dct_txn.Step
module Access = Dct_txn.Access
module Policy = Dct_deletion.Policy
module Si = Dct_sched.Scheduler_intf
module Cs = Dct_sched.Conflict_scheduler
module Gen = Dct_workload.Generator
module Driver = Dct_sim.Driver
module E = Dct_telemetry.Event
module Sink = Dct_telemetry.Sink
module Metrics = Dct_telemetry.Metrics
module Tracer = Dct_telemetry.Tracer
module Probe = Dct_telemetry.Probe
module Eng = Dct_engine.Engine

let check = Alcotest.(check bool)

(* --- event encoding --- *)

let sample_events =
  [
    E.Step_submitted
      { index = 1; step = { E.kind = "read"; txn = 3; reads = [ 2 ]; writes = [] } };
    E.Step_submitted
      {
        index = 2;
        step = { E.kind = "begin_declared"; txn = 4; reads = [ 1; 2 ]; writes = [ 5 ] };
      };
    E.Decision { index = 1; txn = 3; outcome = "accepted"; reason = "" };
    E.Decision { index = 7; txn = 2; outcome = "rejected"; reason = "cycle" };
    E.Deletion_attempted { policy = "greedy-c1"; candidates = [ 1; 2; 3 ] };
    E.Deletion_ok { policy = "greedy-c1"; deleted = [ 2 ] };
    E.Deletion_blocked { policy = "exact-max"; txn = 4; condition = "c2-max" };
    E.Oracle_query { op = "add_arc"; backend = "closure"; ns = 1250.0 };
    E.Cycle_rejected { txn = 9; witness = [ 9; 4; 9 ] };
    E.Restart { txn = 5; attempt = 2 };
    E.Checkpoint_stats
      {
        E.at_step = 32;
        resident_txns = 7;
        resident_arcs = 9;
        active_txns = 5;
        committed = 11;
        aborted = 2;
        deleted = 6;
        delayed = 1;
        resident_bytes = 18432;
      };
  ]

let test_json_round_trip () =
  List.iter
    (fun e ->
      match E.of_json (E.to_json e) with
      | Ok e' -> check (E.kind e ^ " round-trips") true (E.equal e e')
      | Error msg -> Alcotest.failf "%s: %s" (E.to_json e) msg)
    sample_events

let test_step_round_trip () =
  List.iter
    (fun s ->
      match Step.of_telemetry (Step.to_telemetry s) with
      | Ok s' -> check (Step.to_string s) true (Step.equal s s')
      | Error msg -> Alcotest.failf "%s: %s" (Step.to_string s) msg)
    [
      Step.Begin 1;
      Step.Begin_declared
        (2, Access.of_list [ (1, Access.Read); (2, Access.Read); (3, Access.Write) ]);
      Step.Read (3, 7);
      Step.Write (4, [ 1; 5; 9 ]);
      Step.Write (5, []);
      Step.Write_one (6, 2);
      Step.Finish 7;
    ]

let test_sink_round_trip () =
  let buf = Buffer.create 256 in
  let mem = Sink.memory buf in
  List.iter (Sink.emit mem) sample_events;
  (match Sink.parse_string (Buffer.contents buf) with
  | Ok es -> check "memory sink" true (List.for_all2 E.equal sample_events es)
  | Error msg -> Alcotest.fail msg);
  let path = Filename.temp_file "dct_telemetry" ".jsonl" in
  let oc = open_out path in
  let chan = Sink.channel oc in
  List.iter (Sink.emit chan) sample_events;
  Sink.flush chan;
  close_out oc;
  (match Sink.read_file path with
  | Ok es -> check "file sink" true (List.for_all2 E.equal sample_events es)
  | Error msg -> Alcotest.fail msg);
  Sys.remove path;
  match Sink.parse_string "{\"ev\": \"nonsense\"}" with
  | Ok _ -> Alcotest.fail "malformed line accepted"
  | Error _ -> ()

(* Lenient parsing: every malformed line is reported with its 1-based
   line number; the parseable events still come back.  This is what
   [dct trace] runs on, so truncated or corrupted trace files summarize
   instead of dying (exercised end to end on test/corpus/trace/). *)
let test_sink_lenient_parse () =
  let good1 = E.to_json (E.Step_submitted { index = 1; step = Step.to_telemetry (Step.Begin 1) }) in
  let good2 = E.to_json (E.Decision { index = 1; txn = 1; outcome = "accepted"; reason = "" }) in
  let doc =
    String.concat "\n"
      [
        good1;
        "{\"ev\":\"decision\",\"i\":2,\"txn\":1,\"outcome\":\"acce";  (* mid-write truncation *)
        "";                                                           (* blank: skipped, but counted for numbering *)
        good2;
        "not json at all";
      ]
  in
  let events, errors = Sink.parse_string_lenient doc in
  Alcotest.(check int) "both good events survive" 2 (List.length events);
  Alcotest.(check (list int)) "error line numbers" [ 2; 5 ] (List.map fst errors);
  List.iter
    (fun (_, msg) -> check "error message non-empty" true (msg <> ""))
    errors;
  (* The strict parser still reports the first error... *)
  (match Sink.parse_string doc with
  | Ok _ -> Alcotest.fail "strict parser accepted a malformed document"
  | Error msg ->
      check "strict error carries line 2" true
        (String.length msg >= 7 && String.sub msg 0 7 = "line 2:"));
  (* ...and an all-good document parses identically both ways. *)
  let clean = good1 ^ "\n" ^ good2 ^ "\n" in
  match (Sink.parse_string clean, Sink.parse_string_lenient clean) with
  | Ok strict, (lenient, []) ->
      check "strict = lenient on clean input" true
        (List.for_all2 E.equal strict lenient)
  | _ -> Alcotest.fail "clean document failed to parse"

(* The corpus files drive the CLI behaviour: a truncated trace
   summarizes what it can but exits 1 (malformed lines are a finding,
   not a success), --strict refuses it outright, and an empty trace is
   a clear error, not an all-zero report. *)
let dct_exe =
  (* In the sandbox the test binary runs from _build/default/test. *)
  Filename.concat (Filename.dirname Sys.executable_name) "../bin/dct.exe"

let run_dct args =
  let cmd = Filename.quote_command dct_exe args in
  Sys.command (cmd ^ " >/dev/null 2>&1")

let test_trace_cli_corpus () =
  if not (Sys.file_exists dct_exe) then
    Alcotest.skip ()
  else begin
    Alcotest.(check int)
      "truncated corpus trace exits 1"
      1
      (run_dct [ "trace"; "corpus/trace/truncated.jsonl" ]);
    Alcotest.(check int)
      "truncated corpus trace exits 1 under --strict"
      1
      (run_dct [ "trace"; "--strict"; "corpus/trace/truncated.jsonl" ]);
    Alcotest.(check int)
      "clean corpus trace exits 0 under --strict"
      0
      (run_dct [ "trace"; "--strict"; "corpus/trace/gc.jsonl" ]);
    Alcotest.(check int)
      "empty corpus trace exits 2"
      2
      (run_dct [ "trace"; "corpus/trace/empty.jsonl" ])
  end

(* The gc section of [dct trace]: per-call GC latency percentiles keyed
   by deletability-index backend, split out of the oracle table (the
   probe reports GC rounds as op = "gc").  The corpus latencies are
   fixed, so the whole section is pinned byte for byte. *)
let test_trace_cli_gc_section () =
  if not (Sys.file_exists dct_exe) then Alcotest.skip ()
  else begin
    let out = Filename.temp_file "dct_gc_trace" ".out" in
    let cmd =
      Filename.quote_command dct_exe [ "trace"; "corpus/trace/gc.jsonl" ]
    in
    let code = Sys.command (cmd ^ " > " ^ Filename.quote out ^ " 2>/dev/null") in
    Alcotest.(check int) "gc corpus trace exits 0" 0 code;
    let ic = open_in out in
    let n = in_channel_length ic in
    let text = really_input_string ic n in
    close_in ic;
    Sys.remove out;
    let expected =
      String.concat "\n"
        [
          "gc (per-call latency by deletability-index backend):";
          "gc index     calls  p50 ns  p90 ns  p99 ns  max ns";
          "-----------  -----  ------  ------  ------  ------";
          "incremental  4      500     2000    2000    2000";
          "naive        4      2000    8000    8000    8000";
          "";
        ]
    in
    let contains ~needle hay =
      let nl = String.length needle and hl = String.length hay in
      let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
      go 0
    in
    check "gc section pinned" true (contains ~needle:expected text);
    (* and the gc rows must NOT leak into the oracle table *)
    check "oracle table keeps only real oracle ops" false
      (contains ~needle:"naive    gc" text)
  end

(* --- metrics registry --- *)

let test_metrics_registry () =
  let m = Metrics.create () in
  check "fresh registry empty" true (Metrics.is_empty m);
  Metrics.incr m "a";
  Metrics.incr ~by:4 m "a";
  Alcotest.(check int) "counter" 5 (Metrics.counter m "a");
  Alcotest.(check int) "absent counter" 0 (Metrics.counter m "zzz");
  Metrics.gauge m "g" 3;
  Metrics.gauge m "g" 11;
  Metrics.gauge m "g" 2;
  Alcotest.(check int) "gauge value" 2 (Metrics.gauge_value m "g");
  Alcotest.(check int) "gauge hwm" 11 (Metrics.high_water m "g");
  Metrics.observe m "h" 300.0;
  Metrics.observe m "h" 300.0;
  Metrics.observe m "h" 40_000.0;
  Alcotest.(check int) "histo count" 3 (Metrics.histo_count m "h");
  (* 300 ns falls in the (250, 500] bucket; nearest-rank p50 resolves to
     its upper bound. *)
  Alcotest.(check (float 1e-9)) "histo p50" 500.0 (Metrics.histo_percentile m "h" 50.0);
  Alcotest.(check (float 1e-9)) "histo p100" 50_000.0
    (Metrics.histo_percentile m "h" 100.0);
  Alcotest.(check int) "buckets total" 3
    (List.fold_left (fun acc (_, c) -> acc + c) 0 (Metrics.histo_buckets m "h"));
  check "render mentions instruments" true
    (let r = Metrics.render m in
     let has sub =
       let n = String.length sub and l = String.length r in
       let rec go i = i + n <= l && (String.sub r i n = sub || go (i + 1)) in
       go 0
     in
     has "a" && has "g" && has "h")

(* --- metamorphic: tracing changes no decision --- *)

let profile seed = { Gen.default with Gen.n_txns = 40; n_entities = 14; mpl = 6; seed }

(* Run a handle over a schedule collecting the observable decision
   trace; with [trace = true] a full tracer (memory sink + metrics) is
   active and its sink contents are returned. *)
let observed ~trace mk_handle schedule =
  let buf = Buffer.create 4096 in
  let tracer =
    if trace then
      Tracer.create ~metrics:(Metrics.create ()) ~sink:(Sink.memory buf) ()
    else Tracer.disabled
  in
  let outcomes = ref [] in
  let observe _i _s o = outcomes := Si.outcome_name o :: !outcomes in
  let r = Driver.run ~observe ~tracer (mk_handle tracer) schedule in
  let final = r.Driver.final in
  ( List.rev !outcomes,
    (final.Si.committed_total, final.Si.aborted_total, final.Si.deleted_total),
    Buffer.contents buf )

let decision_outcomes events =
  List.filter_map
    (function E.Decision { outcome; _ } -> Some outcome | _ -> None)
    events

let models =
  [
    ( "basic/greedy",
      fun tracer -> Cs.handle_of (Cs.create ~policy:Policy.Greedy_c1 ~tracer ()) );
    ( "basic/exact",
      fun tracer -> Cs.handle_of (Cs.create ~policy:Policy.Exact_max ~tracer ()) );
    ( "basic/noncurrent",
      fun tracer -> Cs.handle_of (Cs.create ~policy:Policy.Noncurrent ~tracer ()) );
    ( "basic/budget",
      fun tracer ->
        Cs.handle_of (Cs.create ~policy:(Policy.Budget (8, Policy.Greedy_c1)) ~tracer ()) );
    ("certify", fun tracer -> Dct_sched.Certifier.handle ~tracer ());
    ( "multiwrite",
      fun tracer ->
        Dct_sched.Multiwrite_scheduler.handle_of
          (Dct_sched.Multiwrite_scheduler.create
             ~deletion:(Dct_sched.Multiwrite_scheduler.C3_exact 8) ~tracer ()) );
    ( "predeclared",
      fun tracer ->
        Dct_sched.Predeclared_scheduler.handle_of
          (Dct_sched.Predeclared_scheduler.create ~use_c4_deletion:true ~tracer ()) );
  ]

let schedule_for name seed =
  let p = profile seed in
  if name = "multiwrite" then Gen.multiwrite p
  else if name = "predeclared" then Gen.predeclared p
  else Gen.basic p

let test_tracing_is_invisible () =
  List.iter
    (fun (name, mk) ->
      List.iter
        (fun seed ->
          let schedule = schedule_for name seed in
          let o_off, s_off, _ = observed ~trace:false mk schedule in
          let o_on, s_on, jsonl = observed ~trace:true mk schedule in
          check (name ^ ": outcomes identical") true (o_off = o_on);
          check (name ^ ": stats identical") true (s_off = s_on);
          match Sink.parse_string jsonl with
          | Error msg -> Alcotest.failf "%s: sink unparsable: %s" name msg
          | Ok events ->
              check
                (name ^ ": Decision events replay the observed outcomes")
                true
                (decision_outcomes events = o_on))
        [ 3; 17 ])
    models

(* --- Checked-backend probe attribution --- *)

let oracle_op_counts backend schedule =
  let buf = Buffer.create 4096 in
  let tracer = Tracer.create ~sink:(Sink.memory buf) () in
  let t = Cs.create ~policy:Policy.Greedy_c1 ~oracle:backend ~tracer () in
  ignore (Driver.run ~tracer (Cs.handle_of t) schedule);
  let events =
    match Sink.parse_string (Buffer.contents buf) with
    | Ok es -> es
    | Error msg -> Alcotest.fail msg
  in
  let tbl = Hashtbl.create 16 in
  List.iter
    (function
      (* op = "gc" is the deletion policy's GC probe, attributed to the
         deletability-index backend, not to the cycle oracle — it shows
         up identically whatever oracle runs, so keep it out of the
         per-oracle attribution counts. *)
      | E.Oracle_query { op = "gc"; _ } -> ()
      | E.Oracle_query { op; backend; _ } ->
          let k = (backend, op) in
          Hashtbl.replace tbl k (1 + Option.value ~default:0 (Hashtbl.find_opt tbl k))
      | _ -> ())
    events;
  tbl

let test_checked_probe_counts () =
  let schedule = Gen.basic (profile 29) in
  let closure = oracle_op_counts Oracle.Closure schedule in
  let topo = oracle_op_counts Oracle.Topo schedule in
  let checked = oracle_op_counts Oracle.Checked schedule in
  check "some queries were recorded" true (Hashtbl.length checked > 0);
  (* Per operation the checked run reports one sample per sub-backend:
     exactly the single-backend runs' counts, no more (the cross-check
     probes in add_arc are harness work and deliberately unattributed). *)
  Hashtbl.iter
    (fun (bk, op) n ->
      let reference = if bk = "closure" then closure else topo in
      Alcotest.(check int)
        (Printf.sprintf "checked %s.%s matches the solo run" bk op)
        (Option.value ~default:0 (Hashtbl.find_opt reference (bk, op)))
        n)
    checked;
  Alcotest.(check int)
    "checked carries both backends' samples"
    (Hashtbl.length closure + Hashtbl.length topo)
    (Hashtbl.length checked)

(* --- audit over a telemetry trace --- *)

let test_audit_of_telemetry () =
  List.iter
    (fun policy ->
      let schedule = Gen.basic (profile 11) in
      let buf = Buffer.create 4096 in
      let tracer = Tracer.create ~sink:(Sink.memory buf) () in
      let t = Cs.create ~policy ~tracer () in
      ignore (Driver.run ~tracer (Cs.handle_of t) schedule);
      let events =
        match Sink.parse_string (Buffer.contents buf) with
        | Ok es -> es
        | Error msg -> Alcotest.fail msg
      in
      match Dct_analysis.Audit.of_telemetry events with
      | Error msg -> Alcotest.fail msg
      | Ok trace ->
          let report = Dct_analysis.Audit.audit trace in
          check
            (Policy.name policy ^ ": telemetry trace audits clean")
            true
            (Dct_analysis.Audit.ok report);
          check
            (Policy.name policy ^ ": audit saw every step")
            true
            (report.Dct_analysis.Audit.steps > 0))
    [ Policy.Greedy_c1; Policy.Exact_max; Policy.Noncurrent ]

(* --- telemetry does not change the engine's run --- *)

(* Every report field but the wall clock is the same with and without a
   tracer and a registry: telemetry does not change when barriers are
   reaped, so cross-shard arcs are classified at the same points. *)
let test_engine_report_untouched () =
  let steps =
    Gen.basic
      { Gen.default with Gen.n_txns = 300; n_entities = 48; shards = 4; seed = 1 }
  in
  let report executor tracer =
    let cfg = Eng.config ~tracer ~executor ~shards:4 ~batch:16 () in
    { (Eng.run (Eng.create cfg) steps) with Eng.wall_seconds = 0. }
  in
  List.iter
    (fun executor ->
      let plain = report executor Tracer.disabled in
      let traced =
        report executor
          (Tracer.create ~metrics:(Metrics.create ())
             ~sink:(Sink.locked (Sink.memory (Buffer.create 4096)))
             ())
      in
      let name = Eng.executor_name executor in
      check (name ^ ": some arcs are cross-shard") true (plain.Eng.cross_shard_arcs > 0);
      check (name ^ ": report identical with telemetry") true (plain = traced))
    [ Eng.Inline; Eng.Replay 7; Eng.Domains ]

(* --- per-model telemetry runs --- *)

let events_of buf =
  match Sink.parse_string (Buffer.contents buf) with
  | Ok es -> es
  | Error msg -> Alcotest.fail msg

(* Run model [name] on [seed] under a tracer over [sink] and a fresh
   registry; returns the registry. *)
let metered ~sink (name, mk) seed =
  let m = Metrics.create () in
  let tracer = Tracer.create ~metrics:m ~sink () in
  ignore (Driver.run ~tracer (mk tracer) (schedule_for name seed));
  m

let test_resident_bytes_peak () =
  List.iter
    (fun ((name, _) as model) ->
      let buf = Buffer.create 4096 in
      let m = metered ~sink:(Sink.memory buf) model 3 in
      let hwm = Metrics.high_water m "graph.resident_bytes" in
      List.iter
        (function
          | E.Checkpoint_stats s ->
              if s.E.resident_bytes > hwm then
                Alcotest.failf "%s: checkpoint at step %d holds %d bytes, hwm %d" name
                  s.E.at_step s.E.resident_bytes hwm
          | _ -> ())
        (events_of buf))
    models

let test_deletion_counters () =
  List.iter
    (fun ((name, _) as model) ->
      List.iter
        (fun seed ->
          let buf = Buffer.create 4096 in
          let m = metered ~sink:(Sink.memory buf) model seed in
          let sums = Hashtbl.create 4 in
          let add policy what n =
            let k = Printf.sprintf "deletion.%s.%s" policy what in
            Hashtbl.replace sums k (n + Option.value ~default:0 (Hashtbl.find_opt sums k))
          in
          List.iter
            (function
              | E.Deletion_attempted { policy; candidates } ->
                  add policy "attempted" (List.length candidates)
              | E.Deletion_ok { policy; deleted } -> add policy "deleted" (List.length deleted)
              | E.Deletion_blocked { policy; _ } -> add policy "blocked" 1
              | _ -> ())
            (events_of buf);
          let counted =
            List.filter
              (fun (k, _) -> String.length k > 9 && String.sub k 0 9 = "deletion.")
              (Metrics.counters m)
          in
          let from_events =
            List.sort compare (List.of_seq (Hashtbl.to_seq sums))
          in
          check (Printf.sprintf "%s/%d: counters = event sums" name seed) true
            (counted = from_events);
          if name = "multiwrite" || name = "predeclared" then
            check (name ^ ": its round was counted") true (counted <> []))
        [ 3; 17 ])
    models

let test_metrics_only_tracer () =
  let m = Metrics.create () in
  let tracer = Tracer.create ~metrics:m () in
  check "metrics-only tracer is inactive" false (Tracer.active tracer);
  check "but enabled" true (Tracer.enabled tracer);
  check "sink-less, registry-less tracer is disabled" false
    (Tracer.enabled (Tracer.create ()));
  List.iter
    (fun ((name, _) as model) ->
      let only = metered ~sink:Sink.null model 17 in
      let traced = metered ~sink:(Sink.memory (Buffer.create 4096)) model 17 in
      check (name ^ ": counters as traced") true
        (Metrics.counters only = Metrics.counters traced);
      check (name ^ ": gauges as traced") true (Metrics.gauges only = Metrics.gauges traced);
      check (name ^ ": histograms as traced") true
        (List.map (fun h -> (h, Metrics.histo_count only h)) (Metrics.histos only)
        = List.map (fun h -> (h, Metrics.histo_count traced h)) (Metrics.histos traced)))
    models

let () =
  Alcotest.run "telemetry"
    [
      ( "encoding",
        [
          Alcotest.test_case "event json round-trip" `Quick test_json_round_trip;
          Alcotest.test_case "step conversion round-trip" `Quick test_step_round_trip;
          Alcotest.test_case "sink round-trip" `Quick test_sink_round_trip;
          Alcotest.test_case "lenient parse collects per-line errors" `Quick
            test_sink_lenient_parse;
          Alcotest.test_case "trace CLI on truncated/empty corpus" `Quick
            test_trace_cli_corpus;
          Alcotest.test_case "trace CLI gc section (pinned corpus output)"
            `Quick test_trace_cli_gc_section;
        ] );
      ( "metrics",
        [ Alcotest.test_case "registry" `Quick test_metrics_registry ] );
      ( "metamorphic",
        [
          Alcotest.test_case "tracing changes no decision" `Quick
            test_tracing_is_invisible;
        ] );
      ( "probes",
        [
          Alcotest.test_case "checked = closure + topo samples" `Quick
            test_checked_probe_counts;
        ] );
      ( "audit",
        [
          Alcotest.test_case "trace re-feeds the auditor" `Quick
            test_audit_of_telemetry;
        ] );
      ( "contract",
        [
          Alcotest.test_case "engine report unchanged by telemetry" `Quick
            test_engine_report_untouched;
          Alcotest.test_case "resident-bytes hwm covers every checkpoint" `Quick
            test_resident_bytes_peak;
          Alcotest.test_case "deletion counters match round events" `Quick
            test_deletion_counters;
          Alcotest.test_case "metrics-only tracer builds no event" `Quick
            test_metrics_only_tracer;
        ] );
    ]
