(* dct — command-line front end.

   Subcommands:
     simulate     run a synthetic workload through a scheduler
                  (--selfcheck validates graph-state invariants per step;
                   --trace/--metrics/--json record and report telemetry)
     serve        run a shard-affine workload through the online sharded
                  engine (batched admission, per-shard deletion-policy GC;
                  --differential cross-checks against the single-node
                  scheduler step by step; --listen serves the engine to
                  socket clients over the wire protocol instead)
     client       send wire-protocol requests to a serve --listen server
     bench-net    drive a YCSB/TPC-C-style mix against an in-process
                  loopback server; throughput + latency percentiles
     trace        summarize a --trace JSONL file (outcomes, residency,
                  deletion denials, oracle latency; --audit re-feeds the
                  decisions to the trace auditor)
     lint         static diagnostics over schedule files (DCT000-DCT009)
     audit        replay a scheduler+policy decision trace and cross-check
                  every deletion against the C1/C2/safety oracles
     check        FILE: streaming serializability/atomicity checker over a
                  history (.sched or telemetry JSONL; --level, --checked,
                  --json); -s FILE: evaluate C1/C2/C4 on a schedule
     dot          print the conflict graph of a schedule file as DOT
     experiments  print the EX1-EX11 experiment tables
     reduce-cover emit the Theorem 5 schedule for a Set Cover instance
     reduce-sat   evaluate the Theorem 6 gadget for a 3-CNF formula
     demo         narrate the paper's Examples 1 and 2 *)

open Cmdliner

module Intset = Dct_graph.Intset
module Gs = Dct_deletion.Graph_state
module Policy = Dct_deletion.Policy
module Si = Dct_sched.Scheduler_intf
module Gen = Dct_workload.Generator
module Json = Dct_telemetry.Json

(* The --json reports: one compact object per run.  [metrics] is the
   registry when --metrics is on. *)
let print_json ?metrics fields =
  let metrics =
    match metrics with
    | Some m -> [ ("metrics", Dct_telemetry.Metrics.to_json m) ]
    | None -> []
  in
  print_endline (Json.to_string (Json.Obj (fields @ metrics)))

(* --trace FILE and --metrics: the run's tracer, the registry that
   [print_json] embeds, and the call that closes the trace file. *)
let telemetry ~trace ~metrics_on =
  let oc = Option.map open_out trace in
  let registry =
    if metrics_on then Some (Dct_telemetry.Metrics.create ()) else None
  in
  let sink =
    Option.fold ~none:Dct_telemetry.Sink.null ~some:Dct_telemetry.Sink.channel oc
  in
  ( Dct_telemetry.Tracer.create ?metrics:registry ~sink (),
    registry,
    fun () -> Option.iter close_out oc )

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* --- shared argument converters --- *)

let policy_conv =
  let parse s = Result.map_error (fun e -> `Msg e) (Policy.of_string s) in
  Arg.conv (parse, fun ppf p -> Format.pp_print_string ppf (Policy.name p))

let oracle_conv =
  let module O = Dct_graph.Cycle_oracle in
  let parse s = Result.map_error (fun e -> `Msg e) (O.backend_of_string s) in
  Arg.conv (parse, fun ppf b -> Format.pp_print_string ppf (O.backend_name b))

let oracle_arg =
  Arg.(
    value
    & opt (some oracle_conv) None
    & info [ "oracle" ] ~docv:"ORACLE"
        ~doc:
          "Cycle-detection backend for graph-based models: closure (bitset \
           transitive closure), topo (Pearce-Kelly incremental topological \
           order) or checked (run both, fail on the first disagreement).  \
           Default: topo.")

let policy_arg =
  Arg.(
    value
    & opt policy_conv Policy.Greedy_c1
    & info [ "p"; "policy" ] ~docv:"POLICY"
        ~doc:
          "Deletion policy: none | commit | noncurrent | greedy (alias: c1) \
           | exact (alias: c2) | exact-weighted | budget:<n>:<inner>.")

let gc_index_conv =
  let module D = Dct_deletion.Deletability_index in
  let parse s = Result.map_error (fun e -> `Msg e) (D.mode_of_string s) in
  Arg.conv (parse, fun ppf m -> Format.pp_print_string ppf (D.mode_name m))

let gc_index_arg =
  Arg.(
    value
    & opt (some gc_index_conv) None
    & info [ "gc-index" ] ~docv:"INDEX"
        ~doc:
          "Deletability-index backend for the deletion policy's GC \
           decisions: naive (re-evaluate C1/C4 from scratch every round \
           — the reference), incremental (serve verdicts from a \
           mutation-hooked cache, re-checking only dirty tight \
           neighbourhoods) or checked (run both in lock-step and fail on \
           the first divergence, mirroring --oracle checked).  Graph \
           models only.")

let schedule_file =
  Arg.(
    required
    & opt (some file) None
    & info [ "s"; "schedule" ] ~docv:"FILE" ~doc:"Schedule file (see docs/format).")

(* --- simulate --- *)

let simulate model policy txns entities mpl skew seed long_readers
    long_reader_frac burst selfcheck oracle gc_index trace metrics_on json =
  (* "conflict" is the paper's name for the basic-model conflict-graph
     scheduler. *)
  let model = if model = "conflict" then "basic" else model in
  let graph_model =
    List.mem model [ "basic"; "certify"; "multiwrite"; "predeclared" ]
  in
  (* the certifier never deletes, so it has no policy to index *)
  let deleting_model = graph_model && model <> "certify" in
  if (trace <> None || metrics_on) && not graph_model then begin
    Printf.eprintf
      "dct: --trace/--metrics are unsupported for model %S (no graph \
       scheduler to instrument)\n"
      model;
    exit 2
  end;
  if gc_index <> None && not deleting_model then begin
    Printf.eprintf
      "dct: --gc-index is unsupported for model %S (no deletion policy to \
       index)\n"
      model;
    exit 2
  end;
  let tracer, registry, close_trace = telemetry ~trace ~metrics_on in
  let burst_on, burst_off =
    match burst with None -> (0, 0) | Some pair -> pair
  in
  let profile =
    {
      Gen.default with
      Gen.n_txns = txns;
      n_entities = entities;
      mpl;
      skew;
      seed;
      long_readers;
      long_reader_frac;
      burst_on;
      burst_off;
    }
  in
  (* [gs] is the live graph state when the model has one — the hook the
     --selfcheck invariant audit needs. *)
  let handle, gs, schedule =
    match model with
    | "basic" ->
        let t =
          Dct_sched.Conflict_scheduler.create ~policy ?oracle ~tracer
            ?gc_index ()
        in
        ( Dct_sched.Conflict_scheduler.handle_of t,
          Some (fun () -> Dct_sched.Conflict_scheduler.graph_state t),
          Gen.basic profile )
    | "certify" ->
        ( Dct_sched.Certifier.handle ?oracle ~tracer (),
          None,
          Gen.basic profile )
    | "multiwrite" ->
        let t =
          Dct_sched.Multiwrite_scheduler.create
            ~deletion:(Dct_sched.Multiwrite_scheduler.C3_exact 8) ?oracle
            ~tracer ?gc_index ()
        in
        ( Dct_sched.Multiwrite_scheduler.handle_of t,
          Some (fun () -> Dct_sched.Multiwrite_scheduler.graph_state t),
          Gen.multiwrite profile )
    | "predeclared" ->
        let t =
          Dct_sched.Predeclared_scheduler.create ~use_c4_deletion:true ?oracle
            ~tracer ?gc_index ()
        in
        ( Dct_sched.Predeclared_scheduler.handle_of t,
          Some (fun () -> Dct_sched.Predeclared_scheduler.graph_state t),
          Gen.predeclared profile )
    | ("mvto" | "2pl" | "timestamp") when oracle <> None ->
        Printf.eprintf
          "dct: --oracle is unsupported for model %S (no conflict graph)\n"
          model;
        exit 2
    | "mvto" -> (Dct_sched.Mv_scheduler.handle ~vacuum:true (), None, Gen.basic profile)
    | "2pl" -> (Dct_sched.Lock_2pl.handle (), None, Gen.basic profile)
    | "timestamp" -> (Dct_sched.Timestamp_order.handle (), None, Gen.basic profile)
    | other -> Printf.ksprintf failwith "unknown model %S" other
  in
  let checked = ref 0 in
  let handle, observe =
    if not selfcheck then (handle, None)
    else
      match gs with
      | None ->
          Printf.eprintf
            "dct: --selfcheck is unsupported for model %S (no reduced graph \
             state)\n"
            model;
          exit 2
      | Some gs ->
          ( Dct_analysis.Invariant.selfcheck_handle ~gs handle,
            Some (fun _n _step _outcome -> incr checked) )
  in
  let r =
    try Dct_sim.Driver.run ?observe ~tracer handle schedule with
    | Dct_analysis.Invariant.Violation { context; violations } ->
        Printf.eprintf "selfcheck FAILED %s:\n" context;
        List.iter
          (fun v ->
            Printf.eprintf "  %s\n"
              (Format.asprintf "%a" Dct_analysis.Invariant.pp_violation v))
          violations;
        exit 1
    | Dct_graph.Cycle_oracle.Disagreement msg ->
        Printf.eprintf "oracle DISAGREEMENT: %s\n" msg;
        exit 1
    | Dct_deletion.Deletability_index.Divergence msg ->
        Printf.eprintf "gc-index DIVERGENCE: %s\n" msg;
        exit 1
  in
  close_trace ();
  if json then begin
    (* One JSON object of final statistics; the per-outcome keys reuse
       the [pp_outcome] spellings so they match Decision events and the
       ["outcome.<o>"] counters. *)
    let module D = Dct_sim.Driver in
    print_json ?metrics:registry
      ([ ("scheduler", Json.String r.D.name); ("model", Json.String model) ]
      @ (if model = "basic" then [ ("policy", Json.String (Policy.name policy)) ]
         else [])
      @ [
          ("steps", Json.Int r.D.steps);
          (Si.outcome_name Si.Accepted, Json.Int r.D.accepted);
          (Si.outcome_name Si.Rejected, Json.Int r.D.rejected);
          (Si.outcome_name Si.Delayed, Json.Int r.D.delayed);
          (Si.outcome_name Si.Ignored, Json.Int r.D.ignored);
          ("committed", Json.Int r.D.final.Si.committed_total);
          ("aborted", Json.Int r.D.final.Si.aborted_total);
          ("deleted", Json.Int r.D.final.Si.deleted_total);
          ("peak_resident", Json.Int r.D.peak_resident);
          ("peak_arcs", Json.Int r.D.peak_arcs);
          ("mean_resident", Json.Float r.D.mean_resident);
          ("final_resident", Json.Int r.D.final.Si.resident_txns);
          ("wall_ms", Json.Float (r.D.wall_seconds *. 1000.0));
        ])
  end
  else begin
    Printf.printf "workload: %s\n"
      (Format.asprintf "%a" Gen.pp_profile profile);
    (match oracle with
    | Some b ->
        Printf.printf "oracle: %s\n" (Dct_graph.Cycle_oracle.backend_name b)
    | None -> ());
    (match gc_index with
    | Some m ->
        Printf.printf "gc-index: %s\n"
          (Dct_deletion.Deletability_index.mode_name m)
    | None -> ());
    if selfcheck then
      Printf.printf "selfcheck: invariants validated after each of %d steps\n"
        !checked;
    Dct_sim.Report.print_table
      ~headers:[ "metric"; "value" ]
      [
        [ "scheduler"; r.Dct_sim.Driver.name ];
        [ "steps"; string_of_int r.Dct_sim.Driver.steps ];
        [ "accepted"; string_of_int r.Dct_sim.Driver.accepted ];
        [ "rejected"; string_of_int r.Dct_sim.Driver.rejected ];
        [ "delayed"; string_of_int r.Dct_sim.Driver.delayed ];
        [ "committed"; string_of_int r.Dct_sim.Driver.final.Si.committed_total ];
        [ "aborted"; string_of_int r.Dct_sim.Driver.final.Si.aborted_total ];
        [ "deleted"; string_of_int r.Dct_sim.Driver.final.Si.deleted_total ];
        [ "peak resident"; string_of_int r.Dct_sim.Driver.peak_resident ];
        [ "mean resident";
          Dct_sim.Report.fmt_float r.Dct_sim.Driver.mean_resident ];
        [ "final resident";
          string_of_int r.Dct_sim.Driver.final.Si.resident_txns ];
        [ "wall (ms)";
          Dct_sim.Report.fmt_float (r.Dct_sim.Driver.wall_seconds *. 1000.0) ];
      ];
    Option.iter
      (fun m ->
        print_newline ();
        print_string (Dct_telemetry.Metrics.render m))
      registry
  end;
  0

let simulate_cmd =
  let model =
    Arg.(
      value
      & opt string "basic"
      & info [ "m"; "model" ] ~docv:"MODEL"
          ~doc:
            "Scheduler: basic (alias: conflict) | certify | multiwrite | \
             predeclared | mvto | 2pl | timestamp.")
  in
  let txns =
    Arg.(value & opt int 200 & info [ "n"; "txns" ] ~doc:"Transactions to run.")
  in
  let entities =
    Arg.(value & opt int 64 & info [ "e"; "entities" ] ~doc:"Database size.")
  in
  let mpl =
    Arg.(value & opt int 8 & info [ "j"; "mpl" ] ~doc:"Concurrent transactions.")
  in
  let skew =
    Arg.(
      value
      & opt string "zipf:0.9"
      & info [ "skew" ] ~doc:"uniform | zipf:<theta> | hotspot:<frac>:<prob>.")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"PRNG seed.") in
  let long_readers =
    Arg.(value & opt int 0 & info [ "long-readers" ] ~doc:"Pinning readers.")
  in
  let long_reader_frac =
    Arg.(
      value & opt float 0.0
      & info [ "long-reader-frac" ] ~docv:"F"
          ~doc:
            "Additional pinning readers as a fraction of --txns (the \
             adversarial-GC knob: long read-only transactions pin their \
             tight successors' deletability).")
  in
  let burst =
    Arg.(
      value
      & opt (some (pair ~sep:':' int int)) None
      & info [ "burst" ] ~docv:"ON:OFF"
          ~doc:
            "Bursty (on/off modulated) arrivals: new transactions start \
             only during on windows of ON schedule positions separated by \
             off windows of OFF positions, so concurrency drains between \
             bursts.")
  in
  let selfcheck =
    Arg.(
      value & flag
      & info [ "selfcheck" ]
          ~doc:
            "Validate the graph-state invariants (acyclicity, index \
             mirrors, closure agreement, no resurrected transactions) \
             after every step; exit 1 on the first violation.")
  in
  let trace_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Record one JSONL telemetry event per scheduler decision \
             (steps, outcomes, deletions, oracle queries, residency \
             checkpoints) to $(docv); summarize with $(b,dct trace).  \
             Graph models only.")
  in
  let metrics_arg =
    Arg.(
      value & flag
      & info [ "metrics" ]
          ~doc:
            "Collect the metrics registry (outcome counters, deletion \
             success/denial counters, residency gauges with high-water \
             marks, oracle latency histograms) and print it after the \
             run.  Graph models only.")
  in
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "Print the final statistics as a single machine-parsable \
             JSON object instead of the table (with --metrics the \
             registry is embedded under \"metrics\").")
  in
  Cmd.v
    (Cmd.info "simulate" ~doc:"Run a synthetic workload through a scheduler")
    Term.(
      const simulate $ model $ policy_arg $ txns $ entities $ mpl $ skew $ seed
      $ long_readers $ long_reader_frac $ burst $ selfcheck $ oracle_arg
      $ gc_index_arg $ trace_arg $ metrics_arg $ json_arg)

(* --- serve --- *)

(* The executor behind [dct serve] and [dct bench-net]: --replay always
   wins (it is single-threaded anyway); --domains > 1 selects one
   applier domain per shard, falling back to the inline executor on a
   single-core host per the determinism contract — domains there are OS
   threads and can only add noise. *)
let pick_executor ~cmd ~domains ~replay =
  let module Eng = Dct_engine.Engine in
  match replay with
  | Some interleaving_seed -> Eng.Replay interleaving_seed
  | None when domains <= 1 -> Eng.Inline
  | None when Eng.available_domains () > 1 -> Eng.Domains
  | None ->
      Printf.eprintf
        "dct: %s: single-core host: --domains %d falls back to the inline \
         executor (use --replay SEED for the deterministic interleaving \
         simulator)\n"
        cmd domains;
      Eng.Inline

let rec take n = function
  | [] -> []
  | _ when n <= 0 -> []
  | x :: tl -> x :: take (n - 1) tl

let serve shards batch policy partitioner_spec steps txns entities mpl skew seed
    cross_shard oracle gc_index domains replay differential listen flush_ms
    trace metrics_on json =
  let module Eng = Dct_engine.Engine in
  let partitioner =
    match Dct_engine.Partitioner.of_string partitioner_spec ~shards with
    | Ok p -> p
    | Error e ->
        Printf.eprintf "dct: serve: %s\n" e;
        exit 2
  in
  let profile =
    {
      Gen.default with
      Gen.n_txns = txns;
      n_entities = entities;
      mpl;
      skew;
      seed;
      shards;
      cross_shard;
    }
  in
  let schedule = Gen.basic profile in
  let schedule =
    match steps with None -> schedule | Some n -> take n schedule
  in
  let tracer, registry, close_trace = telemetry ~trace ~metrics_on in
  let executor = pick_executor ~cmd:"serve" ~domains ~replay in
  let cfg =
    Eng.config ~policy ~partitioner ?oracle ~tracer ?gc_index ~executor ~shards
      ~batch ()
  in
  let serve_socket addr_spec =
    (* Network mode: clients supply the traffic; the generated schedule
       and --steps are ignored.  Runs until SIGINT/SIGTERM, then shuts
       down, finishes the engine and prints the usual report. *)
    let addr =
      match Dct_net.Addr.of_string addr_spec with
      | Ok a -> a
      | Error e ->
          Printf.eprintf "dct: serve: --listen: %s\n" e;
          exit 2
    in
    let srv = Dct_net.Server.create ~flush_ms ~engine:(Eng.create cfg) addr in
    let stop_requested = ref false in
    let on_signal = Sys.Signal_handle (fun _ -> stop_requested := true) in
    Sys.set_signal Sys.sigint on_signal;
    (try Sys.set_signal Sys.sigterm on_signal with Invalid_argument _ -> ());
    let t0 = Dct_telemetry.Probe.now_ns () in
    Dct_net.Server.start srv;
    Printf.printf
      "dct: serve: listening on %s (%s executor, %d shard(s), batch %d, \
       flush %d ms); Ctrl-C to stop\n\
       %!"
      (Dct_net.Addr.to_string (Dct_net.Server.addr srv))
      (Eng.executor_name executor)
      shards batch flush_ms;
    while not !stop_requested do
      Thread.delay 0.1
    done;
    Dct_net.Server.stop srv;
    Printf.printf "dct: serve: %d connection(s) served, %d protocol error(s)\n"
      (Dct_net.Server.connections srv)
      (Dct_net.Server.proto_errors srv);
    Dct_net.Server.finish srv
      ~wall_seconds:((Dct_telemetry.Probe.now_ns () -. t0) /. 1e9)
  in
  let r =
    try
      match listen with
      | Some addr_spec -> serve_socket addr_spec
      | None -> Eng.run (Eng.create cfg) schedule
    with
    | Dct_deletion.Deletability_index.Divergence msg ->
        Printf.eprintf "gc-index DIVERGENCE: %s\n" msg;
        exit 1
    | Eng.Shard_failure (shard, msg) ->
        (* a dead shard applier must never exit 0 — even one that died
           after the last awaited barrier *)
        Printf.eprintf "dct: serve: shard %d domain failed: %s\n" shard msg;
        exit 1
  in
  close_trace ();
  let c = r.Eng.coordinator in
  let throughput =
    if r.Eng.wall_seconds > 0.0 then
      float_of_int r.Eng.steps /. r.Eng.wall_seconds
    else 0.0
  in
  if json then begin
    let shard i (s : Dct_engine.Shard.stats) =
      Json.Obj
        [
          ("shard", Json.Int i);
          ("hosted", Json.Int s.hosted_total);
          ("resident", Json.Int s.resident_txns);
          ("resident_hwm", Json.Int s.resident_hwm);
          ("committed", Json.Int s.committed);
          ("aborted", Json.Int s.aborted);
          ("deleted_local", Json.Int s.deleted_local);
          ("deleted_forced", Json.Int s.deleted_forced);
          ("wal_retained", Json.Int s.wal_retained);
          ("wal_truncated", Json.Int s.wal_truncated);
        ]
    in
    (* perfbench reads committed, full_batches and ticks out of this
       line by substring, first match winning: they must stay ahead of
       shard_stats and metrics *)
    print_json ?metrics:registry
      [
        ("engine", Json.String r.Eng.name);
        ("shards", Json.Int r.Eng.shards);
        ("batch", Json.Int r.Eng.batch);
        ("domains", Json.Int r.Eng.domains);
        ("mode", Json.String r.Eng.executor);
        ("barriers", Json.Int r.Eng.barriers);
        ("policy", Json.String (Policy.name policy));
        ("steps", Json.Int r.Eng.steps);
        (Si.outcome_name Si.Accepted, Json.Int r.Eng.accepted);
        (Si.outcome_name Si.Rejected, Json.Int r.Eng.rejected);
        (Si.outcome_name Si.Ignored, Json.Int r.Eng.ignored);
        ("committed", Json.Int r.Eng.committed);
        ("aborted", Json.Int r.Eng.aborted);
        ("full_batches", Json.Int r.Eng.full_batches);
        ("ticks", Json.Int r.Eng.ticks);
        ("coordinator_resident", Json.Int c.Dct_engine.Coordinator.resident_txns);
        ("coordinator_hwm", Json.Int c.Dct_engine.Coordinator.resident_hwm);
        ("deleted", Json.Int c.Dct_engine.Coordinator.deleted_total);
        ("shard_resident_hwm", Json.Int r.Eng.shard_resident_hwm);
        ("cross_shard_arcs", Json.Int r.Eng.cross_shard_arcs);
        ("local_arcs", Json.Int r.Eng.local_arcs);
        ("distributed_txns", Json.Int r.Eng.distributed_txns);
        ("throughput_steps_per_s", Json.Float throughput);
        ("wall_ms", Json.Float (r.Eng.wall_seconds *. 1000.0));
        ( "shard_stats",
          Json.List (Array.to_list (Array.mapi shard r.Eng.shard_stats)) );
      ]
  end
  else begin
    Printf.printf "workload: %s\n" (Format.asprintf "%a" Gen.pp_profile profile);
    Printf.printf "engine: %s\n" r.Eng.name;
    Printf.printf "executor: %s, %d applier domain(s), %d barriers\n"
      r.Eng.executor r.Eng.domains r.Eng.barriers;
    Dct_sim.Report.print_table
      ~headers:[ "metric"; "value" ]
      [
        [ "steps"; string_of_int r.Eng.steps ];
        [ "accepted"; string_of_int r.Eng.accepted ];
        [ "rejected"; string_of_int r.Eng.rejected ];
        [ "committed"; string_of_int r.Eng.committed ];
        [ "aborted"; string_of_int r.Eng.aborted ];
        [ "full batches"; string_of_int r.Eng.full_batches ];
        [ "ticks"; string_of_int r.Eng.ticks ];
        [ "coordinator resident";
          string_of_int c.Dct_engine.Coordinator.resident_txns ];
        [ "coordinator hwm";
          string_of_int c.Dct_engine.Coordinator.resident_hwm ];
        [ "deleted (policy)";
          string_of_int c.Dct_engine.Coordinator.deleted_total ];
        [ "shard resident hwm"; string_of_int r.Eng.shard_resident_hwm ];
        [ "cross-shard arcs"; string_of_int r.Eng.cross_shard_arcs ];
        [ "local arcs"; string_of_int r.Eng.local_arcs ];
        [ "distributed txns"; string_of_int r.Eng.distributed_txns ];
        [ "throughput (steps/s)"; Dct_sim.Report.fmt_float throughput ];
        [ "wall (ms)";
          Dct_sim.Report.fmt_float (r.Eng.wall_seconds *. 1000.0) ];
      ];
    print_newline ();
    Dct_sim.Report.print_table
      ~headers:
        [ "shard"; "hosted"; "resident"; "hwm"; "committed"; "aborted";
          "gc local"; "gc forced"; "wal" ]
      (Array.to_list
         (Array.mapi
            (fun i (s : Dct_engine.Shard.stats) ->
              [
                string_of_int i;
                string_of_int s.hosted_total;
                string_of_int s.resident_txns;
                string_of_int s.resident_hwm;
                string_of_int s.committed;
                string_of_int s.aborted;
                string_of_int s.deleted_local;
                string_of_int s.deleted_forced;
                string_of_int s.wal_retained;
              ])
            r.Eng.shard_stats));
    Option.iter
      (fun m ->
        print_newline ();
        print_string (Dct_telemetry.Metrics.render m))
      registry
  end;
  if not differential then 0
  else if listen <> None then begin
    Printf.eprintf
      "dct: serve: --differential is ignored with --listen (the served \
       traffic came from clients, not the generated schedule)\n";
    0
  end
  else begin
    try
      let d =
        Eng.differential ~executor ?oracle ~partitioner ?gc_index ~shards
          ~batch ~policy schedule
      in
      if not json then begin
        print_newline ();
        Format.printf "%a@." Eng.pp_differential d
      end;
      if Eng.differential_ok d then 0
      else begin
        Printf.eprintf
          "dct: serve: differential FAILED (engine diverges from the \
           single-node scheduler or the inline executor)\n";
        1
      end
    with Eng.Shard_failure (shard, msg) ->
      (* the differential's run can lose an applier too *)
      Printf.eprintf "dct: serve: shard %d domain failed: %s\n" shard msg;
      1
  end

let serve_cmd =
  let shards =
    Arg.(value & opt int 4 & info [ "shards" ] ~doc:"Number of shards.")
  in
  let batch =
    Arg.(
      value & opt int 16
      & info [ "b"; "batch" ] ~doc:"Admission batch size (group commit).")
  in
  let partitioner_arg =
    Arg.(
      value
      & opt string "hash"
      & info [ "partitioner" ] ~docv:"SPEC"
          ~doc:"Data placement: hash | range:<span>.")
  in
  let steps =
    Arg.(
      value
      & opt (some int) None
      & info [ "steps" ] ~docv:"S"
          ~doc:
            "Submit only the first $(docv) steps of the generated \
             workload (default: all of it).")
  in
  let txns =
    Arg.(value & opt int 200 & info [ "n"; "txns" ] ~doc:"Transactions to run.")
  in
  let entities =
    Arg.(value & opt int 64 & info [ "e"; "entities" ] ~doc:"Database size.")
  in
  let mpl =
    Arg.(value & opt int 8 & info [ "j"; "mpl" ] ~doc:"Concurrent transactions.")
  in
  let skew =
    Arg.(
      value
      & opt string "zipf:0.9"
      & info [ "skew" ] ~doc:"uniform | zipf:<theta> | hotspot:<frac>:<prob>.")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"PRNG seed.") in
  let cross_shard =
    Arg.(
      value
      & opt float 0.1
      & info [ "cross-shard" ] ~docv:"P"
          ~doc:
            "Probability a shard-affine transaction's key is drawn \
             outside its home shard (distributed-transaction rate).")
  in
  let domains_arg =
    Arg.(
      value & opt int 1
      & info [ "domains" ] ~docv:"N"
          ~doc:
            "$(docv) > 1 selects the domains executor: one OCaml domain \
             per shard applying commands behind the coordinator. Decision \
             traces are identical to the default inline executor's by \
             construction. Falls back to the inline executor (with a \
             note) on a single-core host or with $(docv) = 1.")
  in
  let replay_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "replay" ] ~docv:"SEED"
          ~doc:
            "Run the domains executor's protocol in the deterministic \
             single-threaded interleaving simulator, with $(docv) \
             choosing which shard advances between coordinator sends. \
             Every seed must produce identical results; overrides \
             --domains.")
  in
  let differential =
    Arg.(
      value & flag
      & info [ "differential" ]
          ~doc:
            "Re-run the same step sequence through a single-node \
             conflict-graph scheduler in lock-step and verify identical \
             accept/reject outcomes, per-shard residency bounded by the \
             single-node residency, identical deletion rounds, and \
             identical final store contents (under --domains/--replay \
             additionally: identical per-shard state and telemetry trace \
             vs the inline executor); exit 1 on any divergence.")
  in
  let listen_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "listen" ] ~docv:"ADDR"
          ~doc:
            "Serve real traffic instead of the generated workload: accept \
             concurrent clients on $(docv) (unix:PATH, tcp:HOST:PORT, or \
             HOST:PORT) speaking the binary or line wire dialect, feed \
             their steps through the admission queue, and route each \
             decision back to the issuing client.  Runs until SIGINT, \
             then prints the usual report.")
  in
  let flush_ms_arg =
    Arg.(
      value & opt int 20
      & info [ "flush-ms" ] ~docv:"MS"
          ~doc:
            "Group-commit flush interval for --listen: a partial \
             admission batch waits at most $(docv) ms before being \
             processed.  0 disables the timer (batches flush only when \
             full or on control requests).")
  in
  let trace_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Record one JSONL telemetry event per engine decision to \
             $(docv); the trace has the single-node shape and \
             $(b,dct trace) (including --audit) consumes it unmodified.")
  in
  let metrics_arg =
    Arg.(
      value & flag
      & info [ "metrics" ]
          ~doc:
            "Collect the metrics registry (outcome counters, per-shard \
             residency gauges, deletion counters) and print it after the \
             run.")
  in
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Print the report as one machine-parsable JSON object.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run a workload through the online sharded engine: batched \
          admission, coordinator-exact decisions, per-shard stores and \
          WALs, deletion-policy GC at both scopes.  With --listen, serve \
          the engine to socket clients instead.")
    Term.(
      const serve $ shards $ batch $ policy_arg $ partitioner_arg $ steps
      $ txns $ entities $ mpl $ skew $ seed $ cross_shard $ oracle_arg
      $ gc_index_arg $ domains_arg $ replay_arg $ differential $ listen_arg
      $ flush_ms_arg $ trace_arg $ metrics_arg $ json_arg)

(* --- client --- *)

let client_main connect_spec dialect_line ops =
  let module Net = Dct_net in
  let addr =
    match Net.Addr.of_string connect_spec with
    | Ok a -> a
    | Error e ->
        Printf.eprintf "dct: client: %s\n" e;
        exit 2
  in
  let dialect = if dialect_line then Net.Wire.Line else Net.Wire.Binary in
  let c = Net.Client.connect ~dialect addr in
  let rc = ref 0 in
  (* One request per line, in the line-dialect syntax, whatever dialect
     the connection speaks; responses print as line-dialect text. *)
  let run_line line =
    match Net.Wire.decode_request Net.Wire.Line (line ^ "\n") ~pos:0 with
    | Error e ->
        Printf.eprintf "dct: client: %s\n" (Net.Wire.error_to_string e);
        rc := 2
    | Ok (req, _) -> (
        match Net.Client.call c req with
        | Ok resp -> print_string (Net.Wire.encode_response Net.Wire.Line resp)
        | Error e ->
            Printf.eprintf "dct: client: %s\n" (Net.Wire.error_to_string e);
            rc := 1)
  in
  (match ops with
  | [] -> (
      (* no request on the command line: read them from stdin *)
      try
        while true do
          let line = String.trim (input_line stdin) in
          if line <> "" then run_line line
        done
      with End_of_file -> ())
  | words -> run_line (String.concat " " words));
  Net.Client.close c;
  !rc

let client_cmd =
  let connect =
    Arg.(
      required
      & opt (some string) None
      & info [ "c"; "connect" ] ~docv:"ADDR"
          ~doc:"Server address: unix:PATH, tcp:HOST:PORT, or HOST:PORT.")
  in
  let dialect_line =
    Arg.(
      value & flag
      & info [ "line" ]
          ~doc:
            "Speak the line dialect on the wire instead of the binary one \
             (the server sniffs either).")
  in
  let ops =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"REQUEST"
          ~doc:
            "One request, e.g. $(b,begin 7), $(b,read 7 42), \
             $(b,write 7 1,2), $(b,complete 7), $(b,abort 7), $(b,stats). \
             Omitted: read one request per line from stdin.")
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:
         "Send requests to a $(b,dct serve --listen) server and print the \
          responses")
    Term.(const client_main $ connect $ dialect_line $ ops)

(* --- bench-net --- *)

let bench_net mix_spec clients txns_per_client keys shards batch policy
    gc_index domains replay flush_ms dialect_line seed json =
  let module Eng = Dct_engine.Engine in
  let module Net = Dct_net in
  let module Mix = Dct_workload.Mix in
  let mix =
    match Mix.of_string mix_spec with
    | Ok m -> m
    | Error e ->
        Printf.eprintf "dct: bench-net: %s\n" e;
        exit 2
  in
  let executor = pick_executor ~cmd:"bench-net" ~domains ~replay in
  let dialect = if dialect_line then Net.Wire.Line else Net.Wire.Binary in
  let lb =
    try
      Net.Driver.loopback ?gc_index ~executor ~policy ~shards ~batch ~flush_ms
        { Net.Driver.clients; txns_per_client; mix; keys; seed; dialect }
    with Eng.Shard_failure (shard, msg) ->
      Printf.eprintf "dct: bench-net: shard %d domain failed: %s\n" shard msg;
      exit 1
  in
  let dres = lb.Net.Driver.driver and report = lb.Net.Driver.report in
  if json then
    print_json
      [
        ("mix", Json.String (Mix.name mix));
        ("backend", Json.String report.Eng.executor);
        ("shards", Json.Int shards);
        ("batch", Json.Int batch);
        ("clients", Json.Int clients);
        ("txns", Json.Int dres.Net.Driver.txns);
        ("completed", Json.Int dres.Net.Driver.completed);
        ("aborted", Json.Int dres.Net.Driver.aborted);
        ("ops", Json.Int dres.Net.Driver.ops);
        ("wall_s", Json.Float dres.Net.Driver.wall_seconds);
        ("throughput_ops_per_s", Json.Float dres.Net.Driver.throughput);
        ("p50_us", Json.Float lb.Net.Driver.p50_us);
        ("p90_us", Json.Float lb.Net.Driver.p90_us);
        ("p99_us", Json.Float lb.Net.Driver.p99_us);
        ( "coordinator_hwm",
          Json.Int report.Eng.coordinator.Dct_engine.Coordinator.resident_hwm );
        ("shard_resident_hwm", Json.Int report.Eng.shard_resident_hwm);
      ]
  else begin
    Printf.printf "mix: %s — %s\n" (Mix.name mix) (Mix.description mix);
    Dct_sim.Report.print_table
      ~headers:[ "metric"; "value" ]
      [
        [ "backend"; report.Eng.executor ];
        [ "clients"; string_of_int clients ];
        [ "transactions"; string_of_int dres.Net.Driver.txns ];
        [ "completed"; string_of_int dres.Net.Driver.completed ];
        [ "aborted"; string_of_int dres.Net.Driver.aborted ];
        [ "ops"; string_of_int dres.Net.Driver.ops ];
        [ "throughput (ops/s)";
          Dct_sim.Report.fmt_float dres.Net.Driver.throughput ];
        [ "p50 (us)"; Dct_sim.Report.fmt_float lb.Net.Driver.p50_us ];
        [ "p90 (us)"; Dct_sim.Report.fmt_float lb.Net.Driver.p90_us ];
        [ "p99 (us)"; Dct_sim.Report.fmt_float lb.Net.Driver.p99_us ];
        [ "coordinator hwm";
          string_of_int
            report.Eng.coordinator.Dct_engine.Coordinator.resident_hwm ];
        [ "shard resident hwm"; string_of_int report.Eng.shard_resident_hwm ];
        [ "wall (s)";
          Dct_sim.Report.fmt_float dres.Net.Driver.wall_seconds ];
      ]
  end;
  0

let bench_net_cmd =
  let mix =
    Arg.(
      value
      & opt string "ycsb-b"
      & info [ "mix" ] ~docv:"MIX"
          ~doc:
            "Workload mix: ycsb-a..ycsb-f, tpcc, long-reader-pin, hot-key, \
             bursty.")
  in
  let clients =
    Arg.(value & opt int 4 & info [ "clients" ] ~doc:"Concurrent connections.")
  in
  let txns =
    Arg.(
      value & opt int 100
      & info [ "n"; "txns" ] ~doc:"Transactions per client.")
  in
  let keys =
    Arg.(value & opt int 1024 & info [ "keys" ] ~doc:"Loaded keyspace size.")
  in
  let shards =
    Arg.(value & opt int 4 & info [ "shards" ] ~doc:"Number of shards.")
  in
  let batch =
    Arg.(
      value & opt int 16
      & info [ "b"; "batch" ] ~doc:"Admission batch size (group commit).")
  in
  let domains_arg =
    Arg.(
      value & opt int 1
      & info [ "domains" ] ~docv:"N"
          ~doc:"$(docv) > 1 serves from the domains executor.")
  in
  let replay_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "replay" ] ~docv:"SEED"
          ~doc:
            "Serve from the domains executor's deterministic \
             interleaving simulator; overrides --domains.")
  in
  let flush_ms_arg =
    Arg.(
      value & opt int 5
      & info [ "flush-ms" ] ~docv:"MS"
          ~doc:"Group-commit flush interval (0 disables the timer).")
  in
  let dialect_line =
    Arg.(
      value & flag
      & info [ "line" ] ~doc:"Drive the line dialect instead of binary.")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"PRNG seed.") in
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Print the report as one machine-parsable JSON object.")
  in
  Cmd.v
    (Cmd.info "bench-net"
       ~doc:
         "Drive a workload mix against an in-process loopback server \
          (Unix socket) and report throughput, latency percentiles and \
          residency high-water marks")
    Term.(
      const bench_net $ mix $ clients $ txns $ keys $ shards $ batch
      $ policy_arg $ gc_index_arg $ domains_arg $ replay_arg $ flush_ms_arg
      $ dialect_line $ seed $ json_arg)

(* --- trace --- *)

let trace_report path audit_on safety_depth strict =
  let module E = Dct_telemetry.Event in
  match Dct_telemetry.Sink.read_file_lenient path with
  | Error e ->
      Printf.eprintf "dct: trace: %s\n" e;
      2
  | Ok (_, (lineno, e) :: _) when strict ->
      Printf.eprintf "dct: trace: %s: line %d: %s\n" path lineno e;
      Printf.eprintf "dct: trace: stopping at first malformed line (--strict)\n";
      1
  | Ok ([], []) ->
      (* An empty trace is almost always a mistake (wrong file, crashed
         producer) — refuse rather than print an all-zero summary. *)
      Printf.eprintf
        "dct: trace: %s: empty trace (no events; was the file produced \
         with --trace?)\n"
        path;
      2
  | Ok (events, errors) ->
      List.iter
        (fun (lineno, e) ->
          Printf.eprintf "dct: trace: %s: line %d: %s\n" path lineno e)
        errors;
      if events = [] then begin
        Printf.eprintf
          "dct: trace: %s: no parseable events (%d malformed lines)\n" path
          (List.length errors);
        exit 2
      end;
      if errors <> [] then
        Printf.eprintf
          "dct: trace: %s: %d malformed lines skipped; summarizing the %d \
           parseable events\n"
          path (List.length errors) (List.length events);
      let bump tbl key n =
        Hashtbl.replace tbl key
          (n + Option.value ~default:0 (Hashtbl.find_opt tbl key))
      in
      let sorted tbl =
        List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])
      in
      let outcomes = Hashtbl.create 8 in
      let reasons = Hashtbl.create 8 in
      (* policy -> (candidates examined, deleted, blocked) *)
      let deletions = Hashtbl.create 8 in
      let denials = Hashtbl.create 8 in
      let oracle = Hashtbl.create 8 in
      (* GC rounds are probe observations too (op = "gc", backend = the
         deletability-index mode); they get their own section rather
         than a row in the oracle table. *)
      let gc = Hashtbl.create 4 in
      let checkpoints = ref [] in
      let steps = ref 0 and cycles = ref 0 and restarts = ref 0
      and client_aborts = ref 0 in
      let del_bump policy f =
        let c, d, b =
          Option.value ~default:(0, 0, 0) (Hashtbl.find_opt deletions policy)
        in
        Hashtbl.replace deletions policy (f (c, d, b))
      in
      List.iter
        (function
          | E.Step_submitted _ -> incr steps
          | E.Decision { outcome; reason; _ } ->
              bump outcomes outcome 1;
              if reason <> "" then bump reasons (outcome, reason) 1
          | E.Deletion_attempted { policy; candidates } ->
              del_bump policy (fun (c, d, b) ->
                  (c + List.length candidates, d, b))
          | E.Deletion_ok { policy; deleted } ->
              del_bump policy (fun (c, d, b) -> (c, d + List.length deleted, b))
          | E.Deletion_blocked { policy; condition; _ } ->
              del_bump policy (fun (c, d, b) -> (c, d, b + 1));
              bump denials (policy, condition) 1
          | E.Oracle_query { op; backend; ns } ->
              let tbl, key =
                if op = "gc" then (gc, (backend, op)) else (oracle, (backend, op))
              in
              let cell =
                match Hashtbl.find_opt tbl key with
                | Some r -> r
                | None ->
                    let r = ref [] in
                    Hashtbl.add tbl key r;
                    r
              in
              cell := ns :: !cell
          | E.Cycle_rejected _ -> incr cycles
          | E.Restart _ -> incr restarts
          | E.Txn_aborted _ -> incr client_aborts
          | E.Checkpoint_stats s -> checkpoints := s :: !checkpoints)
        events;
      let checkpoints = List.rev !checkpoints in
      Printf.printf "trace: %s (%d events, %d steps)\n" path
        (List.length events) !steps;
      if Hashtbl.length outcomes > 0 then begin
        print_newline ();
        Dct_sim.Report.print_table ~headers:[ "outcome"; "count" ]
          (List.map
             (fun (k, v) -> [ k; string_of_int v ])
             (sorted outcomes))
      end;
      if Hashtbl.length reasons > 0 then begin
        print_newline ();
        Dct_sim.Report.print_table
          ~headers:[ "outcome"; "reason"; "count" ]
          (List.map
             (fun ((o, r), v) -> [ o; r; string_of_int v ])
             (sorted reasons))
      end;
      if !cycles > 0 then
        Printf.printf "cycle rejections (with witness): %d\n" !cycles;
      if !restarts > 0 then Printf.printf "restarts scheduled: %d\n" !restarts;
      if !client_aborts > 0 then
        Printf.printf "aborts outside a step (client): %d\n" !client_aborts;
      if Hashtbl.length deletions > 0 then begin
        print_newline ();
        Dct_sim.Report.print_table
          ~headers:[ "policy"; "candidates"; "deleted"; "blocked" ]
          (List.map
             (fun (p, (c, d, b)) ->
               [ p; string_of_int c; string_of_int d; string_of_int b ])
             (sorted deletions));
        if Hashtbl.length denials > 0 then begin
          print_newline ();
          Dct_sim.Report.print_table
            ~headers:[ "policy"; "blocking condition"; "denials" ]
            (List.map
               (fun ((p, c), v) -> [ p; c; string_of_int v ])
               (sorted denials))
        end
      end;
      (match checkpoints with
      | [] -> ()
      | cps ->
          print_newline ();
          let n = List.length cps in
          let hwm =
            List.fold_left (fun m c -> max m c.E.resident_txns) 0 cps
          in
          let bytes_hwm =
            List.fold_left (fun m c -> max m c.E.resident_bytes) 0 cps
          in
          Printf.printf
            "residency: %d checkpoints, high-water mark %d resident txns\n" n
            hwm;
          if bytes_hwm > 0 then
            Printf.printf "graph substrate high-water mark: %d bytes\n"
              bytes_hwm;
          (* Cap the timeline at ~20 evenly spaced rows, always keeping
             the last checkpoint (the post-drain state). *)
          let stride = (n + 19) / 20 in
          let rows =
            List.filteri
              (fun i _ -> i mod stride = 0 || i = n - 1)
              cps
          in
          if List.length rows < n then
            Printf.printf "(timeline sampled every %d checkpoints)\n" stride;
          Dct_sim.Report.print_table
            ~headers:
              [ "step"; "resident"; "arcs"; "active"; "committed"; "aborted";
                "deleted"; "bytes" ]
            (List.map
               (fun c ->
                 [
                   string_of_int c.E.at_step;
                   string_of_int c.E.resident_txns;
                   string_of_int c.E.resident_arcs;
                   string_of_int c.E.active_txns;
                   string_of_int c.E.committed;
                   string_of_int c.E.aborted;
                   string_of_int c.E.deleted;
                   string_of_int c.E.resident_bytes;
                 ])
               rows));
      let pct p xs = Dct_sim.Metrics.percentile p xs in
      if Hashtbl.length oracle > 0 then begin
        print_newline ();
        Dct_sim.Report.print_table
          ~headers:
            [ "backend"; "op"; "queries"; "p50 ns"; "p90 ns"; "p99 ns";
              "max ns" ]
          (List.map
             (fun ((bk, op), cell) ->
               let xs = !cell in
               [
                 bk; op;
                 string_of_int (List.length xs);
                 Printf.sprintf "%.0f" (pct 50.0 xs);
                 Printf.sprintf "%.0f" (pct 90.0 xs);
                 Printf.sprintf "%.0f" (pct 99.0 xs);
                 Printf.sprintf "%.0f" (pct 100.0 xs);
               ])
             (List.sort compare
                (Hashtbl.fold (fun k v acc -> (k, v) :: acc) oracle [])))
      end;
      if Hashtbl.length gc > 0 then begin
        print_newline ();
        Printf.printf "gc (per-call latency by deletability-index backend):\n";
        Dct_sim.Report.print_table
          ~headers:
            [ "gc index"; "calls"; "p50 ns"; "p90 ns"; "p99 ns"; "max ns" ]
          (List.map
             (fun ((bk, _op), cell) ->
               let xs = !cell in
               [
                 bk;
                 string_of_int (List.length xs);
                 Printf.sprintf "%.0f" (pct 50.0 xs);
                 Printf.sprintf "%.0f" (pct 90.0 xs);
                 Printf.sprintf "%.0f" (pct 99.0 xs);
                 Printf.sprintf "%.0f" (pct 100.0 xs);
               ])
             (List.sort compare
                (Hashtbl.fold (fun k v acc -> (k, v) :: acc) gc [])))
      end;
      (* Malformed lines poison the summary's accounting: succeed only
         on a fully parseable trace. *)
      let clean = if errors = [] then 0 else 1 in
      if not audit_on then clean
      else begin
        let module A = Dct_analysis.Audit in
        print_newline ();
        match A.of_telemetry events with
        | Error e ->
            Printf.eprintf "dct: trace: --audit: %s\n" e;
            2
        | Ok tr ->
            let report = A.audit ?safety_depth tr in
            Format.printf "%a@." (fun ppf r -> A.pp_report ppf r) report;
            if A.ok report then clean else 1
      end

let trace_cmd =
  let file =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"FILE"
          ~doc:"JSONL telemetry file written by $(b,dct simulate --trace).")
  in
  let audit_on =
    Arg.(
      value & flag
      & info [ "audit" ]
          ~doc:
            "Rebuild the decision trace from the telemetry events and \
             cross-check it with the deletion auditor (basic-model \
             traces only; exit 1 on the first unjustified decision).")
  in
  let safety_depth =
    Arg.(
      value
      & opt (some int) None
      & info [ "safety-depth" ] ~docv:"D"
          ~doc:
            "With --audit, also consult the bounded ground-truth safety \
             search for deletions failing both condition checks.  \
             Expensive; keep at most 3.")
  in
  let strict =
    Arg.(
      value & flag
      & info [ "strict" ]
          ~doc:
            "Stop at the first malformed line instead of skipping and \
             summarizing the parseable remainder.")
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Summarize a telemetry trace: per-outcome decision counts, \
          rejection reasons, deletion successes and denial reasons per \
          policy, residency timeline with high-water mark, oracle \
          latency percentiles per backend and operation, and per-call \
          GC latency percentiles per deletability-index backend.  Exits \
          0 on a clean summary, 1 on malformed lines or an --audit \
          finding, 2 on unreadable or empty input.")
    Term.(const trace_report $ file $ audit_on $ safety_depth $ strict)

(* --- lint --- *)

let lint files machine strict =
  let module L = Dct_analysis.Lint in
  List.fold_left
    (fun worst path ->
      match L.lint_file path with
      | Error e ->
          Printf.eprintf "dct: lint: %s\n" e;
          max worst 2
      | Ok findings ->
          print_string
            (if machine then L.render_machine ~file:path findings
             else L.render ~file:path findings);
          max worst (L.exit_code ~strict findings))
    0 files

let lint_cmd =
  (* [Arg.string], not [Arg.file]: unreadable paths must flow through
     [Lint.lint_file] so the documented exit code 2 applies. *)
  let files =
    Arg.(
      non_empty & pos_all string []
      & info [] ~docv:"FILE" ~doc:"Schedule files to lint.")
  in
  let machine =
    Arg.(
      value & flag
      & info [ "machine" ]
          ~doc:"Tab-separated output (file, line, severity, code, message).")
  in
  let strict =
    Arg.(value & flag & info [ "strict" ] ~doc:"Treat warnings as errors.")
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Static diagnostics over schedule files (codes DCT000-DCT009). \
          Exits 0 when clean, 1 on findings, 2 on I/O errors."
       ~man:
         [
           `S Manpage.s_description;
           `P "Checked diagnostics:";
           `Noblank;
           `Pre
             (String.concat "\n"
                (List.map
                   (fun (c, d) -> Printf.sprintf "  %s  %s" c d)
                   Dct_analysis.Lint.code_descriptions));
         ])
    Term.(const lint $ files $ machine $ strict)

(* --- audit --- *)

let audit path policy safety_depth =
  let module L = Dct_analysis.Lint in
  let module A = Dct_analysis.Audit in
  match L.lint_file path with
  | Error e ->
      Printf.eprintf "dct: audit: %s\n" e;
      2
  | Ok findings when L.errors findings <> [] ->
      print_string (L.render ~file:path findings);
      Printf.eprintf "dct: audit: %s has lint errors; fix them first\n" path;
      2
  | Ok _ -> (
      let env = Dct_txn.Parse.create_env () in
      match Dct_txn.Parse.parse_file env path with
      | Error e ->
          Printf.eprintf "dct: audit: %s\n" e;
          2
      | Ok schedule ->
          let basic_only =
            List.for_all
              (function
                | Dct_txn.Step.Begin _ | Dct_txn.Step.Read _
                | Dct_txn.Step.Write _ ->
                    true
                | Dct_txn.Step.Begin_declared _ | Dct_txn.Step.Write_one _
                | Dct_txn.Step.Finish _ ->
                    false)
              schedule
          in
          if not basic_only then begin
            Printf.eprintf
              "dct: audit: %s uses multi-write or predeclared steps; the \
               trace auditor supports the basic model only\n"
              path;
            2
          end
          else begin
            let report = A.audit_schedule ?safety_depth ~policy schedule in
            let txn_name id =
              Option.value ~default:(Printf.sprintf "T%d" id)
                (Dct_txn.Symtab.name env.Dct_txn.Parse.txns id)
            in
            let entity_name id =
              Option.value ~default:(Printf.sprintf "e%d" id)
                (Dct_txn.Symtab.name env.Dct_txn.Parse.entities id)
            in
            Format.printf "policy: %s@.%a@." (Policy.name policy)
              (A.pp_report ~txn_name ~entity_name)
              report;
            if A.ok report then 0 else 1
          end)

let audit_cmd =
  let safety_depth =
    Arg.(
      value
      & opt (some int) None
      & info [ "safety-depth" ] ~docv:"D"
          ~doc:
            "Also consult the bounded ground-truth safety oracle \
             (exhaustive continuation search to depth $(docv)) for \
             deletions that fail both condition checks.  Expensive; keep \
             at most 3.")
  in
  Cmd.v
    (Cmd.info "audit"
       ~doc:
         "Replay a schedule under a deletion policy and cross-check every \
          decision: each deletion against the C1/C2 oracles (optionally \
          the bounded safety search) and the accepted schedule against a \
          closure-based CSR test.  Exits 0 when every decision is \
          justified, 1 on the first unjustified one, 2 on bad input.")
    Term.(const audit $ schedule_file $ policy_arg $ safety_depth)

(* --- check --- *)

let load_basic_state path =
  let env = Dct_txn.Parse.create_env () in
  let schedule = Dct_txn.Parse.parse_exn env (read_file path) in
  let gs = Gs.create () in
  let outcomes = Dct_deletion.Rules.apply_all gs schedule in
  List.iter2
    (fun o s ->
      match o with
      | Dct_deletion.Rules.Rejected ->
          Printf.printf "note: %s was rejected (transaction aborted)\n"
            (Dct_txn.Parse.unparse_step env s)
      | _ -> ())
    outcomes schedule;
  (env, gs)

let load_predeclared_state path =
  let env = Dct_txn.Parse.create_env () in
  let schedule = Dct_txn.Parse.parse_exn env (read_file path) in
  let t = Dct_sched.Predeclared_scheduler.create () in
  List.iter (fun s -> ignore (Dct_sched.Predeclared_scheduler.step t s)) schedule;
  ignore (Dct_sched.Predeclared_scheduler.drain t);
  (env, Dct_sched.Predeclared_scheduler.graph_state t)

let txn_id env name =
  match Dct_txn.Symtab.find env.Dct_txn.Parse.txns name with
  | Some id -> id
  | None -> Printf.ksprintf failwith "unknown transaction %S" name

let txn_name env id =
  Option.value ~default:(string_of_int id)
    (Dct_txn.Symtab.name env.Dct_txn.Parse.txns id)

(* Condition mode (-s): evaluate C1/C2/C4/max on a schedule file. *)
let check_conditions condition path names =
  let lazy_basic = lazy (load_basic_state path) in
  let env_gs () = Lazy.force lazy_basic in
  (match (condition, names) with
  | "c1", [] ->
      let env, gs = env_gs () in
      let eligible = Dct_deletion.Condition_c1.eligible gs in
      Printf.printf "C1-eligible: %s\n"
        (String.concat ", "
           (List.map (txn_name env) (Intset.elements eligible)))
  | "c1", names ->
      let env, gs = env_gs () in
      List.iter
        (fun name ->
          let id = txn_id env name in
          (* boolean verdict via the short-circuiting check; [witnesses]
             below still uses the enumerating path for the explanation *)
          let ok = Dct_deletion.Condition_c1.holds_fast gs id in
          Printf.printf "%s: %s\n" name (if ok then "deletable (C1 holds)" else "not deletable");
          if not ok && Gs.is_completed gs id then
            List.iter
              (fun (tj, x) ->
                let path =
                  Dct_graph.Traversal.find_path
                    ~through:(fun v -> Gs.is_completed gs v)
                    (Gs.graph gs) ~src:tj ~dst:id
                in
                Printf.printf
                  "  witness: active tight predecessor %s, entity %s%s\n"
                  (txn_name env tj)
                  (Option.value ~default:(string_of_int x)
                     (Dct_txn.Symtab.name env.Dct_txn.Parse.entities x))
                  (match path with
                  | Some p ->
                      Printf.sprintf "  (tight path: %s)"
                        (String.concat " -> " (List.map (txn_name env) p))
                  | None -> ""))
              (Dct_deletion.Condition_c1.witnesses gs id))
        names
  | "c2", names when names <> [] ->
      let env, gs = env_gs () in
      let set = Intset.of_list (List.map (txn_id env) names) in
      let ok = Dct_deletion.Condition_c2.holds gs set in
      Printf.printf "{%s}: %s\n" (String.concat ", " names)
        (if ok then "jointly deletable (C2 holds)" else "not jointly deletable")
  | "c4", [] ->
      let env, gs = load_predeclared_state path in
      let eligible = Dct_deletion.Condition_c4.eligible gs in
      Printf.printf "C4-eligible: %s\n"
        (String.concat ", "
           (List.map (txn_name env) (Intset.elements eligible)))
  | "c4", names ->
      let env, gs = load_predeclared_state path in
      List.iter
        (fun name ->
          let id = txn_id env name in
          let ok = Dct_deletion.Condition_c4.holds gs id in
          Printf.printf "%s: %s\n" name
            (if ok then "deletable (C4 holds)" else "not deletable");
          if (not ok) && Gs.is_completed gs id then
            List.iter
              (fun (tj, x) ->
                Printf.printf "  witness: active predecessor %s, entity %s\n"
                  (txn_name env tj)
                  (Option.value ~default:(string_of_int x)
                     (Dct_txn.Symtab.name env.Dct_txn.Parse.entities x)))
              (Dct_deletion.Condition_c4.violations gs id))
        names
  | "max", [] ->
      let env, gs = env_gs () in
      let exact = Dct_deletion.Max_deletion.exact gs in
      let greedy = Dct_deletion.Max_deletion.greedy gs in
      Printf.printf "maximum safe subset (%d): %s\n" (Intset.cardinal exact)
        (String.concat ", " (List.map (txn_name env) (Intset.elements exact)));
      Printf.printf "greedy maximal subset (%d): %s\n" (Intset.cardinal greedy)
        (String.concat ", " (List.map (txn_name env) (Intset.elements greedy)))
  | c, _ -> Printf.ksprintf failwith "bad combination: condition %S" c);
  0

(* History mode (positional FILE): the streaming checker. *)
let check_history path level oracle checked json metrics_on =
  let module C = Dct_check.Checker in
  let tracer, registry, _ = telemetry ~trace:None ~metrics_on in
  let oracle = Option.value ~default:Dct_graph.Cycle_oracle.Topo oracle in
  match C.check_file ~oracle ~tracer ~checked ~level path with
  | Error e ->
      Printf.eprintf "dct: check: %s\n" e;
      2
  | Ok (report, stats) ->
      if json then begin
        match C.to_json ~stats report with
        | Json.Obj fields -> print_json ?metrics:registry fields
        | j -> print_endline (Json.to_string j)
      end
      else begin
        let module H = Dct_check.History in
        Printf.printf "check: %s (%s, %d lines%s)\n" path
          (H.format_name stats.H.fmt)
          stats.H.lines
          (if stats.H.bad_lines > 0 then
             Printf.sprintf ", %d unparseable skipped" stats.H.bad_lines
           else "");
        (match stats.H.adapter with
        | Some a when a.H.foreign > 0 || a.H.deferred > 0 || a.H.undecided > 0
          ->
            Printf.printf
              "adapter: %d events, %d steps, %d foreign skipped, %d deferred \
               dropped, %d undecided\n"
              a.H.events a.H.steps a.H.foreign a.H.deferred a.H.undecided
        | _ -> ());
        let named sym id prefix =
          Option.value
            ~default:(Printf.sprintf "%s%d" prefix id)
            (Dct_txn.Symtab.name sym id)
        in
        let txn_name, entity_name =
          match stats.H.env with
          | Some env ->
              ( Some (fun id -> named env.Dct_txn.Parse.txns id "T"),
                Some (fun id -> named env.Dct_txn.Parse.entities id "e") )
          | None -> (None, None)
        in
        print_string (C.render ?txn_name ?entity_name report);
        Option.iter
          (fun m ->
            print_newline ();
            print_string (Dct_telemetry.Metrics.render m))
          registry
      end;
      if C.passed report then 0 else 1

let check condition schedule args level oracle checked json metrics_on =
  match (schedule, args) with
  | Some path, names -> check_conditions condition path names
  | None, [ file ] -> check_history file level oracle checked json metrics_on
  | None, _ ->
      Printf.eprintf
        "dct: check: pass one history FILE (checker mode) or -s SCHEDULE \
         with transaction names (condition mode)\n";
      2

let check_cmd =
  let condition =
    Arg.(
      value
      & opt string "c1"
      & info [ "c"; "condition" ] ~docv:"COND"
          ~doc:
            "Condition mode: c1 (one txn or all), c2 (a set), max (best \
             subset), or c4 (predeclared schedules with bd steps).")
  in
  let schedule =
    Arg.(
      value
      & opt (some file) None
      & info [ "s"; "schedule" ] ~docv:"FILE"
          ~doc:
            "Condition mode: evaluate deletion conditions on this schedule \
             file instead of checking a history.")
  in
  let args =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"ARG"
          ~doc:
            "A history file (checker mode) or transaction names \
             (condition mode).")
  in
  let level_conv =
    let module V = Dct_check.Violation in
    let parse s = Result.map_error (fun e -> `Msg e) (V.level_of_string s) in
    Arg.conv (parse, fun ppf l -> Format.pp_print_string ppf (V.level_name l))
  in
  let level =
    Arg.(
      value
      & opt level_conv Dct_check.Violation.Serializable
      & info [ "level" ] ~docv:"LEVEL"
          ~doc:
            "What to check the history against: atomicity (dirty \
             reads/writes, lost updates — the vector-clock analysis), rc \
             (read committed), ra (read atomic / fractured reads), causal \
             (unstable reads, causal cycles) or ser (conflict-graph \
             serializability of the committed projection).  Levels are \
             not cumulative: each runs exactly its own analysis.")
  in
  let checked =
    Arg.(
      value & flag
      & info [ "checked" ]
          ~doc:
            "With --level ser: cross-check the streaming verdict against \
             the exact bitset-closure conflict graph on the first ops \
             (abort-free prefix, capped); any divergence fails the run.")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"One JSON object: summary, file statistics, witnesses.")
  in
  let metrics_arg =
    Arg.(
      value & flag
      & info [ "metrics" ]
          ~doc:
            "Collect and report check.* counters and oracle latency \
             histograms.")
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Check a transaction history (schedule text or telemetry JSONL, \
          sniffed) for consistency violations, streaming; or, with -s, \
          evaluate the paper's deletion conditions on a schedule file.  \
          Checker mode exits 0 when the history passes, 1 on violations \
          or a --checked divergence, 2 on unreadable input."
       ~man:
         [
           `S Manpage.s_description;
           `P
             "Checker mode normalizes the input into one stream of \
              begin/read/write/commit/abort operations — native schedules \
              get their commit points derived per transaction model, \
              telemetry traces are adapted by pairing step submissions \
              with decisions (foreign event kinds and unparseable JSONL \
              lines are counted and skipped, never fatal) — and runs one \
              analysis over it in O(1) amortized time per operation with \
              memory linear in live transactions.  See docs/check.md.";
         ])
    Term.(
      const check $ condition $ schedule $ args $ level $ oracle_arg $ checked
      $ json $ metrics_arg)

(* --- dot --- *)

let dot path =
  let env, gs = load_basic_state path in
  print_string
    (Dct_graph.Dot.to_string
       ~node_label:(txn_name env)
       ~node_attrs:(fun v ->
         if Gs.is_active gs v then [ ("style", "dashed") ] else [])
       (Gs.graph gs));
  0

let dot_cmd =
  Cmd.v
    (Cmd.info "dot" ~doc:"Print the conflict graph of a schedule as DOT")
    Term.(const dot $ schedule_file)

(* --- experiments --- *)

let experiments which =
  let module E = Dct_sim.Experiments in
  (match which with
  | "all" -> E.run_all ()
  | "ex1" -> E.ex1_example1 ()
  | "ex2" -> E.ex2_lemma1 ()
  | "ex3" -> E.ex3_theorem1 ()
  | "ex4" -> E.ex4_corollary1 ()
  | "ex5" -> E.ex5_set_cover ()
  | "ex6" -> E.ex6_residency_bound ()
  | "ex7" -> E.ex7_three_sat ()
  | "ex8" -> E.ex8_example2 ()
  | "ex9" -> E.ex9_policy_series ()
  | "ex10" -> E.ex10_scheduler_comparison ()
  | "ex11" -> E.ex11_complexity_table ()
  | "ex12" -> E.ex12_log_truncation ()
  | "ex13" -> E.ex13_version_residency ()
  | "ex14" -> E.ex14_goodput_with_restarts ()
  | "ex15" -> E.ex15_sensitivity ()
  | other -> Printf.ksprintf failwith "unknown experiment %S" other);
  0

let experiments_cmd =
  let which =
    Arg.(value & pos 0 string "all" & info [] ~docv:"ID" ~doc:"ex1..ex15 or all.")
  in
  Cmd.v
    (Cmd.info "experiments" ~doc:"Print the paper-reproduction experiment tables")
    Term.(const experiments $ which)

(* --- reduce-cover --- *)

let parse_int_list s =
  String.split_on_char ',' s |> List.filter (( <> ) "") |> List.map int_of_string

let reduce_cover universe sets =
  let inst = Dct_npc.Set_cover.make ~universe (List.map parse_int_list sets) in
  (match Dct_npc.Set_cover.validate inst with
  | Error e -> Printf.ksprintf failwith "invalid instance: %s" e
  | Ok () -> ());
  let schedule, _ids = Dct_npc.Reduction_cover.schedule inst in
  let env = Dct_txn.Parse.create_env () in
  (* Re-render through the parser env for stable names. *)
  print_endline "# Theorem 5 reduction schedule:";
  print_string (Dct_txn.Parse.unparse env schedule);
  let k = List.length (Dct_npc.Set_cover.exact_min inst) in
  let m = List.length sets in
  Printf.printf "# minimum cover: %d of %d sets\n" k m;
  Printf.printf "# maximum safely deletable transactions: %d (= m - k)\n" (m - k);
  0

let reduce_cover_cmd =
  let universe =
    Arg.(required & opt (some int) None & info [ "u"; "universe" ] ~doc:"Universe size.")
  in
  let sets =
    Arg.(
      non_empty & opt_all string []
      & info [ "set" ] ~docv:"ELEMS" ~doc:"A set, e.g. --set 0,1,2 (repeatable).")
  in
  Cmd.v
    (Cmd.info "reduce-cover" ~doc:"Emit the Theorem 5 schedule for a Set Cover instance")
    Term.(const reduce_cover $ universe $ sets)

(* --- reduce-sat --- *)

let reduce_sat nvars clauses =
  let f = Dct_npc.Sat.three_sat ~nvars (List.map parse_int_list clauses) in
  Printf.printf "formula: %s\n" (Format.asprintf "%a" Dct_npc.Sat.pp f);
  let sat = Dct_npc.Sat.is_satisfiable f in
  Printf.printf "satisfiable (DPLL): %b\n" sat;
  let deletable = Dct_npc.Reduction_sat.c_deletable f in
  Printf.printf "transaction C deletable in the gadget (C3): %b\n" deletable;
  Printf.printf "Theorem 6 agreement (deletable = unsat): %b\n"
    (deletable = not sat);
  if deletable = not sat then 0 else 1

let reduce_sat_cmd =
  let nvars =
    Arg.(required & opt (some int) None & info [ "n"; "vars" ] ~doc:"Variables.")
  in
  let clauses =
    Arg.(
      non_empty & opt_all string []
      & info [ "clause" ] ~docv:"LITS"
          ~doc:"3 literals, e.g. --clause 1,-2,3 (repeatable).")
  in
  Cmd.v
    (Cmd.info "reduce-sat" ~doc:"Evaluate the Theorem 6 gadget for a 3-CNF formula")
    Term.(const reduce_sat $ nvars $ clauses)

(* --- demo --- *)

let demo which =
  let module E = Dct_sim.Experiments in
  (match which with
  | "example1" -> E.ex1_example1 ()
  | "example2" -> E.ex8_example2 ()
  | other -> Printf.ksprintf failwith "unknown demo %S (example1|example2)" other);
  0

let demo_cmd =
  let which =
    Arg.(value & pos 0 string "example1" & info [] ~docv:"NAME" ~doc:"example1 | example2.")
  in
  Cmd.v (Cmd.info "demo" ~doc:"Narrate the paper's worked examples")
    Term.(const demo $ which)

let main_cmd =
  let doc = "deleting completed transactions — conflict-graph scheduler GC" in
  Cmd.group
    (Cmd.info "dct" ~version:"1.0.0" ~doc)
    [
      simulate_cmd; serve_cmd; client_cmd; bench_net_cmd; trace_cmd; lint_cmd;
      audit_cmd; check_cmd; dot_cmd; experiments_cmd; reduce_cover_cmd;
      reduce_sat_cmd; demo_cmd;
    ]

let () = exit (Cmd.eval' main_cmd)
