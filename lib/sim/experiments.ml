module Intset = Dct_graph.Intset
module Digraph = Dct_graph.Digraph
module Step = Dct_txn.Step
module S = Dct_txn.Schedule
module Gs = Dct_deletion.Graph_state
module C1 = Dct_deletion.Condition_c1
module C2 = Dct_deletion.Condition_c2
module C4 = Dct_deletion.Condition_c4
module Max = Dct_deletion.Max_deletion
module Witness = Dct_deletion.Witness
module Policy = Dct_deletion.Policy
module Rules = Dct_deletion.Rules
module Safety = Dct_deletion.Safety
module Reduced = Dct_deletion.Reduced_graph
module Gallery = Dct_deletion.Paper_gallery
module Si = Dct_sched.Scheduler_intf
module Cs = Dct_sched.Conflict_scheduler
module Gen = Dct_workload.Generator

let rec take n = function
  | [] -> []
  | _ when n = 0 -> []
  | x :: tl -> x :: take (n - 1) tl

let prefix_state profile fraction =
  let schedule = Gen.basic profile in
  let prefix = take (List.length schedule * fraction / 100) schedule in
  let gs = Gs.create () in
  ignore (Rules.apply_all gs prefix);
  gs

let small_profile seed =
  {
    Gen.default with
    Gen.n_txns = 12;
    n_entities = 5;
    mpl = 4;
    reads_min = 1;
    reads_max = 3;
    seed;
  }

let yn b = if b then "yes" else "no"

(* ------------------------------------------------------------------ *)

let ex1_example1 ?(oc = stdout) () =
  Report.section ~oc "EX1  Example 1 / Figure 1 (deleting a single transaction)";
  let e = Gallery.example1 () in
  let row t name =
    [
      name;
      Dct_txn.Transaction.state_to_string (Gs.state e.Gallery.gs1 t);
      yn (Gs.is_completed e.gs1 t && C1.holds_fast e.gs1 t);
      yn (Gs.is_completed e.gs1 t && C1.noncurrent e.gs1 t);
    ]
  in
  Report.print_table ~oc
    ~headers:[ "txn"; "state"; "C1 (deletable)"; "noncurrent" ]
    [ row e.t1 "T1"; row e.t2 "T2"; row e.t3 "T3" ];
  let pair = C2.holds e.gs1 (Intset.of_list [ e.t2; e.t3 ]) in
  Printf.fprintf oc "{T2,T3} jointly deletable (C2): %s\n" (yn pair);
  let gs = Gs.copy e.gs1 in
  Reduced.delete gs e.t3;
  Printf.fprintf oc "after deleting T3, T2 deletable: %s   (paper: no)\n"
    (yn (C1.holds_fast gs e.t2))

let ex2_lemma1 ?(oc = stdout) () =
  Report.section ~oc "EX2  Lemma 1 (no active predecessor => forever safe)";
  let population = ref 0 and vacuous = ref 0 and oracle_checked = ref 0 in
  for seed = 1 to 30 do
    let gs = prefix_state (small_profile seed) 66 in
    Intset.iter
      (fun ti ->
        incr population;
        if Intset.is_empty (Dct_deletion.Tightness.active_tight_predecessors gs ti)
        then begin
          incr vacuous;
          assert (C1.holds_fast gs ti);
          if !oracle_checked < 10 then begin
            incr oracle_checked;
            assert (Safety.search ~depth:2 gs ~deleted:(Intset.singleton ti) = None)
          end
        end)
      (Gs.completed_txns gs)
  done;
  Report.print_table ~oc
    ~headers:[ "completed txns"; "no active tight pred"; "all satisfy C1"; "oracle spot-checks" ]
    [
      [
        string_of_int !population;
        string_of_int !vacuous;
        "yes (asserted)";
        Printf.sprintf "%d, no divergence" !oracle_checked;
      ];
    ]

let ex3_theorem1 ?(oc = stdout) () =
  Report.section ~oc "EX3  Theorem 1 (C1 necessary and sufficient)";
  let eligible_total = ref 0
  and eligible_oracle_ok = ref 0
  and stuck_total = ref 0
  and stuck_diverged = ref 0 in
  for seed = 1 to 25 do
    let gs = prefix_state (small_profile seed) 66 in
    let fresh_txn = 100_000 and fresh_entity = 100_000 in
    Intset.iter
      (fun ti ->
        if C1.holds_fast gs ti then begin
          incr eligible_total;
          if
            !eligible_oracle_ok < 15
            && Safety.search ~depth:2 gs ~deleted:(Intset.singleton ti) = None
          then incr eligible_oracle_ok
        end
        else begin
          incr stuck_total;
          match C1.adversarial_continuation gs ti ~fresh_txn ~fresh_entity with
          | Some r
            when Safety.replay gs ~deleted:(Intset.singleton ti) r <> None ->
              incr stuck_diverged
          | Some _ | None -> ()
        end)
      (Gs.completed_txns gs)
  done;
  Report.print_table ~oc
    ~headers:[ "direction"; "population"; "confirmed"; "expected" ]
    [
      [
        "sufficiency: C1 => no divergence (depth-2 oracle)";
        string_of_int !eligible_total;
        Printf.sprintf "%d/%d sampled" !eligible_oracle_ok
          (min 15 !eligible_total);
        "all";
      ];
      [
        "necessity: ~C1 => adversarial continuation diverges";
        string_of_int !stuck_total;
        Printf.sprintf "%d/%d" !stuck_diverged !stuck_total;
        "all";
      ];
    ]

let ex4_corollary1 ?(oc = stdout) () =
  Report.section ~oc "EX4  Corollary 1 (noncurrent transactions are deletable)";
  let completed = ref 0 and noncurrent = ref 0 and noncurrent_and_c1 = ref 0 in
  let eligible = ref 0 in
  for seed = 1 to 40 do
    let gs = prefix_state (small_profile seed) 66 in
    Intset.iter
      (fun ti ->
        incr completed;
        if C1.holds_fast gs ti then incr eligible;
        if C1.noncurrent gs ti then begin
          incr noncurrent;
          if C1.holds_fast gs ti then incr noncurrent_and_c1
        end)
      (Gs.completed_txns gs)
  done;
  Report.print_table ~oc
    ~headers:
      [ "completed"; "C1-eligible"; "noncurrent"; "noncurrent & C1"; "inclusion" ]
    [
      [
        string_of_int !completed;
        string_of_int !eligible;
        string_of_int !noncurrent;
        string_of_int !noncurrent_and_c1;
        (if !noncurrent = !noncurrent_and_c1 then "noncurrent ⊆ C1 ✓"
         else "VIOLATED");
      ];
    ]

let ex5_set_cover ?(oc = stdout) () =
  Report.section ~oc
    "EX5  Theorem 5 (maximum deletion = m - minimum cover; NP-complete)";
  let instances =
    [
      ("3 pairwise", 3, [ [ 0; 1 ]; [ 1; 2 ]; [ 0; 2 ] ]);
      ("nested", 4, [ [ 0 ]; [ 0; 1 ]; [ 0; 1; 2 ]; [ 0; 1; 2; 3 ] ]);
      ("2 halves + traps", 8,
       [ [ 0; 1; 2; 3 ]; [ 4; 5; 6; 7 ]; [ 0; 1; 4; 5; 2 ]; [ 3; 6; 7 ] ]);
      ("singletons + unions", 5,
       [ [ 0 ]; [ 1 ]; [ 2 ]; [ 3 ]; [ 4 ]; [ 0; 1; 2 ]; [ 3; 4 ] ]);
      ("disjoint blocks", 6, [ [ 0; 1; 2 ]; [ 3; 4; 5 ]; [ 0; 3 ]; [ 1; 4 ]; [ 2; 5 ] ]);
    ]
  in
  let rows =
    List.map
      (fun (name, universe, sets) ->
        let inst = Dct_npc.Set_cover.make ~universe sets in
        let m = List.length sets in
        let k = List.length (Dct_npc.Set_cover.exact_min inst) in
        let predicted = m - k in
        let gs, _ = Dct_npc.Reduction_cover.graph_state inst in
        let measured = Max.exact_size gs in
        let greedy = Intset.cardinal (Max.greedy gs) in
        [
          name;
          string_of_int m;
          string_of_int universe;
          string_of_int k;
          string_of_int predicted;
          string_of_int measured;
          string_of_int greedy;
          yn (predicted = measured);
        ])
      instances
  in
  Report.print_table ~oc
    ~headers:
      [ "instance"; "m"; "|X|"; "min cover"; "m-k"; "exact max del";
        "greedy"; "match" ]
    rows

let ex6_residency_bound ?(oc = stdout) () =
  Report.section ~oc "EX6  Irreducible residency bound (completed <= a * e)";
  let rows = ref [] in
  List.iter
    (fun long_readers ->
      List.iter
        (fun n_entities ->
          let profile =
            {
              Gen.default with
              Gen.n_txns = 150;
              n_entities;
              mpl = 4;
              skew = "zipf:0.9";
              long_readers;
              long_reader_step = 0.1;
              seed = 97;
            }
          in
          let sched = Cs.create ~policy:Policy.Greedy_c1 () in
          let max_completed = ref 0 and max_bound = ref 0 and ok = ref true in
          List.iter
            (fun step ->
              let outcome = Cs.step sched step in
              (* The a·e bound governs irreducible graphs; the greedy
                 policy leaves one behind exactly after each accepted
                 step (aborts remove an active without re-running the
                 policy, so those transients are out of scope). *)
              if outcome = Si.Accepted then begin
                let gs = Cs.graph_state sched in
                let completed = Intset.cardinal (Gs.completed_txns gs) in
                let actives = Intset.cardinal (Gs.active_txns gs) in
                let entities = Intset.cardinal (Gs.entities gs) in
                let bound = Witness.residency_bound ~actives ~entities in
                if completed > !max_completed then begin
                  max_completed := completed;
                  max_bound := bound
                end;
                if completed > bound then ok := false
              end)
            (Gen.basic profile);
          rows :=
            [
              string_of_int long_readers;
              string_of_int n_entities;
              string_of_int !max_completed;
              string_of_int !max_bound;
              yn !ok;
            ]
            :: !rows)
        [ 4; 8; 16 ])
    [ 1; 2; 4 ];
  Report.print_table ~oc
    ~headers:
      [ "long readers"; "entities"; "peak completed resident";
        "a*e at that peak"; "always within bound" ]
    (List.rev !rows)

let ex7_three_sat ?(oc = stdout) () =
  Report.section ~oc
    "EX7  Theorem 6 / Figure 3 (C3 deletability <=> UNSAT; NP-complete)";
  let formulas =
    [
      ("one clause", 3, [ [ 1; 2; 3 ] ]);
      ("two opposite", 3, [ [ 1; 2; 3 ]; [ -1; -2; -3 ] ]);
      ( "all sign patterns (unsat)", 3,
        [
          [ 1; 2; 3 ]; [ 1; 2; -3 ]; [ 1; -2; 3 ]; [ 1; -2; -3 ];
          [ -1; 2; 3 ]; [ -1; 2; -3 ]; [ -1; -2; 3 ]; [ -1; -2; -3 ];
        ] );
      ("4 vars mixed", 4,
       [ [ 1; 2; 3 ]; [ -1; -2; 4 ]; [ -3; -4; 1 ]; [ 2; -3; -4 ] ]);
    ]
  in
  let rows =
    List.map
      (fun (name, nvars, clauses) ->
        let f = Dct_npc.Sat.three_sat ~nvars clauses in
        let sat = Dct_npc.Sat.is_satisfiable f in
        let t0 = Dct_telemetry.Probe.now_ns () in
        let deletable = Dct_npc.Reduction_sat.c_deletable f in
        let dt = (Dct_telemetry.Probe.now_ns () -. t0) /. 1e6 in
        [
          name;
          string_of_int nvars;
          string_of_int (List.length clauses);
          yn sat;
          yn deletable;
          yn (deletable = not sat);
          Printf.sprintf "%.1f" dt;
        ])
      formulas
  in
  Report.print_table ~oc
    ~headers:
      [ "formula"; "vars"; "clauses"; "SAT (dpll)"; "C deletable (C3)";
        "agree"; "C3 ms" ]
    rows

let ex8_example2 ?(oc = stdout) () =
  Report.section ~oc "EX8  Example 2 / Figure 4 (condition C4, predeclared)";
  let e = Gallery.example2 () in
  Report.print_table ~oc
    ~headers:[ "txn"; "state"; "C4 (deletable)"; "clause used" ]
    [
      [ "A"; "active"; "-"; "-" ];
      [ "B"; "committed"; yn (C4.holds e.Gallery.gs2 e.b); "none apply" ];
      [
        "C";
        "committed";
        yn (C4.holds e.gs2 e.c);
        (if C4.behaves_as_completed e.gs2 e.a ~exclude:e.c then
           "(2): A behaves as completed"
         else "(1)");
      ];
    ]

let ex9_policy_series ?(oc = stdout) () =
  Report.section ~oc
    "EX9  Graph residency over time, by deletion policy (the paper's \
     motivation)";
  let profile =
    {
      Gen.default with
      Gen.n_txns = 400;
      n_entities = 32;
      mpl = 8;
      skew = "zipf:0.9";
      long_readers = 1;
      long_reader_step = 0.05;
      seed = 11;
    }
  in
  let schedule = Gen.basic profile in
  let policies =
    [
      Policy.No_deletion;
      Policy.Noncurrent;
      Policy.Greedy_c1;
      Policy.Budget (48, Policy.Greedy_c1);
    ]
  in
  let runs =
    List.map
      (fun policy ->
        (Policy.name policy, Driver.run ~sample_every:200 (Cs.handle ~policy ()) schedule))
      policies
  in
  let sample_points =
    match runs with
    | (_, first) :: _ -> List.map (fun s -> s.Driver.at_step) first.Driver.samples
    | [] -> []
  in
  let rows =
    List.map
      (fun at_step ->
        string_of_int at_step
        :: List.map
             (fun (_, r) ->
               match
                 List.find_opt (fun s -> s.Driver.at_step = at_step) r.Driver.samples
               with
               | Some s -> string_of_int s.Driver.resident_txns
               | None -> "-")
             runs)
      sample_points
  in
  Report.print_series ~oc ~title:"resident transactions at step N:"
    ~headers:("step" :: List.map fst runs)
    rows;
  Printf.fprintf oc "\npeak / mean residency, deletions:\n";
  Report.print_table ~oc
    ~headers:[ "policy"; "peak"; "mean"; "deleted"; "aborted" ]
    (List.map
       (fun (name, r) ->
         [
           name;
           string_of_int r.Driver.peak_resident;
           Report.fmt_float r.Driver.mean_resident;
           string_of_int r.Driver.final.Si.deleted_total;
           string_of_int r.Driver.final.Si.aborted_total;
         ])
       runs);
  (* The strawman: commit-time deletion accepts non-CSR schedules. *)
  let violations = ref 0 and trials = 12 in
  for seed = 1 to trials do
    let p = { (small_profile seed) with Gen.n_txns = 30; mpl = 6 } in
    let schedule = Gen.basic p in
    let gs = Gs.create () in
    let all_accepted =
      List.for_all
        (fun s ->
          match Rules.apply gs s with
          | Rules.Accepted ->
              ignore (Policy.run Policy.Unsafe_commit_time gs);
              true
          | Rules.Rejected -> false
          | Rules.Ignored -> true)
        schedule
    in
    if all_accepted && not (S.is_csr schedule) then incr violations
  done;
  Printf.fprintf oc
    "\ncommit-time deletion strawman: accepted a non-CSR schedule in %d/%d \
     random workloads\n"
    !violations trials

let ex10_scheduler_comparison ?(oc = stdout) () =
  Report.section ~oc "EX10  Scheduler comparison (conflict-graph vs baselines)";
  let profile =
    {
      Gen.default with
      Gen.n_txns = 300;
      n_entities = 24;
      mpl = 8;
      skew = "zipf:0.9";
      long_readers = 1;
      long_reader_step = 0.05;
      seed = 23;
    }
  in
  let schedule = Gen.basic profile in
  let results =
    Driver.run_fresh
      [
        (fun () -> Cs.handle ~policy:Policy.No_deletion ());
        (fun () -> Cs.handle ~policy:Policy.Noncurrent ());
        (fun () -> Cs.handle ~policy:Policy.Greedy_c1 ());
        (fun () -> Cs.handle ~policy:(Policy.Budget (48, Policy.Greedy_c1)) ());
        (fun () -> Dct_sched.Certifier.handle ());
        (fun () -> Dct_sched.Lock_2pl.handle ());
        (fun () -> Dct_sched.Timestamp_order.handle ());
        (fun () -> Dct_sched.Mv_scheduler.handle ~vacuum:true ());
      ]
      schedule
  in
  Report.print_table ~oc
    ~headers:
      [ "scheduler"; "committed"; "aborted"; "peak resident"; "mean resident";
        "delayed"; "ms" ]
    (List.map
       (fun r ->
         [
           r.Driver.name;
           string_of_int r.Driver.final.Si.committed_total;
           string_of_int r.Driver.final.Si.aborted_total;
           string_of_int r.Driver.peak_resident;
           Report.fmt_float r.Driver.mean_resident;
           string_of_int r.Driver.delayed;
           Printf.sprintf "%.1f" (r.Driver.wall_seconds *. 1000.0);
         ])
       results)

let ex11_complexity_table ?(oc = stdout) () =
  Report.section ~oc
    "EX11  Cost of the checks as the graph grows (medians of wall-clock)";
  let rows =
    List.map
      (fun n_txns ->
        let profile =
          {
            Gen.default with
            Gen.n_txns;
            n_entities = 32;
            mpl = 8;
            long_readers = 2;
            long_reader_step = 0.15;
            seed = 51;
          }
        in
        let gs = prefix_state profile 90 in
        let completed = Gs.completed_txns gs in
        let time_it f =
          let t0 = Dct_telemetry.Probe.now_ns () in
          f ();
          (Dct_telemetry.Probe.now_ns () -. t0) /. 1e6
        in
        let c1_all =
          time_it (fun () -> Intset.iter (fun ti -> ignore (C1.holds gs ti)) completed)
        in
        let eligible = C1.eligible gs in
        let c2_whole =
          time_it (fun () -> ignore (C2.holds gs eligible))
        in
        let greedy_ms = time_it (fun () -> ignore (Max.greedy gs)) in
        [
          string_of_int (Gs.txn_count gs);
          string_of_int (Digraph.arc_count (Gs.graph gs));
          string_of_int (Intset.cardinal completed);
          Printf.sprintf "%.2f" c1_all;
          Printf.sprintf "%.2f" c2_whole;
          Printf.sprintf "%.2f" greedy_ms;
        ])
      [ 50; 100; 200; 400 ]
  in
  Report.print_table ~oc
    ~headers:
      [ "resident txns"; "arcs"; "completed"; "C1 all (ms)";
        "C2 eligible (ms)"; "greedy plan (ms)" ]
    rows;
  Printf.fprintf oc
    "(statistically robust timings: dune exec bench/main.exe -- bechamel)\n"

let ex12_log_truncation ?(oc = stdout) () =
  Report.section ~oc
    "EX12  Log truncation driven by deletion (the modern reading)";
  let profile =
    {
      Gen.default with
      Gen.n_txns = 300;
      n_entities = 24;
      mpl = 8;
      skew = "zipf:0.9";
      long_readers = 1;
      long_reader_step = 0.05;
      seed = 61;
    }
  in
  let schedule = Gen.basic profile in
  let rows =
    List.map
      (fun policy ->
        let wal = Dct_kv.Wal.create () in
        let sched = Cs.create ~policy ~wal () in
        let peak = ref 0 in
        List.iter
          (fun step ->
            ignore (Cs.step sched step);
            peak := max !peak (Dct_kv.Wal.length wal))
          schedule;
        [
          Policy.name policy;
          string_of_int (Dct_kv.Wal.total_appended wal);
          string_of_int !peak;
          string_of_int (Dct_kv.Wal.length wal);
          string_of_int (Dct_kv.Wal.truncated wal);
          string_of_int (Dct_kv.Wal.low_water_mark wal);
        ])
      [
        Policy.No_deletion;
        Policy.Noncurrent;
        Policy.Greedy_c1;
        Policy.Budget (48, Policy.Greedy_c1);
      ]
  in
  Report.print_table ~oc
    ~headers:
      [ "policy"; "records appended"; "peak retained"; "final retained";
        "truncated"; "low-water LSN" ]
    rows

let ex13_version_residency ?(oc = stdout) () =
  Report.section ~oc
    "EX13  Multiversion residency: vacuum vs long readers (the version      dimension of the same problem)";
  let rows = ref [] in
  List.iter
    (fun long_readers ->
      List.iter
        (fun vacuum ->
          let profile =
            {
              Gen.default with
              Gen.n_txns = 250;
              n_entities = 16;
              mpl = 8;
              skew = "zipf:1.0";
              long_readers;
              long_reader_step = 0.05;
              seed = 71;
            }
          in
          let sched = Dct_sched.Mv_scheduler.create ~vacuum () in
          let peak = ref 0 in
          List.iter
            (fun step ->
              ignore (Dct_sched.Mv_scheduler.step sched step);
              peak :=
                max !peak
                  (Dct_kv.Mv_store.total_versions
                     (Dct_sched.Mv_scheduler.store sched)))
            (Gen.basic profile);
          let st = Dct_sched.Mv_scheduler.stats sched in
          rows :=
            [
              (if vacuum then "vacuum" else "none");
              string_of_int long_readers;
              string_of_int st.Si.committed_total;
              string_of_int st.Si.aborted_total;
              string_of_int !peak;
              string_of_int
                (Dct_kv.Mv_store.total_versions
                   (Dct_sched.Mv_scheduler.store sched));
              string_of_int (Dct_sched.Mv_scheduler.versions_reclaimed sched);
            ]
            :: !rows)
        [ false; true ])
    [ 0; 2 ];
  Report.print_table ~oc
    ~headers:
      [ "gc"; "long readers"; "committed"; "aborted"; "peak versions";
        "final versions"; "reclaimed" ]
    (List.rev !rows)

let ex14_goodput_with_restarts ?(oc = stdout) () =
  Report.section ~oc
    "EX14  Goodput under restart semantics (aborted txns retry, <= 4 attempts)";
  let profile =
    {
      Gen.default with
      Gen.n_txns = 200;
      n_entities = 24;
      mpl = 8;
      skew = "zipf:0.9";
      long_readers = 1;
      long_reader_step = 0.05;
      seed = 29;
    }
  in
  let schedule = Gen.basic profile in
  let rows =
    List.map
      (fun make ->
        let r = Restart.run (make ()) schedule in
        [
          r.Restart.name;
          Printf.sprintf "%d/%d" r.Restart.eventually_committed
            r.Restart.original_txns;
          Printf.sprintf "%.0f%%" (100.0 *. Restart.goodput r);
          string_of_int r.Restart.gave_up;
          string_of_int r.Restart.attempts;
          string_of_int r.Restart.steps_submitted;
          string_of_int r.Restart.peak_resident;
        ])
      [
        (fun () -> Cs.handle ~policy:Policy.Greedy_c1 ());
        (fun () -> Cs.handle ~policy:Policy.No_deletion ());
        (fun () -> Dct_sched.Certifier.handle ());
        (fun () -> Dct_sched.Lock_2pl.handle ());
        (fun () -> Dct_sched.Timestamp_order.handle ());
        (fun () -> Dct_sched.Mv_scheduler.handle ~vacuum:true ());
      ]
  in
  Report.print_table ~oc
    ~headers:
      [ "scheduler"; "committed"; "goodput"; "gave up"; "attempts";
        "steps"; "peak resident" ]
    rows

let ex15_sensitivity ?(oc = stdout) () =
  Report.section ~oc
    "EX15  Sensitivity: when does deletion help most? (greedy C1 vs none)";
  let base =
    {
      Gen.default with
      Gen.n_txns = 250;
      n_entities = 32;
      mpl = 8;
      skew = "zipf:0.9";
      long_readers = 0;
      seed = 83;
    }
  in
  let cells =
    Sweep.vary ~base
      [
        ("uniform", fun p -> { p with Gen.skew = "uniform" });
        ("zipf 0.5", fun p -> { p with Gen.skew = "zipf:0.5" });
        ("zipf 0.9", fun p -> p);
        ("zipf 1.2", fun p -> { p with Gen.skew = "zipf:1.2" });
        ("mpl 2", fun p -> { p with Gen.mpl = 2 });
        ("mpl 16", fun p -> { p with Gen.mpl = 16 });
        ("few entities (8)", fun p -> { p with Gen.n_entities = 8 });
        ("many entities (128)", fun p -> { p with Gen.n_entities = 128 });
        ("1 long reader", fun p -> { p with Gen.long_readers = 1 });
        ("4 long readers", fun p -> { p with Gen.long_readers = 4 });
      ]
  in
  let with_gc =
    Sweep.grid ~make:(fun () -> Cs.handle ~policy:Policy.Greedy_c1 ()) ~cells ()
  in
  let without =
    Sweep.grid ~make:(fun () -> Cs.handle ~policy:Policy.No_deletion ()) ~cells ()
  in
  let rows =
    List.map2
      (fun (gc : Sweep.cell) (no : Sweep.cell) ->
        [
          gc.Sweep.label;
          string_of_int no.Sweep.result.Driver.peak_resident;
          string_of_int gc.Sweep.result.Driver.peak_resident;
          Report.fmt_ratio
            (Metrics.ratio no.Sweep.result.Driver.peak_resident
               (max 1 gc.Sweep.result.Driver.peak_resident));
          string_of_int gc.Sweep.result.Driver.final.Si.aborted_total;
          Report.fmt_float gc.Sweep.result.Driver.mean_resident;
        ])
      with_gc without
  in
  Report.print_table ~oc
    ~headers:
      [ "workload"; "peak (none)"; "peak (greedy)"; "reduction";
        "aborts"; "mean resident (greedy)" ]
    rows

let run_all ?(oc = stdout) () =
  ex1_example1 ~oc ();
  ex2_lemma1 ~oc ();
  ex3_theorem1 ~oc ();
  ex4_corollary1 ~oc ();
  ex5_set_cover ~oc ();
  ex6_residency_bound ~oc ();
  ex7_three_sat ~oc ();
  ex8_example2 ~oc ();
  ex9_policy_series ~oc ();
  ex10_scheduler_comparison ~oc ();
  ex11_complexity_table ~oc ();
  ex12_log_truncation ~oc ();
  ex13_version_residency ~oc ();
  ex14_goodput_with_restarts ~oc ();
  ex15_sensitivity ~oc ()
