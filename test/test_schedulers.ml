(* End-to-end scheduler behaviour: every scheduler must emit only
   conflict-serializable committed schedules; baselines must close
   transactions at commit; the predeclared scheduler must never abort
   and never deadlock. *)

module Intset = Dct_graph.Intset
module Step = Dct_txn.Step
module S = Dct_txn.Schedule
module Si = Dct_sched.Scheduler_intf
module Cs = Dct_sched.Conflict_scheduler
module Cert = Dct_sched.Certifier
module Mw = Dct_sched.Multiwrite_scheduler
module Pre = Dct_sched.Predeclared_scheduler
module L2pl = Dct_sched.Lock_2pl
module To = Dct_sched.Timestamp_order
module Policy = Dct_deletion.Policy
module Gs = Dct_deletion.Graph_state
module Gen = Dct_workload.Generator

let check = Alcotest.(check bool)

let profile seed =
  {
    Gen.default with
    Gen.n_txns = 60;
    n_entities = 8;
    mpl = 6;
    seed;
    long_readers = 1;
  }

(* Track which steps each transaction got accepted; a transaction's
   committed trace is its full step list if it was never rejected. *)
let committed_subschedule outcomes schedule ~committed =
  let rejected = Hashtbl.create 16 in
  List.iter2
    (fun o s ->
      match o with
      | Si.Rejected -> Hashtbl.replace rejected (Step.txn s) ()
      | Si.Accepted | Si.Delayed | Si.Ignored -> ())
    outcomes schedule;
  S.project schedule ~keep:(fun t ->
      (not (Hashtbl.mem rejected t)) && committed t)

let run_sched handle schedule =
  let outcomes = List.map handle.Si.step schedule in
  ignore (handle.Si.drain ());
  outcomes

let test_conflict_scheduler_csr () =
  List.iter
    (fun policy ->
      List.iter
        (fun seed ->
          let schedule = Gen.basic (profile seed) in
          let handle = Cs.handle ~policy () in
          let outcomes = run_sched handle schedule in
          let completed = S.completed_basic schedule in
          let accepted =
            committed_subschedule outcomes schedule ~committed:(fun t ->
                Intset.mem t completed)
          in
          check
            (Printf.sprintf "sgt/%s seed %d CSR" (Policy.name policy) seed)
            true (S.is_csr accepted))
        [ 1; 2; 3 ])
    [ Policy.No_deletion; Policy.Noncurrent; Policy.Greedy_c1;
      Policy.Budget (24, Policy.Greedy_c1) ]

let test_deletion_policies_match_reference () =
  (* Same outcomes as the no-deletion scheduler, step by step. *)
  List.iter
    (fun seed ->
      let schedule = Gen.basic (profile seed) in
      let reference = run_sched (Cs.handle ~policy:Policy.No_deletion ()) schedule in
      List.iter
        (fun policy ->
          let outcomes = run_sched (Cs.handle ~policy ()) schedule in
          check
            (Printf.sprintf "policy %s seed %d" (Policy.name policy) seed)
            true
            (List.for_all2 ( = ) reference outcomes))
        [ Policy.Noncurrent; Policy.Greedy_c1 ])
    [ 1; 2; 3; 4 ]

let test_deletion_reduces_residency () =
  let schedule = Gen.basic (profile 7) in
  let none = Cs.create ~policy:Policy.No_deletion () in
  let greedy = Cs.create ~policy:Policy.Greedy_c1 () in
  List.iter (fun s -> ignore (Cs.step none s)) schedule;
  List.iter (fun s -> ignore (Cs.step greedy s)) schedule;
  let rn = (Cs.stats none).Si.resident_txns in
  let rg = (Cs.stats greedy).Si.resident_txns in
  check (Printf.sprintf "greedy %d < none %d" rg rn) true (rg < rn);
  check "deletions logged" true (Cs.deleted_log greedy <> [])

let test_closure_engine_equivalent () =
  (* The maintained-closure engine must make the identical decision as
     the default backend on every step and end with the identical
     graph, across policies. *)
  List.iter
    (fun policy ->
      List.iter
        (fun seed ->
          let schedule = Gen.basic (profile seed) in
          let default = Cs.create ~policy () in
          let clo = Cs.create ~policy ~oracle:Dct_graph.Cycle_oracle.Closure () in
          List.iter
            (fun s ->
              let a = Cs.step default s in
              let b = Cs.step clo s in
              if a <> b then
                Alcotest.failf "engines disagree on %s (seed %d)"
                  (Step.to_string s) seed)
            schedule;
          check
            (Printf.sprintf "same final graph (seed %d, %s)" seed
               (Policy.name policy))
            true
            (Dct_graph.Digraph.equal
               (Gs.graph (Cs.graph_state default))
               (Gs.graph (Cs.graph_state clo))))
        [ 1; 2; 3 ])
    [ Policy.No_deletion; Policy.Greedy_c1 ]

let test_certifier_csr () =
  List.iter
    (fun seed ->
      let schedule = Gen.basic (profile seed) in
      let handle = Cert.handle () in
      let outcomes = run_sched handle schedule in
      let completed = S.completed_basic schedule in
      let accepted =
        committed_subschedule outcomes schedule ~committed:(fun t ->
            Intset.mem t completed)
      in
      check (Printf.sprintf "certifier seed %d CSR" seed) true (S.is_csr accepted))
    [ 1; 2; 3; 4; 5 ]

let test_certifier_c1_deletion_is_unsound () =
  (* Why the paper restricts deletion to the preventive scheduler: under
     certification a committed transaction can acquire new immediate
     predecessors, so C1-deletion admits non-CSR executions.  With these
     deterministic seeds at least one violation must appear. *)
  let violations = ref 0 in
  List.iter
    (fun seed ->
      let schedule = Gen.basic (profile seed) in
      let t = Cert.create () in
      let outcomes =
        List.map (Cert.unsafe_step_with_policy t Policy.Greedy_c1) schedule
      in
      let completed = S.completed_basic schedule in
      let accepted =
        committed_subschedule outcomes schedule ~committed:(fun tx ->
            Intset.mem tx completed)
      in
      if not (S.is_csr accepted) then incr violations)
    [ 1; 2; 3; 4; 5 ];
  check "C1 under certification breaks CSR" true (!violations > 0)

let test_certifier_reads_never_fail () =
  let schedule = Gen.basic (profile 11) in
  let t = Cert.create () in
  List.iter
    (fun s ->
      let o = Cert.step t s in
      match s with
      | Step.Read _ -> check "read accepted" true (o = Si.Accepted)
      | _ -> ())
    schedule

let test_multiwrite_csr_and_cascades () =
  List.iter
    (fun seed ->
      let schedule = Gen.multiwrite (profile seed) in
      let t = Mw.create () in
      let outcomes = List.map (Mw.step t) schedule in
      (* Committed transactions only. *)
      let committed t' =
        Gs.mem_txn (Mw.graph_state t) t'
        && Gs.state (Mw.graph_state t) t' = Dct_txn.Transaction.Committed
      in
      let accepted = committed_subschedule outcomes schedule ~committed in
      check (Printf.sprintf "multiwrite seed %d CSR" seed) true (S.is_csr accepted);
      check "graph acyclic" true (Gs.is_acyclic (Mw.graph_state t)))
    [ 1; 2; 3; 4 ]

let test_multiwrite_cascading_abort () =
  (* T1 writes x; T2 reads x (depends on T1); T1 then aborts via a
     cycle: T2 must be gone too. *)
  let steps =
    [
      Step.Begin 1;
      Step.Begin 2;
      Step.Begin 3;
      Step.Write_one (1, 0);      (* T1 writes x *)
      Step.Read (2, 0);           (* T2 reads x from T1: depends on T1 *)
      Step.Read (1, 1);           (* T1 reads y *)
      Step.Write_one (3, 1);      (* T3 writes y: arc T1 -> T3 *)
      Step.Read (3, 2);           (* T3 reads z *)
      Step.Write_one (1, 2);      (* T1 writes z: arc T3 -> T1 = cycle -> abort T1 *)
    ]
  in
  let t = Mw.create () in
  let outcomes = List.map (Mw.step t) steps in
  check "last step rejected" true (List.nth outcomes 8 = Si.Rejected);
  let gs = Mw.graph_state t in
  check "T1 gone" false (Gs.mem_txn gs 1);
  check "T2 cascaded" false (Gs.mem_txn gs 2);
  check "T3 survives" true (Gs.mem_txn gs 3);
  Alcotest.(check int) "one cascade" 1 (Mw.cascaded_total t)

let test_multiwrite_commit_waits_for_providers () =
  let steps =
    [
      Step.Begin 1;
      Step.Begin 2;
      Step.Write_one (1, 0);
      Step.Read (2, 0);  (* T2 depends on active T1 *)
      Step.Finish 2;
    ]
  in
  let t = Mw.create () in
  List.iter (fun s -> ignore (Mw.step t s)) steps;
  let gs = Mw.graph_state t in
  check "T2 finished, not committed" true
    (Gs.state gs 2 = Dct_txn.Transaction.Finished);
  ignore (Mw.step t (Step.Finish 1));
  check "T1 committed" true (Gs.state gs 1 = Dct_txn.Transaction.Committed);
  check "T2 now committed too" true
    (Gs.state gs 2 = Dct_txn.Transaction.Committed)

let test_predeclared_no_aborts_and_flushes () =
  List.iter
    (fun seed ->
      let p = { (profile seed) with Gen.long_readers = 0 } in
      let schedule = Gen.predeclared p in
      let t = Pre.create () in
      let outcomes = List.map (Pre.step t) schedule in
      check "no rejections ever" true
        (List.for_all (fun o -> o <> Si.Rejected) outcomes);
      ignore (Pre.drain t);
      Alcotest.(check int)
        (Printf.sprintf "seed %d queue flushed" seed)
        0 (Pre.pending t);
      (* All transactions completed. *)
      let gs = Pre.graph_state t in
      check "all committed" true (Intset.is_empty (Gs.active_txns gs));
      check "graph acyclic" true (Gs.is_acyclic gs);
      (* The execution order is conflict-serializable. *)
      check
        (Printf.sprintf "seed %d execution CSR" seed)
        true
        (S.is_csr (Pre.execution_log t)))
    [ 1; 2; 3; 4; 5 ]

let test_predeclared_with_c4_deletion () =
  let p = { (profile 9) with Gen.long_readers = 0 } in
  let schedule = Gen.predeclared p in
  let none = Pre.create () in
  let c4 = Pre.create ~use_c4_deletion:true () in
  List.iter (fun s -> ignore (Pre.step none s)) schedule;
  List.iter (fun s -> ignore (Pre.step c4 s)) schedule;
  ignore (Pre.drain none);
  ignore (Pre.drain c4);
  Alcotest.(check int) "flushed" 0 (Pre.pending c4);
  let rn = (Pre.stats none).Si.resident_txns in
  let rc = (Pre.stats c4).Si.resident_txns in
  check (Printf.sprintf "c4 %d <= none %d" rc rn) true (rc <= rn);
  check "c4 deleted something" true ((Pre.stats c4).Si.deleted_total > 0)

let test_2pl_csr_and_closure () =
  List.iter
    (fun seed ->
      let schedule = Gen.basic (profile seed) in
      let t = L2pl.create () in
      List.iter (fun s -> ignore (L2pl.step t s)) schedule;
      ignore (L2pl.drain t);
      let stats = L2pl.stats t in
      (* 2PL residency: only active transactions are remembered. *)
      check
        (Printf.sprintf "seed %d: 2pl closes at commit" seed)
        true
        (stats.Si.resident_txns = stats.Si.active_txns);
      (* CSR must be judged on the grant order, which is the order the
         operations actually executed in. *)
      let granted = L2pl.execution_log t in
      let committed = S.completed_basic granted in
      let executed_of_committed =
        S.project granted ~keep:(fun tx -> Intset.mem tx committed)
      in
      check (Printf.sprintf "seed %d 2pl CSR" seed) true
        (S.is_csr executed_of_committed))
    [ 1; 2; 3; 4 ]

let test_2pl_deadlock_resolution () =
  (* T1 locks x (S), T2 locks y (S); T1 requests X{y}, T2 requests X{x}. *)
  let t = L2pl.create () in
  ignore (L2pl.step t (Step.Begin 1));
  ignore (L2pl.step t (Step.Begin 2));
  ignore (L2pl.step t (Step.Read (1, 0)));
  ignore (L2pl.step t (Step.Read (2, 1)));
  let o1 = L2pl.step t (Step.Write (1, [ 1 ])) in
  check "T1 blocks" true (o1 = Si.Delayed);
  let o2 = L2pl.step t (Step.Write (2, [ 0 ])) in
  (* Deadlock: the youngest (T2) is aborted; T1 then commits. *)
  check "T2 rejected by deadlock resolution" true (o2 = Si.Rejected);
  ignore (L2pl.drain t);
  let s = L2pl.stats t in
  Alcotest.(check int) "T1 committed" 1 s.Si.committed_total;
  Alcotest.(check int) "no residue" 0 s.Si.resident_txns;
  Alcotest.(check int) "no locks" 0 (L2pl.locks_held t)

let test_timestamp_order () =
  List.iter
    (fun seed ->
      let schedule = Gen.basic (profile seed) in
      let t = To.create () in
      let outcomes = List.map (To.step t) schedule in
      let committed_set =
        let rejected = Hashtbl.create 16 in
        List.iter2
          (fun o s ->
            if o = Si.Rejected then Hashtbl.replace rejected (Step.txn s) ())
          outcomes schedule;
        Intset.filter
          (fun tx -> not (Hashtbl.mem rejected tx))
          (S.completed_basic schedule)
      in
      let accepted =
        committed_subschedule outcomes schedule ~committed:(fun tx ->
            Intset.mem tx committed_set)
      in
      check (Printf.sprintf "seed %d TO CSR" seed) true (S.is_csr accepted);
      check "TO closes at commit" true
        ((To.stats t).Si.resident_txns = (To.stats t).Si.active_txns))
    [ 1; 2; 3 ]

let () =
  Alcotest.run "schedulers"
    [
      ( "conflict",
        [
          Alcotest.test_case "CSR under all policies" `Slow
            test_conflict_scheduler_csr;
          Alcotest.test_case "policies match reference outcomes" `Slow
            test_deletion_policies_match_reference;
          Alcotest.test_case "deletion reduces residency" `Quick
            test_deletion_reduces_residency;
          Alcotest.test_case "closure engine equivalent" `Slow
            test_closure_engine_equivalent;
        ] );
      ( "certifier",
        [
          Alcotest.test_case "CSR" `Slow test_certifier_csr;
          Alcotest.test_case "C1 deletion unsound here (negative)" `Slow
            test_certifier_c1_deletion_is_unsound;
          Alcotest.test_case "reads never fail" `Quick
            test_certifier_reads_never_fail;
        ] );
      ( "multiwrite",
        [
          Alcotest.test_case "CSR" `Slow test_multiwrite_csr_and_cascades;
          Alcotest.test_case "cascading abort" `Quick
            test_multiwrite_cascading_abort;
          Alcotest.test_case "commit waits for providers" `Quick
            test_multiwrite_commit_waits_for_providers;
        ] );
      ( "predeclared",
        [
          Alcotest.test_case "no aborts, queue flushes" `Slow
            test_predeclared_no_aborts_and_flushes;
          Alcotest.test_case "C4 deletion shrinks graph" `Quick
            test_predeclared_with_c4_deletion;
        ] );
      ( "baselines",
        [
          Alcotest.test_case "2PL: CSR and commit-time closure" `Slow
            test_2pl_csr_and_closure;
          Alcotest.test_case "2PL: deadlock resolution" `Quick
            test_2pl_deadlock_resolution;
          Alcotest.test_case "timestamp ordering" `Quick test_timestamp_order;
        ] );
    ]
