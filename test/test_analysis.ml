(* Dct_analysis: the graph-state invariant checker and the decision
   auditor.  The invariant tests deliberately corrupt a well-formed
   state through the public Graph_state API and assert the named
   violation surfaces; the audit tests flag the paper's unsafe
   commit-time policy and pass every correct one. *)

module Intset = Dct_graph.Intset
module Gs = Dct_deletion.Graph_state
module Rules = Dct_deletion.Rules
module Policy = Dct_deletion.Policy
module Reduced = Dct_deletion.Reduced_graph
module Gallery = Dct_deletion.Paper_gallery
module Step = Dct_txn.Step
module Gen = Dct_workload.Generator
module Cs = Dct_sched.Conflict_scheduler
module Invariant = Dct_analysis.Invariant
module Audit = Dct_analysis.Audit

let check = Alcotest.(check bool)
let names vs = List.map (fun v -> v.Invariant.name) vs

let has_violation n gs =
  let vs = names (Invariant.check gs) in
  List.iter
    (fun v ->
      check (v ^ " is a declared name") true
        (List.mem v Invariant.violation_names))
    vs;
  List.mem n vs

(* --- Invariant --- *)

let test_clean_states () =
  check "fresh state" true (Invariant.check (Gs.create ()) = []);
  let e = Gallery.example1 () in
  check "example 1" true (Invariant.check e.Gallery.gs1 = []);
  let e2 = Gallery.example2 () in
  check "example 2" true (Invariant.check e2.Gallery.gs2 = []);
  (* with the closure engine, and after a genuine reduction *)
  let gs = Gs.create ~oracle:Dct_graph.Cycle_oracle.Closure () in
  ignore (Rules.apply_all gs (Gallery.example1_schedule ()));
  check "closure state" true (Invariant.check gs = []);
  Reduced.delete gs 2;
  check "after deletion" true (Invariant.check gs = [])

let test_cyclic_graph () =
  let e = Gallery.example1 () in
  (* arcs are T1->T2->T3 and T1->T3; closing the loop corrupts *)
  Gs.add_arc e.Gallery.gs1 ~src:e.t3 ~dst:e.t1;
  check "cyclic-graph" true (has_violation "cyclic-graph" e.gs1)

let test_node_without_record () =
  let e = Gallery.example1 () in
  Gs.add_arc e.Gallery.gs1 ~src:e.t1 ~dst:4242;
  check "node-without-record" true (has_violation "node-without-record" e.gs1)

let test_deleted_resurrected () =
  let e = Gallery.example1 () in
  Reduced.delete e.Gallery.gs1 e.t2;
  check "clean after delete" true (Invariant.check e.gs1 = []);
  Gs.begin_txn e.gs1 e.t2;
  check "deleted-resurrected" true (has_violation "deleted-resurrected" e.gs1)

let test_aborted_resurrected () =
  let gs = Gs.create () in
  Gs.begin_txn gs 1;
  Gs.abort_txn gs 1;
  check "clean after abort" true (Invariant.check gs = []);
  Gs.begin_txn gs 1;
  check "aborted-resurrected" true (has_violation "aborted-resurrected" gs)

let test_checked_apply_raises () =
  let e = Gallery.example1 () in
  Gs.add_arc e.Gallery.gs1 ~src:e.t3 ~dst:e.t1;
  check "checked_apply raises" true
    (match Invariant.checked_apply e.gs1 (Step.Begin 99) with
    | _ -> false
    | exception Invariant.Violation { violations; _ } ->
        List.mem "cyclic-graph" (names violations));
  (* on a healthy state it is just Rules.apply *)
  let gs = Gs.create () in
  check "accepts begin" true (Invariant.checked_apply gs (Step.Begin 1) = Rules.Accepted);
  check "policy run checked" true
    (Intset.is_empty (Invariant.checked_policy_run Policy.Greedy_c1 gs))

let test_selfcheck_handle () =
  List.iter
    (fun oracle ->
      let schedule =
        Gen.basic { Gen.default with Gen.n_txns = 30; n_entities = 5; mpl = 4 }
      in
      let t = Cs.create ~policy:Policy.Greedy_c1 ?oracle () in
      let handle =
        Invariant.selfcheck_handle
          ~gs:(fun () -> Cs.graph_state t)
          (Cs.handle_of t)
      in
      let seen = ref 0 in
      let result =
        Dct_sim.Driver.run ~observe:(fun n _ _ -> seen := n) handle schedule
      in
      check "selfcheck name" true
        (Filename.check_suffix result.Dct_sim.Driver.name "+selfcheck");
      Alcotest.(check int) "observe saw every step"
        result.Dct_sim.Driver.steps !seen)
    [ None; Some Dct_graph.Cycle_oracle.Closure ]

(* --- Audit --- *)

(* The paper's motivating failure (test_policy reuses the same
   schedule): commit-time deletion of T2 lets the scheduler accept the
   non-CSR schedule r1(x) r2(x) w2(x) w1(x). *)
let witness =
  [
    Step.Begin 1;
    Step.Read (1, 0);
    Step.Begin 2;
    Step.Read (2, 0);
    Step.Write (2, [ 0 ]);
    Step.Write (1, [ 0 ]);
  ]

let test_audit_flags_commit_time () =
  let report = Audit.audit_schedule ~policy:Policy.Unsafe_commit_time witness in
  check "not ok" false (Audit.ok report);
  check "deleted something" true (report.Audit.deleted_total >= 1);
  match report.Audit.finding with
  | Some (Audit.Unjustified_deletion { deleted; witnesses; _ }) ->
      check "T2 deleted" true (Intset.mem 2 deleted);
      check "witness triples" true (witnesses <> [])
  | f ->
      Alcotest.failf "expected Unjustified_deletion, got %a"
        (Format.pp_print_option (Audit.pp_finding ?txn_name:None ?entity_name:None))
        f

let test_audit_passes_correct_policies () =
  (* the witness schedule and Example 1 ... *)
  List.iter
    (fun policy ->
      List.iter
        (fun schedule ->
          let report = Audit.audit_schedule ~policy schedule in
          check (Policy.name policy ^ " clean") true (Audit.ok report))
        [ witness; Gallery.example1_schedule () ])
    Policy.all_correct;
  (* ... and random workloads under every correct policy *)
  List.iter
    (fun seed ->
      let schedule =
        Gen.basic
          { Gen.default with Gen.n_txns = 40; n_entities = 6; mpl = 5; seed }
      in
      List.iter
        (fun policy ->
          let report = Audit.audit_schedule ~policy schedule in
          check
            (Printf.sprintf "seed %d %s clean" seed (Policy.name policy))
            true (Audit.ok report);
          Alcotest.(check int)
            (Printf.sprintf "seed %d %s steps" seed (Policy.name policy))
            (List.length schedule) report.Audit.steps)
        Policy.all_correct)
    [ 1; 2; 3 ]

let test_audit_jointly_undeletable () =
  (* §4: T2 and T3 of Example 1 are each deletable but not jointly —
     a trace claiming the pair was deleted at once must be rejected. *)
  let schedule = Gallery.example1_schedule () in
  let e = Gallery.example1 () in
  let trace =
    Audit.record schedule
    @ [
        Audit.Deletion
          {
            index = List.length schedule - 1;
            deleted = Intset.of_list [ e.Gallery.t2; e.t3 ];
          };
      ]
  in
  match (Audit.audit trace).Audit.finding with
  | Some (Audit.Unjustified_deletion { deleted; _ }) ->
      Alcotest.(check (list int)) "the pair" [ e.t2; e.t3 ]
        (Intset.to_sorted_list deleted)
  | _ -> Alcotest.fail "expected Unjustified_deletion"

let test_audit_single_deletions_justified () =
  (* ... while deleting either one alone is fine, whichever it is. *)
  let schedule = Gallery.example1_schedule () in
  let e = Gallery.example1 () in
  List.iter
    (fun t ->
      let trace =
        Audit.record schedule
        @ [
            Audit.Deletion
              { index = List.length schedule - 1; deleted = Intset.singleton t };
          ]
      in
      check (Printf.sprintf "T%d alone ok" t) true (Audit.ok (Audit.audit trace)))
    [ e.Gallery.t2; e.t3 ]

let test_audit_illegal_deletion () =
  let trace =
    [
      Audit.Decision { index = 0; step = Step.Begin 1; decision = Audit.Accepted };
      Audit.Deletion { index = 0; deleted = Intset.singleton 1 };
    ]
  in
  match (Audit.audit trace).Audit.finding with
  | Some (Audit.Illegal_deletion { txn; _ }) ->
      Alcotest.(check int) "T1 flagged" 1 txn
  | _ -> Alcotest.fail "expected Illegal_deletion"

let test_audit_decision_mismatch () =
  let trace =
    [ Audit.Decision { index = 0; step = Step.Begin 1; decision = Audit.Rejected } ]
  in
  match (Audit.audit trace).Audit.finding with
  | Some (Audit.Decision_mismatch { recorded; replayed; _ }) ->
      check "recorded" true (recorded = Audit.Rejected);
      check "replayed" true (replayed = Audit.Accepted)
  | _ -> Alcotest.fail "expected Decision_mismatch"

let test_audit_malformed_step () =
  let trace =
    [
      Audit.Decision
        { index = 0; step = Step.Read (1, 0); decision = Audit.Accepted };
    ]
  in
  match (Audit.audit trace).Audit.finding with
  | Some (Audit.Malformed_step { error; _ }) ->
      check "mentions unknown txn" true (String.length error > 0)
  | _ -> Alcotest.fail "expected Malformed_step"

let test_csr_via_closure () =
  check "example 1 is CSR" true
    (Intset.is_empty (Audit.csr_via_closure (Gallery.example1_schedule ())));
  (* the witness schedule, taken as accepted in full, is not *)
  Alcotest.(check (list int)) "witness cycle" [ 1; 2 ]
    (Intset.to_sorted_list (Audit.csr_via_closure witness))

let test_audit_with_safety_depth () =
  (* the bounded ground-truth oracle agrees with the conditions here *)
  let report =
    Audit.audit_schedule ~safety_depth:2 ~policy:Policy.Noncurrent witness
  in
  check "noncurrent ok under oracle" true (Audit.ok report);
  let bad =
    Audit.audit_schedule ~safety_depth:2 ~policy:Policy.Unsafe_commit_time
      witness
  in
  check "commit-time still flagged" false (Audit.ok bad)

let () =
  Alcotest.run "analysis"
    [
      ( "invariant",
        [
          Alcotest.test_case "clean states" `Quick test_clean_states;
          Alcotest.test_case "cyclic graph" `Quick test_cyclic_graph;
          Alcotest.test_case "node without record" `Quick
            test_node_without_record;
          Alcotest.test_case "deleted resurrected" `Quick
            test_deleted_resurrected;
          Alcotest.test_case "aborted resurrected" `Quick
            test_aborted_resurrected;
          Alcotest.test_case "checked apply" `Quick test_checked_apply_raises;
          Alcotest.test_case "selfcheck handle" `Quick test_selfcheck_handle;
        ] );
      ( "audit",
        [
          Alcotest.test_case "flags commit-time deletion" `Quick
            test_audit_flags_commit_time;
          Alcotest.test_case "passes correct policies" `Slow
            test_audit_passes_correct_policies;
          Alcotest.test_case "jointly undeletable pair" `Quick
            test_audit_jointly_undeletable;
          Alcotest.test_case "single deletions justified" `Quick
            test_audit_single_deletions_justified;
          Alcotest.test_case "illegal deletion" `Quick test_audit_illegal_deletion;
          Alcotest.test_case "decision mismatch" `Quick
            test_audit_decision_mismatch;
          Alcotest.test_case "malformed step" `Quick test_audit_malformed_step;
          Alcotest.test_case "CSR via closure" `Quick test_csr_via_closure;
          Alcotest.test_case "bounded safety oracle" `Quick
            test_audit_with_safety_depth;
        ] );
    ]
