(* Metamorphic properties of the oracle backends: the backend is a cost
   profile, not a semantics.  For every deletion policy and every
   scheduler model, a full simulation under --oracle closure and
   --oracle topo must produce byte-for-byte identical decision traces —
   same per-step outcomes, same deletions at the same steps, same final
   graph.  The decision traces are then fed to [Dct_analysis.Audit],
   which must certify both. *)

module Intset = Dct_graph.Intset
module Digraph = Dct_graph.Digraph
module Oracle = Dct_graph.Cycle_oracle
module Step = Dct_txn.Step
module Gs = Dct_deletion.Graph_state
module Policy = Dct_deletion.Policy
module Gallery = Dct_deletion.Paper_gallery
module Cs = Dct_sched.Conflict_scheduler
module Si = Dct_sched.Scheduler_intf
module Audit = Dct_analysis.Audit
module Gen = Dct_workload.Generator

let check = Alcotest.(check bool)

let outcome_name = Si.outcome_name

(* One full conflict-scheduler run; the observable decision trace is
   (step outcomes, deletion log, final stats, final graph). *)
let run_basic ~oracle ~policy schedule =
  let t = Cs.create ~policy ~oracle () in
  let outcomes = List.map (fun s -> outcome_name (Cs.step t s)) schedule in
  let deletions =
    List.map
      (fun (step, set) -> (step, Intset.to_sorted_list set))
      (Cs.deleted_log t)
  in
  let st = Cs.stats t in
  ( outcomes,
    deletions,
    (st.Si.committed_total, st.Si.aborted_total, st.Si.deleted_total),
    Gs.graph (Cs.graph_state t) )

let profile seed =
  { Gen.default with Gen.n_txns = 50; n_entities = 14; mpl = 6; seed }

let test_policies_closure_vs_topo () =
  List.iter
    (fun policy ->
      List.iter
        (fun seed ->
          let schedule = Gen.basic (profile seed) in
          let o_c, d_c, s_c, g_c =
            run_basic ~oracle:Oracle.Closure ~policy schedule
          in
          let o_t, d_t, s_t, g_t =
            run_basic ~oracle:Oracle.Topo ~policy schedule
          in
          let name what =
            Printf.sprintf "%s/seed %d: %s" (Policy.name policy) seed what
          in
          Alcotest.(check (list string)) (name "outcomes closure=topo") o_c o_t;
          Alcotest.(check (list (pair int (list int))))
            (name "deletions closure=topo") d_c d_t;
          Alcotest.(check (triple int int int)) (name "stats closure=topo") s_c
            s_t;
          check (name "graph closure=topo") true (Digraph.equal g_c g_t))
        [ 5; 23; 71 ])
    Policy.all_correct

(* The recorded audit trace must be oracle-independent, and the auditor
   must certify it whichever backend recorded it. *)
let comparable_trace trace =
  List.map
    (function
      | Audit.Decision { index; step; decision } ->
          Printf.sprintf "%d %s %s" index (Step.to_string step)
            (Format.asprintf "%a" Audit.pp_decision decision)
      | Audit.Deletion { index; deleted } ->
          Printf.sprintf "%d del {%s}" index
            (String.concat ","
               (List.map string_of_int (Intset.to_sorted_list deleted)))
      | Audit.Abort { index; txn } -> Printf.sprintf "%d abort T%d" index txn)
    trace

let test_audit_cross_check () =
  List.iter
    (fun policy ->
      List.iter
        (fun seed ->
          let schedule = Gen.basic (profile seed) in
          let tr_c = Audit.record ~policy ~oracle:Oracle.Closure schedule in
          let tr_t = Audit.record ~policy ~oracle:Oracle.Topo schedule in
          Alcotest.(check (list string))
            (Printf.sprintf "%s/seed %d: recorded traces equal"
               (Policy.name policy) seed)
            (comparable_trace tr_c) (comparable_trace tr_t);
          check "closure-recorded trace audits clean" true
            (Audit.ok (Audit.audit tr_c));
          check "topo-recorded trace audits clean" true
            (Audit.ok (Audit.audit tr_t)))
        [ 13; 47 ])
    Policy.all_correct

(* --- every model completes under the Checked oracle --------------- *)

let test_multiwrite_checked () =
  let schedule =
    Gen.multiwrite { Gen.default with Gen.n_txns = 60; n_entities = 12; seed = 9 }
  in
  let t =
    Dct_sched.Multiwrite_scheduler.create
      ~deletion:(Dct_sched.Multiwrite_scheduler.C3_exact 8)
      ~oracle:Oracle.Checked ()
  in
  List.iter (fun s -> ignore (Dct_sched.Multiwrite_scheduler.step t s)) schedule;
  let st = Dct_sched.Multiwrite_scheduler.stats t in
  check "made progress" true (st.Si.committed_total > 0)

let test_predeclared_checked () =
  let schedule =
    Gen.predeclared
      { Gen.default with Gen.n_txns = 60; n_entities = 12; seed = 9 }
  in
  let t =
    Dct_sched.Predeclared_scheduler.create ~use_c4_deletion:true
      ~oracle:Oracle.Checked ()
  in
  List.iter (fun s -> ignore (Dct_sched.Predeclared_scheduler.step t s)) schedule;
  ignore (Dct_sched.Predeclared_scheduler.drain t);
  Alcotest.(check int) "queue flushed" 0
    (Dct_sched.Predeclared_scheduler.pending t)

let test_certifier_checked () =
  let schedule =
    Gen.basic { Gen.default with Gen.n_txns = 60; n_entities = 12; seed = 9 }
  in
  let t = Dct_sched.Certifier.create ~oracle:Oracle.Checked () in
  List.iter (fun s -> ignore (Dct_sched.Certifier.step t s)) schedule;
  let st = Dct_sched.Certifier.stats t in
  check "made progress" true (st.Si.committed_total > 0)

(* --- the paper gallery under the Checked oracle ------------------- *)

let test_gallery_checked () =
  (* Example 1 (§3): replay, delete the noncurrent T2, abort T1 — all
     three structural mutations (arc, bypass delete, exact removal)
     cross-checked. *)
  let schedule = Gallery.example1_schedule () in
  List.iter
    (fun policy ->
      let gs = Gs.create ~oracle:Oracle.Checked () in
      List.iter
        (fun s ->
          ignore (Dct_deletion.Rules.apply gs s);
          ignore (Policy.run policy gs))
        schedule;
      check
        (Policy.name policy ^ ": checked oracle consistent")
        true
        (Oracle.check_against (Gs.oracle gs) (Gs.graph gs)))
    Policy.all_correct;
  (* The Theorem 5 set-cover schedule: a dense bipartite conflict
     pattern followed by exact-max deletion. *)
  let inst =
    Dct_npc.Set_cover.make ~universe:6
      [ [ 0; 1; 2 ]; [ 3; 4; 5 ]; [ 0; 3 ]; [ 1; 4 ]; [ 2; 5 ] ]
  in
  let schedule, _ = Dct_npc.Reduction_cover.schedule inst in
  let gs = Gs.create ~oracle:Oracle.Checked () in
  ignore (Dct_deletion.Rules.apply_all gs schedule);
  let deleted = Policy.run Policy.Exact_max gs in
  check "set-cover: exact-max deleted something" true
    (not (Intset.is_empty deleted));
  check "set-cover: checked oracle consistent" true
    (Oracle.check_against (Gs.oracle gs) (Gs.graph gs))

let () =
  Alcotest.run "oracle_metamorphic"
    [
      ( "basic",
        [
          Alcotest.test_case "policies: closure = topo" `Slow
            test_policies_closure_vs_topo;
          Alcotest.test_case "audit cross-check both backends" `Slow
            test_audit_cross_check;
        ] );
      ( "models",
        [
          Alcotest.test_case "multiwrite under checked" `Quick
            test_multiwrite_checked;
          Alcotest.test_case "predeclared under checked" `Quick
            test_predeclared_checked;
          Alcotest.test_case "certifier under checked" `Quick
            test_certifier_checked;
        ] );
      ( "gallery",
        [ Alcotest.test_case "worked examples under checked" `Quick test_gallery_checked ] );
    ]
