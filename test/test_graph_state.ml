module Gs = Dct_deletion.Graph_state
module A = Dct_txn.Access
module T = Dct_txn.Transaction
module Intset = Dct_graph.Intset

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let test_lifecycle () =
  let gs = Gs.create () in
  Gs.begin_txn gs 1;
  check "active" true (Gs.is_active gs 1);
  check "not completed" false (Gs.is_completed gs 1);
  Gs.set_state gs 1 T.Committed;
  check "completed" true (Gs.is_completed gs 1);
  check_int "count" 1 (Gs.txn_count gs);
  Alcotest.check_raises "duplicate begin"
    (Invalid_argument "Graph_state.begin_txn: T1 already present") (fun () ->
      Gs.begin_txn gs 1)

let test_entity_index () =
  let gs = Gs.create () in
  Gs.begin_txn gs 1;
  Gs.begin_txn gs 2;
  Gs.record_access gs ~txn:1 ~entity:0 ~mode:A.Read;
  Gs.record_access gs ~txn:2 ~entity:0 ~mode:A.Write;
  Alcotest.(check (list int)) "writers" [ 2 ]
    (Intset.to_sorted_list (Gs.present_writers gs ~entity:0));
  Alcotest.(check (list int)) "accessors" [ 1; 2 ]
    (Intset.to_sorted_list (Gs.present_accessors gs ~entity:0))

let test_current_accessors () =
  let gs = Gs.create () in
  List.iter (Gs.begin_txn gs) [ 1; 2; 3 ];
  Gs.record_access gs ~txn:1 ~entity:0 ~mode:A.Read;
  Gs.record_access gs ~txn:2 ~entity:0 ~mode:A.Write;
  Gs.record_access gs ~txn:3 ~entity:0 ~mode:A.Read;
  (* Current value was written by 2 and read by 3; 1 read the old one. *)
  Alcotest.(check (list int)) "current accessors" [ 2; 3 ]
    (Intset.to_sorted_list (Gs.current_accessors gs ~entity:0))

let test_current_survives_deletion () =
  let gs = Gs.create () in
  List.iter (Gs.begin_txn gs) [ 1; 2 ];
  Gs.record_access gs ~txn:1 ~entity:0 ~mode:A.Read;
  Gs.record_access gs ~txn:2 ~entity:0 ~mode:A.Write;
  Gs.set_state gs 2 T.Committed;
  (* Delete T2, a committed transaction: its write must keep counting. *)
  Dct_deletion.Reduced_graph.delete gs 2;
  check "T1 still not current" false
    (Intset.mem 1 (Gs.current_accessors gs ~entity:0))

let test_abort_reverts_current () =
  let gs = Gs.create () in
  List.iter (Gs.begin_txn gs) [ 1; 2 ];
  Gs.record_access gs ~txn:1 ~entity:0 ~mode:A.Write;
  Gs.record_access gs ~txn:2 ~entity:0 ~mode:A.Write;
  (* Abort T2: T1's write becomes current again. *)
  Gs.abort_txn gs 2;
  check "T1 current again" true (Intset.mem 1 (Gs.current_accessors gs ~entity:0));
  check "was aborted" true (Gs.was_aborted gs 2);
  check "not member" false (Gs.mem_txn gs 2)

let test_dependencies () =
  let gs = Gs.create () in
  List.iter (Gs.begin_txn gs) [ 1; 2; 3; 4 ];
  Gs.add_dependency gs ~dependent:2 ~on_:1;
  Gs.add_dependency gs ~dependent:3 ~on_:2;
  let closure = Gs.dependents_closure gs (Intset.singleton 1) in
  Alcotest.(check (list int)) "closure of {1}" [ 1; 2; 3 ]
    (Intset.to_sorted_list closure);
  Alcotest.(check (list int)) "deps of 3" [ 2 ]
    (Intset.to_sorted_list (Gs.direct_deps gs 3));
  Gs.abort_txn gs 2;
  Alcotest.(check (list int)) "closure after abort of 2" [ 1 ]
    (Intset.to_sorted_list (Gs.dependents_closure gs (Intset.singleton 1)))

let test_would_cycle () =
  let gs = Gs.create () in
  List.iter (Gs.begin_txn gs) [ 1; 2; 3 ];
  Gs.add_arc gs ~src:1 ~dst:2;
  Gs.add_arc gs ~src:2 ~dst:3;
  check "arcs into 1 from succ: cycle" true
    (Gs.would_cycle gs ~into:1 ~sources:(Intset.singleton 3));
  check "arcs into 3: fine" false
    (Gs.would_cycle gs ~into:3 ~sources:(Intset.singleton 1));
  check "self source" true
    (Gs.would_cycle gs ~into:1 ~sources:(Intset.singleton 1));
  check "empty sources" false (Gs.would_cycle gs ~into:1 ~sources:Intset.empty);
  (* The graph lives in the oracle, which refuses a cycle-closing arc
     before changing anything: Invalid_argument under the default
     backend, Disagreement under Checked. *)
  List.iter
    (fun (what, oracle) ->
      let gs = Gs.create ?oracle () in
      List.iter (Gs.begin_txn gs) [ 1; 2; 3 ];
      Gs.add_arc gs ~src:1 ~dst:2;
      Gs.add_arc gs ~src:2 ~dst:3;
      let refused =
        match Gs.add_arc gs ~src:3 ~dst:1 with
        | () -> false
        | exception Invalid_argument _ -> oracle = None
        | exception Dct_graph.Cycle_oracle.Disagreement _ -> oracle <> None
      in
      check (what ^ ": cycle-closing arc refused") true refused;
      check_int (what ^ ": arc count unchanged") 2
        (Dct_graph.Digraph.arc_count (Gs.graph gs));
      check (what ^ ": invariants hold") true (Gs.check_invariants gs = Ok ()))
    [ ("default", None); ("checked", Some Dct_graph.Cycle_oracle.Checked) ]

let test_copy_independence () =
  let gs = Gs.create () in
  Gs.begin_txn gs 1;
  Gs.record_access gs ~txn:1 ~entity:0 ~mode:A.Read;
  let gs' = Gs.copy gs in
  Gs.set_state gs' 1 T.Committed;
  Gs.record_access gs' ~txn:1 ~entity:1 ~mode:A.Write;
  check "original still active" true (Gs.is_active gs 1);
  check "original accesses unchanged" false (A.mem (Gs.accesses gs 1) ~entity:1);
  Gs.begin_txn gs' 2;
  Gs.add_arc gs' ~src:1 ~dst:2;
  check "copy has the arc" true
    (Dct_graph.Digraph.mem_arc (Gs.graph gs') ~src:1 ~dst:2);
  check "original graph lacks the arc" false
    (Dct_graph.Digraph.mem_arc (Gs.graph gs) ~src:1 ~dst:2);
  check "original lacks the node" false (Gs.mem_txn gs 2);
  Gs.abort_txn gs' 1;
  check "original still present" true (Gs.mem_txn gs 1)

let test_declared () =
  let gs = Gs.create () in
  let d = A.of_list [ (0, A.Read); (1, A.Write) ] in
  Gs.begin_txn gs 1 ~declared:d;
  Gs.record_access gs ~txn:1 ~entity:0 ~mode:A.Read;
  let future = T.future_accesses (Gs.txn gs 1) in
  check "only the write remains" true
    (A.cardinal future = 1 && A.find future ~entity:1 = Some A.Write)

let () =
  Alcotest.run "graph_state"
    [
      ( "graph_state",
        [
          Alcotest.test_case "lifecycle" `Quick test_lifecycle;
          Alcotest.test_case "entity index" `Quick test_entity_index;
          Alcotest.test_case "current accessors" `Quick test_current_accessors;
          Alcotest.test_case "currency survives deletion" `Quick
            test_current_survives_deletion;
          Alcotest.test_case "abort reverts currency" `Quick
            test_abort_reverts_current;
          Alcotest.test_case "dependency closure" `Quick test_dependencies;
          Alcotest.test_case "would_cycle" `Quick test_would_cycle;
          Alcotest.test_case "copy independence" `Quick test_copy_independence;
          Alcotest.test_case "declared future" `Quick test_declared;
        ] );
    ]
