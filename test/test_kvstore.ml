module Store = Dct_kv.Store
module Vl = Dct_kv.Version_log
module Intset = Dct_graph.Intset

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let test_read_initial () =
  let s = Store.create ~default:7 () in
  let v = Store.read s ~entity:0 ~reader:1 in
  check_int "initial value" 7 v.Vl.value;
  check "no writer" true (v.Vl.writer = None);
  check "reader recorded" true (Intset.mem 1 (Store.current_readers s ~entity:0))

let test_write_then_read () =
  let s = Store.create () in
  Store.write s ~entity:0 ~writer:1 ~value:42;
  let v = Store.read s ~entity:0 ~reader:2 in
  check_int "value" 42 v.Vl.value;
  check "read from T1" true (v.Vl.writer = Some 1);
  check "current writer" true (Store.current_writer s ~entity:0 = Some 1);
  check_int "two versions" 2 (Store.version_count s ~entity:0)

let test_txn_is_current () =
  let s = Store.create () in
  Store.write s ~entity:0 ~writer:1 ~value:1;
  ignore (Store.read s ~entity:0 ~reader:2);
  Store.write s ~entity:0 ~writer:3 ~value:2;
  let e0 = Intset.singleton 0 in
  check "T1 overwritten: not current" false (Store.txn_is_current s ~txn:1 ~entities:e0);
  check "T2's read overwritten" false (Store.txn_is_current s ~txn:2 ~entities:e0);
  check "T3 current" true (Store.txn_is_current s ~txn:3 ~entities:e0)

let test_undo_writes () =
  let s = Store.create ~default:5 () in
  Store.write s ~entity:0 ~writer:1 ~value:10;
  Store.write s ~entity:1 ~writer:1 ~value:11;
  Store.write s ~entity:0 ~writer:2 ~value:20;
  Store.undo_writes s ~txn:1 ~entities:(Intset.of_list [ 0; 1 ]);
  check_int "entity 0 keeps T2's value" 20 (Store.peek s ~entity:0);
  check_int "entity 1 reverts to default" 5 (Store.peek s ~entity:1);
  (* Back to its bare initial version, entity 1's chain is retired: a
     later access recreates it exactly. *)
  check_int "no chain left on entity 1" 0 (Store.version_count s ~entity:1);
  check_int "total versions" 2 (Store.total_versions s)

let test_undo_middle_of_chain () =
  let s = Store.create () in
  Store.write s ~entity:0 ~writer:1 ~value:1;
  Store.write s ~entity:0 ~writer:2 ~value:2;
  Store.write s ~entity:0 ~writer:3 ~value:3;
  Store.undo_writes s ~txn:2 ~entities:(Intset.singleton 0);
  check_int "current still T3" 3 (Store.peek s ~entity:0);
  check_int "chain length 3" 3 (Store.version_count s ~entity:0)

let test_forget_txn () =
  let s = Store.create () in
  ignore (Store.read s ~entity:0 ~reader:9);
  Store.forget_txn s ~txn:9 ~entities:(Intset.singleton 0);
  check "reader forgotten" false (Intset.mem 9 (Store.current_readers s ~entity:0))

let total_consistent s =
  Intset.fold
    (fun entity acc -> acc + Store.version_count s ~entity)
    (Store.entities s) 0
  = Store.total_versions s

let test_abort_clears_reader_marks () =
  let s = Store.create () in
  ignore (Store.read s ~entity:0 ~reader:4);
  ignore (Store.read s ~entity:0 ~reader:5);
  Store.write s ~entity:1 ~writer:4 ~value:7;
  Store.undo_writes s ~txn:4 ~entities:(Intset.of_list [ 0; 1 ]);
  check "aborted reader leaves no mark" false
    (Intset.mem 4 (Store.current_readers s ~entity:0));
  check "other reader kept" true (Intset.mem 5 (Store.current_readers s ~entity:0));
  check_int "write undone" 0 (Store.peek s ~entity:1);
  check "total versions maintained" true (total_consistent s)

let test_forget_prunes_older () =
  let s = Store.create () in
  Store.write s ~entity:0 ~writer:1 ~value:10;
  Store.write s ~entity:0 ~writer:2 ~value:20;
  Store.write s ~entity:0 ~writer:2 ~value:21;
  Store.write s ~entity:0 ~writer:3 ~value:30;
  check_int "five versions" 5 (Store.version_count s ~entity:0);
  Store.forget_txn s ~txn:2 ~entities:(Intset.singleton 0);
  check_int "only W's newest and later kept" 2 (Store.version_count s ~entity:0);
  check_int "peek unchanged" 30 (Store.peek s ~entity:0);
  check "total versions maintained" true (total_consistent s);
  (* T3 is still active: undoing it brings back W's (T2's) value. *)
  Store.undo_writes s ~txn:3 ~entities:(Intset.singleton 0);
  check_int "W's value restored" 21 (Store.peek s ~entity:0);
  check "W is the current writer" true (Store.current_writer s ~entity:0 = Some 2);
  check_int "one version left" 1 (Store.version_count s ~entity:0);
  check "total versions maintained" true (total_consistent s)

let test_forget_reader_only_keeps_chain () =
  let s = Store.create () in
  Store.write s ~entity:0 ~writer:1 ~value:10;
  ignore (Store.read s ~entity:0 ~reader:2);
  Store.forget_txn s ~txn:2 ~entities:(Intset.singleton 0);
  check_int "a reader prunes nothing" 2 (Store.version_count s ~entity:0);
  check_int "peek unchanged" 10 (Store.peek s ~entity:0)

let test_removal_leaves_other_chains () =
  let s = Store.create () in
  Store.write s ~entity:0 ~writer:1 ~value:10;
  Store.write s ~entity:5 ~writer:1 ~value:50;
  Store.write s ~entity:0 ~writer:2 ~value:20;
  Store.write s ~entity:5 ~writer:2 ~value:51;
  ignore (Store.read s ~entity:5 ~reader:3);
  Store.forget_txn s ~txn:2 ~entities:(Intset.singleton 0);
  Store.undo_writes s ~txn:3 ~entities:(Intset.singleton 0);
  check_int "entity 5's chain untouched" 3 (Store.version_count s ~entity:5);
  check "entity 5's reader untouched" true
    (Intset.mem 3 (Store.current_readers s ~entity:5));
  check_int "entity 5's value" 51 (Store.peek s ~entity:5);
  check_int "entity 0 pruned" 1 (Store.version_count s ~entity:0);
  check "total versions maintained" true (total_consistent s)

let test_truncate () =
  let s = Store.create () in
  for i = 1 to 10 do
    Store.write s ~entity:0 ~writer:i ~value:i
  done;
  check_int "11 versions" 11 (Store.version_count s ~entity:0);
  Store.truncate_history s ~keep:3;
  check_int "3 versions kept" 3 (Store.version_count s ~entity:0);
  check_int "current preserved" 10 (Store.peek s ~entity:0);
  check_int "total versions" 3 (Store.total_versions s)

let test_entities () =
  let s = Store.create () in
  ignore (Store.read s ~entity:3 ~reader:1);
  Store.write s ~entity:5 ~writer:1 ~value:0;
  Alcotest.(check (list int)) "touched" [ 3; 5 ]
    (Intset.to_sorted_list (Store.entities s))

let () =
  Alcotest.run "kvstore"
    [
      ( "store",
        [
          Alcotest.test_case "initial read" `Quick test_read_initial;
          Alcotest.test_case "write then read" `Quick test_write_then_read;
          Alcotest.test_case "currency tracking" `Quick test_txn_is_current;
          Alcotest.test_case "undo writes" `Quick test_undo_writes;
          Alcotest.test_case "undo middle of chain" `Quick
            test_undo_middle_of_chain;
          Alcotest.test_case "forget reader" `Quick test_forget_txn;
          Alcotest.test_case "abort clears reader marks" `Quick
            test_abort_clears_reader_marks;
          Alcotest.test_case "forget prunes older versions" `Quick
            test_forget_prunes_older;
          Alcotest.test_case "forget of a reader prunes nothing" `Quick
            test_forget_reader_only_keeps_chain;
          Alcotest.test_case "removal leaves other chains" `Quick
            test_removal_leaves_other_chains;
          Alcotest.test_case "truncate history" `Quick test_truncate;
          Alcotest.test_case "entity enumeration" `Quick test_entities;
        ] );
    ]
