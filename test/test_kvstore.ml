module Store = Dct_kv.Store
module Storage = Dct_kv.Storage
module Wal = Dct_kv.Wal
module Vl = Dct_kv.Version_log
module Intset = Dct_graph.Intset
module Gs = Dct_deletion.Graph_state
module Policy = Dct_deletion.Policy
module Cs = Dct_sched.Conflict_scheduler
module Gen = Dct_workload.Generator

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

(* --- the storage: one path from a graph state's removals to the store
   and the log ------------------------------------------------------- *)

(* A graph state with a storage (and a WAL) subscribed to it. *)
let attached () =
  let gs = Gs.create () in
  let wal = Wal.create () in
  let storage = Storage.create ~wal () in
  Dct_sched.Scheduler_intf.attach_storage storage gs;
  (gs, storage, wal)

let aborts wal txn =
  List.length
    (List.filter (fun (_, r) -> r = Wal.Abort { txn }) (Wal.records wal))

(* A commit stages its writes before the step that decides it, so the
   graph state has not recorded those entities when a rejection aborts
   the transaction: the undo must come from the storage's own
   footprint. *)
let test_storage_abort_undoes_staged () =
  let gs, storage, _ = attached () in
  Gs.begin_txn gs 1;
  Storage.begin_ storage ~txn:1;
  Storage.write storage ~txn:1 ~entity:7 ~value:70;
  Storage.write storage ~txn:1 ~entity:8 ~value:80;
  check "graph state never recorded them" true
    (Dct_txn.Access.is_empty (Gs.accesses gs 1));
  Gs.abort_txn gs 1;
  let store = Storage.store storage in
  check_int "entity 7 undone" 0 (Store.peek store ~entity:7);
  check_int "entity 8 undone" 0 (Store.peek store ~entity:8);
  check_int "no version left" 0 (Store.total_versions store);
  check_int "footprint entry gone" 0 (Storage.footprints storage)

let test_storage_abort_journaled_once () =
  let gs, storage, wal = attached () in
  List.iter
    (fun txn ->
      Gs.begin_txn gs txn;
      Storage.begin_ storage ~txn)
    [ 1; 2 ];
  ignore (Storage.read storage ~txn:1 ~entity:0);
  Gs.abort_txn gs 1;
  Gs.abort_txn gs 1 (* already gone: no second notice *);
  check_int "T1: one Abort" 1 (aborts wal 1);
  (* A deletion forgets; it journals no Abort. *)
  Gs.set_state gs 2 Dct_txn.Transaction.Committed;
  Storage.commit storage ~txn:2;
  Dct_deletion.Reduced_graph.delete gs 2;
  check_int "T2: no Abort" 0 (aborts wal 2);
  (* Through a scheduler: each rejected transaction journals exactly one
     Abort, and only rejected ones do. *)
  let wal = Wal.create () in
  let sched =
    Cs.create ~policy:Policy.No_deletion ~storage:(Storage.create ~wal ()) ()
  in
  let rejected = Hashtbl.create 16 in
  List.iter
    (fun s ->
      if Cs.step sched s = Dct_sched.Scheduler_intf.Rejected then
        Hashtbl.replace rejected (Dct_txn.Step.txn s) ())
    (Gen.basic { Gen.default with Gen.n_txns = 120; n_entities = 8; mpl = 6; seed = 5 });
  check "some rejections" true (Hashtbl.length rejected > 0);
  List.iter
    (fun (_, r) ->
      match r with
      | Wal.Begin { txn } ->
          check_int
            (Printf.sprintf "T%d's Abort records" txn)
            (if Hashtbl.mem rejected txn then 1 else 0)
            (aborts wal txn)
      | Wal.Write _ | Wal.Commit _ | Wal.Abort _ -> ())
    (Wal.records wal)

(* Truncation drops the longest prefix of departed transactions, so how
   often it runs changes nothing a step leaves behind: truncating after
   every single removal keeps the same records as truncating once at
   the end of each step. *)
let test_storage_truncation_granularity () =
  let schedule =
    Gen.basic { Gen.default with Gen.n_txns = 150; n_entities = 12; mpl = 6; seed = 9 }
  in
  let run ~each =
    let wal = Wal.create () in
    let storage = Storage.create ~wal () in
    let sched = Cs.create ~policy:Policy.Greedy_c1 ~storage () in
    if each then
      Gs.on_mutation (Cs.graph_state sched) (function
        | Gs.Txn_removed _ -> Storage.truncate storage
        | _ -> ());
    List.map
      (fun s ->
        ignore (Cs.step sched s);
        (Wal.low_water_mark wal, Wal.records wal))
      schedule
  in
  let per_step = run ~each:false and per_removal = run ~each:true in
  check "some truncation" true
    (List.exists (fun (lw, _) -> lw > 0) per_step);
  check "same records after every step" true (per_step = per_removal)

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
          Alcotest.test_case "entity enumeration" `Quick test_entities;
        ] );
      ( "storage",
        [
          Alcotest.test_case "abort undoes staged writes" `Quick
            test_storage_abort_undoes_staged;
          Alcotest.test_case "a removal journals Abort once" `Quick
            test_storage_abort_journaled_once;
          Alcotest.test_case "truncation per removal = per step" `Quick
            test_storage_truncation_granularity;
        ] );
    ]
