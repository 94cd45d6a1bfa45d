(* The write-ahead log: append/truncate mechanics, the deletion-driven
   low-water mark, and recovery equivalence (checkpoint + suffix replay
   reconstructs the live store). *)

module Wal = Dct_kv.Wal
module Store = Dct_kv.Store
module Storage = Dct_kv.Storage
module Intset = Dct_graph.Intset
module Cs = Dct_sched.Conflict_scheduler
module Policy = Dct_deletion.Policy
module Gen = Dct_workload.Generator

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let test_append_lsn () =
  let w = Wal.create () in
  check_int "lsn 1" 1 (Wal.append w (Wal.Begin { txn = 1 }));
  check_int "lsn 2" 2 (Wal.append w (Wal.Write { txn = 1; entity = 0; value = 5 }));
  check_int "lsn 3" 3 (Wal.append w (Wal.Commit { txn = 1 }));
  check_int "length" 3 (Wal.length w);
  check_int "total" 3 (Wal.total_appended w);
  check_int "low water" 0 (Wal.low_water_mark w)

let test_truncate_stops_at_resident () =
  let w = Wal.create () in
  ignore (Wal.append w (Wal.Begin { txn = 1 }));
  ignore (Wal.append w (Wal.Commit { txn = 1 }));
  ignore (Wal.append w (Wal.Begin { txn = 2 }));
  ignore (Wal.append w (Wal.Begin { txn = 3 }));
  ignore (Wal.append w (Wal.Commit { txn = 3 }));
  (* 2 is still resident: truncation may only drop T1's records. *)
  let dropped = Wal.truncate_to w ~resident:(fun t -> t = 2) in
  check_int "dropped 2 records" 2 dropped;
  check_int "low water = 2" 2 (Wal.low_water_mark w);
  check_int "3 retained" 3 (Wal.length w);
  check "oldest retained is T2's begin" true
    (match Wal.records w with
    | (3, Wal.Begin { txn = 2 }) :: _ -> true
    | _ -> false);
  (* Nothing more to drop while 2 is resident. *)
  check_int "no further drop" 0 (Wal.truncate_to w ~resident:(fun t -> t = 2));
  (* Once 2 is forgotten, everything goes. *)
  check_int "drop rest" 3 (Wal.truncate_to w ~resident:(fun _ -> false));
  check_int "empty" 0 (Wal.length w);
  check_int "low water = total" 5 (Wal.low_water_mark w)

let test_replay_committed_only () =
  let w = Wal.create () in
  ignore (Wal.append w (Wal.Begin { txn = 1 }));
  ignore (Wal.append w (Wal.Write { txn = 1; entity = 0; value = 10 }));
  ignore (Wal.append w (Wal.Commit { txn = 1 }));
  ignore (Wal.append w (Wal.Begin { txn = 2 }));
  ignore (Wal.append w (Wal.Write { txn = 2; entity = 1; value = 20 }));
  ignore (Wal.append w (Wal.Abort { txn = 2 }));
  ignore (Wal.append w (Wal.Begin { txn = 3 }));
  ignore (Wal.append w (Wal.Write { txn = 3; entity = 2; value = 30 }));
  (* T3 never committed. *)
  let s = Store.create () in
  Wal.replay w ~into:s;
  check_int "committed write applied" 10 (Store.peek s ~entity:0);
  check_int "aborted write skipped" 0 (Store.peek s ~entity:1);
  check_int "uncommitted write skipped" 0 (Store.peek s ~entity:2)

let scheduler_run policy =
  let wal = Wal.create () in
  let storage = Storage.create ~wal () in
  let sched = Cs.create ~policy ~storage () in
  let schedule =
    Gen.basic
      { Gen.default with Gen.n_txns = 120; n_entities = 16; mpl = 6; seed = 33 }
  in
  List.iter (fun s -> ignore (Cs.step sched s)) schedule;
  (Storage.store storage, wal, sched)

let test_deletion_drives_truncation () =
  let _, wal_none, _ = scheduler_run Policy.No_deletion in
  let _, wal_gc, _ = scheduler_run Policy.Greedy_c1 in
  check_int "same records appended" (Wal.total_appended wal_none)
    (Wal.total_appended wal_gc);
  check_int "no-deletion never truncates" 0 (Wal.truncated wal_none);
  check "gc truncates" true (Wal.truncated wal_gc > 0);
  check "gc log much shorter" true (Wal.length wal_gc < Wal.length wal_none / 2)

let test_recovery_equivalence () =
  (* Same workload through both schedulers; policies agree on every
     decision, so the no-deletion WAL is the complete history.  Build a
     checkpoint by replaying the complete history up to the truncating
     log's low-water mark, then replay the retained suffix on top: the
     result must equal the live store. *)
  let live_store, wal_gc, _ = scheduler_run Policy.Greedy_c1 in
  let _, wal_full, _ = scheduler_run Policy.No_deletion in
  let lw = Wal.low_water_mark wal_gc in
  (* Checkpoint image: complete-history records with lsn <= lw. *)
  let checkpoint = Store.create () in
  let prefix = Wal.create () in
  List.iter
    (fun (lsn, r) -> if lsn <= lw then ignore (Wal.append prefix r))
    (Wal.records wal_full);
  Wal.replay prefix ~into:checkpoint;
  (* Recovery: suffix on top of checkpoint. *)
  Wal.replay wal_gc ~into:checkpoint;
  Intset.iter
    (fun entity ->
      check_int
        (Printf.sprintf "entity %d recovered" entity)
        (Store.peek live_store ~entity)
        (Store.peek checkpoint ~entity))
    (Store.entities live_store)

let test_pp () =
  check "pp begin" true
    (Format.asprintf "%a" Wal.pp_record (Wal.Begin { txn = 3 }) = "BEGIN T3");
  check "pp write" true
    (Format.asprintf "%a" Wal.pp_record
       (Wal.Write { txn = 1; entity = 2; value = 7 })
    = "WRITE T1 e2 := 7")

(* Crash-recovery property: whatever point a crash truncates the log at
   — including between the Write records of one transaction's atomic
   write group — replaying the surviving prefix yields a
   prefix-consistent store: exactly the writes of transactions whose
   Commit survived, in log order, and nothing of transactions whose
   commit (or any later record) was lost. *)
let prop_truncated_replay_prefix_consistent =
  QCheck.Test.make ~count:100 ~name:"wal: mid-write truncation replays to a prefix-consistent store"
    QCheck.(pair small_nat (int_bound 1000))
    (fun (seed, cut_raw) ->
      let wal = Wal.create () in
      let sched =
        Cs.create ~policy:Policy.No_deletion ~storage:(Storage.create ~wal ()) ()
      in
      let schedule =
        Gen.basic
          {
            Gen.default with
            Gen.n_txns = 30;
            n_entities = 8;
            mpl = 4;
            seed = 1000 + seed;
          }
      in
      List.iter (fun s -> ignore (Cs.step sched s)) schedule;
      let full = Wal.records wal in
      let n = List.length full in
      if n = 0 then true
      else begin
        (* The crash keeps the first [cut] records; [cut_raw] is folded
           so every prefix length (0 included) is reachable. *)
        let cut = cut_raw mod (n + 1) in
        let surviving = Wal.create () in
        List.iteri
          (fun i (_lsn, r) -> if i < cut then ignore (Wal.append surviving r))
          full;
        let recovered = Store.create () in
        Wal.replay surviving ~into:recovered;
        (* Reference model, computed independently of [replay]: commits
           that survived, then their writes in log order. *)
        let committed = Hashtbl.create 16 in
        List.iteri
          (fun i (_lsn, r) ->
            match r with
            | Wal.Commit { txn } when i < cut -> Hashtbl.replace committed txn ()
            | _ -> ())
          full;
        let expected = Hashtbl.create 16 in
        let entities = ref [] in
        List.iteri
          (fun i (_lsn, r) ->
            match r with
            | Wal.Write { txn; entity; value }
              when i < cut && Hashtbl.mem committed txn ->
                if not (Hashtbl.mem expected entity) then
                  entities := entity :: !entities;
                Hashtbl.replace expected entity value
            | _ -> ())
          full;
        List.for_all
          (fun entity ->
            Store.peek recovered ~entity = Hashtbl.find expected entity)
          !entities
        && (* and nothing beyond the prefix leaked in: every touched
              entity of the recovered store is either expected or still
              at the initial value *)
        Intset.for_all
          (fun entity ->
            Hashtbl.mem expected entity || Store.peek recovered ~entity = 0)
          (Store.entities recovered)
      end)

let () =
  Alcotest.run "wal"
    [
      ( "wal",
        [
          Alcotest.test_case "append and LSNs" `Quick test_append_lsn;
          Alcotest.test_case "truncation stops at residents" `Quick
            test_truncate_stops_at_resident;
          Alcotest.test_case "replay applies committed only" `Quick
            test_replay_committed_only;
          Alcotest.test_case "deletion drives truncation" `Quick
            test_deletion_drives_truncation;
          Alcotest.test_case "recovery equivalence" `Quick
            test_recovery_equivalence;
          Alcotest.test_case "record printing" `Quick test_pp;
          QCheck_alcotest.to_alcotest prop_truncated_replay_prefix_consistent;
        ] );
    ]
