(* Crash recovery meets deletion-driven log truncation.

   The conflict scheduler journals every event into a WAL whose
   low-water mark advances exactly when the deletion policy forgets
   transactions.  We run a workload, "crash", and rebuild the database
   from a checkpoint image plus the retained log suffix — byte-for-byte
   equal to the lost store.  The deletion policy decides how much log a
   crash has to replay.

     dune exec examples/recovery.exe *)

module Wal = Dct_kv.Wal
module Store = Dct_kv.Store
module Storage = Dct_kv.Storage
module Intset = Dct_graph.Intset
module Cs = Dct_sched.Conflict_scheduler
module Policy = Dct_deletion.Policy
module Gen = Dct_workload.Generator

let schedule =
  Gen.basic
    {
      Gen.default with
      Gen.n_txns = 150;
      n_entities = 20;
      mpl = 6;
      skew = "zipf:0.9";
      long_readers = 1;
      long_reader_step = 0.05;
      seed = 314;
    }

(* Run with [policy]; maintain a checkpoint image that chases the log's
   low-water mark (as a checkpointer daemon would). *)
let run policy =
  let wal = Wal.create () in
  let storage = Storage.create ~wal () in
  let sched = Cs.create ~policy ~storage () in
  (* The checkpoint is maintained incrementally: whenever the low-water
     mark advances we replay the newly-dropped records' effects.  For
     the demo we reconstruct it at crash time from a shadow full log. *)
  let shadow = Wal.create () in
  let sched_shadow =
    Cs.create ~policy:Policy.No_deletion
      ~storage:(Storage.create ~wal:shadow ())
      ()
  in
  List.iter
    (fun s ->
      ignore (Cs.step sched s);
      ignore (Cs.step sched_shadow s))
    schedule;
  (Storage.store storage, wal, shadow)

let () =
  print_endline "recovery: checkpoint + retained WAL suffix = live store\n";
  let header =
    Printf.sprintf "%-22s %10s %12s %12s %10s" "policy" "records"
      "retained" "replay-cost" "equal?"
  in
  print_endline header;
  print_endline (String.make (String.length header) '-');
  List.iter
    (fun policy ->
      let live, wal, shadow = run policy in
      (* Crash!  All we have: the checkpoint (state as of the low-water
         mark, rebuilt here from the shadow log's prefix) and the
         retained suffix. *)
      let recovered = Store.create () in
      let lw = Wal.low_water_mark wal in
      let prefix = Wal.create () in
      List.iter
        (fun (lsn, r) -> if lsn <= lw then ignore (Wal.append prefix r))
        (Wal.records shadow);
      Wal.replay prefix ~into:recovered; (* the checkpoint image *)
      Wal.replay wal ~into:recovered;    (* crash recovery proper *)
      let equal =
        Intset.for_all
          (fun entity ->
            Store.peek live ~entity = Store.peek recovered ~entity)
          (Store.entities live)
      in
      Printf.printf "%-22s %10d %12d %12d %10s\n" (Policy.name policy)
        (Wal.total_appended wal) (Wal.length wal) (Wal.length wal)
        (if equal then "yes" else "NO");
      assert equal)
    [
      Policy.No_deletion;
      Policy.Noncurrent;
      Policy.Greedy_c1;
      Policy.Budget (32, Policy.Greedy_c1);
    ];
  print_newline ();
  print_endline
    "Replay cost after a crash = retained records: the deletion policy is\n\
     the log-truncation policy. greedy-c1 keeps recovery nearly O(actives)."
