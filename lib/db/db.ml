module Step = Dct_txn.Step
module Si = Dct_sched.Scheduler_intf
module Cs = Dct_sched.Conflict_scheduler
module Gs = Dct_deletion.Graph_state
module Policy = Dct_deletion.Policy
module Store = Dct_kv.Store
module Wal = Dct_kv.Wal
module Storage = Dct_kv.Storage

type config = {
  policy : Policy.t;
  durable : bool;
  max_retries : int;
  default_value : int;
}

let default_config =
  { policy = Policy.Greedy_c1; durable = true; max_retries = 8; default_value = 0 }

(* The database owns its storage (rather than passing it to the
   scheduler) so that journalled values are the caller's actual values,
   not scheduler-internal placeholders; subscribed to the scheduler's
   graph state, the storage undoes every abort and forgets every
   deletion itself. *)
type t = {
  config : config;
  sched : Cs.t;
  storage : Storage.t;
  mutable next_txn : int;
}

let open_ ?(config = default_config) () =
  let sched = Cs.create ~policy:config.policy () in
  let storage =
    Storage.create ~default:config.default_value
      ?wal:(if config.durable then Some (Wal.create ()) else None)
      ()
  in
  Si.attach_storage storage (Cs.graph_state sched);
  { config; sched; storage; next_txn = 0 }

type status = Running | Done

type txn = { db : t; id : int; mutable status : status }

type error = Aborted | Txn_done

let pp_error ppf = function
  | Aborted -> Format.pp_print_string ppf "aborted"
  | Txn_done -> Format.pp_print_string ppf "transaction already finished"

(* Every operation ends here: the policy ran inside the scheduler's
   step, so chase it with the WAL low-water mark, after the step's
   outcome record. *)
let finish db result =
  Storage.truncate db.storage;
  result

let begin_txn db =
  db.next_txn <- db.next_txn + 1;
  let id = db.next_txn in
  (match Cs.step db.sched (Step.Begin id) with
  | Si.Accepted -> ()
  | Si.Rejected | Si.Ignored | Si.Delayed ->
      (* BEGIN is always accepted by the preventive scheduler. *)
      assert false);
  Storage.begin_ db.storage ~txn:id;
  finish db { db; id; status = Running }

let read txn entity =
  match txn.status with
  | Done -> Error Txn_done
  | Running ->
      let db = txn.db in
      finish db
        (match Cs.step db.sched (Step.Read (txn.id, entity)) with
        | Si.Accepted ->
            Ok (Storage.read db.storage ~txn:txn.id ~entity).Dct_kv.Version_log.value
        | Si.Rejected | Si.Ignored ->
            txn.status <- Done;
            Error Aborted
        | Si.Delayed -> assert false (* the preventive scheduler never delays *))

let commit txn ~writes =
  match txn.status with
  | Done -> Error Txn_done
  | Running ->
      txn.status <- Done;
      let db = txn.db in
      (* Install before the deciding step: greedy-C1 can delete the
         transaction inside it, and its removal must find every version
         it wrote.  A rejection undoes them through the same removal. *)
      List.iter
        (fun (entity, value) -> Storage.write db.storage ~txn:txn.id ~entity ~value)
        writes;
      finish db
        (match Cs.step db.sched (Step.Write (txn.id, List.map fst writes)) with
        | Si.Accepted ->
            Storage.commit db.storage ~txn:txn.id;
            Ok ()
        | Si.Rejected | Si.Ignored -> Error Aborted
        | Si.Delayed -> assert false)

let abort txn =
  match txn.status with
  | Done -> ()
  | Running ->
      txn.status <- Done;
      Gs.abort_txn (Cs.graph_state txn.db.sched) txn.id;
      ignore (Cs.collect_garbage txn.db.sched);
      Storage.truncate txn.db.storage

exception Retry_internal

let with_txn db ~f =
  let rec attempt n =
    let txn = begin_txn db in
    let read_cb entity =
      match read txn entity with
      | Ok v -> v
      | Error _ -> raise Retry_internal
    in
    match f ~read:read_cb with
    | exception Retry_internal ->
        if n < db.config.max_retries then attempt (n + 1) else Error Aborted
    | exception e ->
        abort txn;
        raise e
    | writes -> (
        match commit txn ~writes with
        | Ok () -> Ok ()
        | Error _ when n < db.config.max_retries -> attempt (n + 1)
        | Error _ -> Error Aborted)
  in
  attempt 1

type stats = {
  committed : int;
  aborted : int;
  graph_resident : int;
  graph_deleted : int;
  wal_retained : int;
  wal_truncated : int;
}

let stats db =
  let s = Cs.stats db.sched in
  {
    committed = s.Si.committed_total;
    aborted = s.Si.aborted_total;
    graph_resident = s.Si.resident_txns;
    graph_deleted = s.Si.deleted_total;
    wal_retained =
      (match Storage.wal db.storage with Some w -> Wal.length w | None -> 0);
    wal_truncated =
      (match Storage.wal db.storage with Some w -> Wal.truncated w | None -> 0);
  }

let peek db entity = Store.peek (Storage.store db.storage) ~entity

let recover db ~checkpoint =
  match Storage.wal db.storage with
  | None -> invalid_arg "Db.recover: database is not durable"
  | Some w ->
      Wal.replay w ~into:checkpoint;
      checkpoint

let check_invariants db = Gs.check_invariants (Cs.graph_state db.sched)

let storage db = db.storage
