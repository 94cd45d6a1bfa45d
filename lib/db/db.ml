module Step = Dct_txn.Step
module Si = Dct_sched.Scheduler_intf
module Cs = Dct_sched.Conflict_scheduler
module Gs = Dct_deletion.Graph_state
module Policy = Dct_deletion.Policy
module Store = Dct_kv.Store
module Wal = Dct_kv.Wal

type config = {
  policy : Policy.t;
  durable : bool;
  max_retries : int;
  default_value : int;
}

let default_config =
  { policy = Policy.Greedy_c1; durable = true; max_retries = 8; default_value = 0 }

(* The database owns the store and the WAL itself (rather than passing
   them to the scheduler) so that journalled values are the caller's
   actual values, not scheduler-internal placeholders. *)
type t = {
  config : config;
  sched : Cs.t;
  store_ : Store.t;
  wal_ : Wal.t option;
  mutable next_txn : int;
}

let open_ ?(config = default_config) () =
  {
    config;
    sched = Cs.create ~policy:config.policy ();
    store_ = Store.create ~default:config.default_value ();
    wal_ = (if config.durable then Some (Wal.create ()) else None);
    next_txn = 0;
  }

let journal db record =
  match db.wal_ with
  | None -> ()
  | Some w -> ignore (Wal.append w record)

(* The deletion policy runs inside the scheduler after accepted steps;
   chase it with the WAL low-water mark. *)
let truncate_wal db =
  match db.wal_ with
  | None -> ()
  | Some w ->
      ignore
        (Wal.truncate_to w ~resident:(fun txn ->
             Gs.mem_txn (Cs.graph_state db.sched) txn))

type status = Running | Done

type txn = { db : t; id : int; mutable status : status }

type error = Aborted | Txn_done

(* A transaction's accesses so far, read while it is still in the
   scheduler's graph state: what an abort must clear from the store
   (its reader marks; its writes, if any were installed). *)
let footprint txn =
  let gs = Cs.graph_state txn.db.sched in
  if Gs.mem_txn gs txn.id then Gs.accesses gs txn.id else Dct_txn.Access.empty

let undo txn footprint =
  Store.undo_writes txn.db.store_ ~txn:txn.id
    ~entities:(Dct_txn.Access.entities footprint)

let pp_error ppf = function
  | Aborted -> Format.pp_print_string ppf "aborted"
  | Txn_done -> Format.pp_print_string ppf "transaction already finished"

let begin_txn db =
  db.next_txn <- db.next_txn + 1;
  let id = db.next_txn in
  (match Cs.step db.sched (Step.Begin id) with
  | Si.Accepted -> ()
  | Si.Rejected | Si.Ignored | Si.Delayed ->
      (* BEGIN is always accepted by the preventive scheduler. *)
      assert false);
  journal db (Wal.Begin { txn = id });
  { db; id; status = Running }

let read txn entity =
  match txn.status with
  | Done -> Error Txn_done
  | Running -> (
      let before = footprint txn in
      match Cs.step txn.db.sched (Step.Read (txn.id, entity)) with
      | Si.Accepted ->
          Ok (Store.read txn.db.store_ ~entity ~reader:txn.id).Dct_kv.Version_log.value
      | Si.Rejected | Si.Ignored ->
          txn.status <- Done;
          undo txn before;
          journal txn.db (Wal.Abort { txn = txn.id });
          truncate_wal txn.db;
          Error Aborted
      | Si.Delayed -> assert false (* the preventive scheduler never delays *))

let commit txn ~writes =
  match txn.status with
  | Done -> Error Txn_done
  | Running -> (
      txn.status <- Done;
      let before = footprint txn in
      let entities = List.map fst writes in
      match Cs.step txn.db.sched (Step.Write (txn.id, entities)) with
      | Si.Accepted ->
          List.iter
            (fun (entity, value) ->
              Store.write txn.db.store_ ~entity ~writer:txn.id ~value;
              journal txn.db (Wal.Write { txn = txn.id; entity; value }))
            writes;
          journal txn.db (Wal.Commit { txn = txn.id });
          truncate_wal txn.db;
          Ok ()
      | Si.Rejected | Si.Ignored ->
          undo txn before;
          journal txn.db (Wal.Abort { txn = txn.id });
          truncate_wal txn.db;
          Error Aborted
      | Si.Delayed -> assert false)

let abort txn =
  match txn.status with
  | Done -> ()
  | Running ->
      txn.status <- Done;
      undo txn (footprint txn);
      Gs.abort_txn (Cs.graph_state txn.db.sched) txn.id;
      ignore (Cs.collect_garbage txn.db.sched);
      journal txn.db (Wal.Abort { txn = txn.id });
      truncate_wal txn.db

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
    wal_retained = (match db.wal_ with Some w -> Wal.length w | None -> 0);
    wal_truncated = (match db.wal_ with Some w -> Wal.truncated w | None -> 0);
  }

let peek db entity = Store.peek db.store_ ~entity

let recover db ~checkpoint =
  match db.wal_ with
  | None -> invalid_arg "Db.recover: database is not durable"
  | Some w ->
      Wal.replay w ~into:checkpoint;
      checkpoint

let check_invariants db = Gs.check_invariants (Cs.graph_state db.sched)

let wal db = db.wal_
let store db = db.store_
