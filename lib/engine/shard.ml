module Intset = Dct_graph.Intset
module Digraph = Dct_graph.Digraph
module Gs = Dct_deletion.Graph_state
module Policy = Dct_deletion.Policy
module Dindex = Dct_deletion.Deletability_index
module Access = Dct_txn.Access
module Transaction = Dct_txn.Transaction
module Wal = Dct_kv.Wal
module Storage = Dct_kv.Storage

type t = {
  id : int;
  gs : Gs.t;
  storage : Storage.t; (* store, WAL and footprints; follows [gs] *)
  policy : Policy.t;
  index : Dindex.t option;
      (* per-shard index over the projected graph — projections are
         small, so dirty regions are too (the sharded sweet spot) *)
  mutable last_arcs : (int * int) list;
  mutable resident_hwm : int;
  mutable hosted_total : int;
  mutable committed : int;
  mutable aborted : int;
  mutable deleted_local : int;
  mutable deleted_forced : int;
}

(* Shard graph states are projections kept for GC and accounting; they
   use the default oracle and carry no tracer, so the engine's trace is
   exactly the coordinator's (single-node-shaped) trace. *)
let create ~id ~policy ?gc_index () =
  let gs = Gs.create () in
  let index = Option.map (fun mode -> Dindex.attach mode gs) gc_index in
  let storage = Storage.create ~wal:(Wal.create ()) () in
  Dct_sched.Scheduler_intf.attach_storage storage gs;
  {
    id;
    gs;
    storage;
    policy;
    index;
    last_arcs = [];
    resident_hwm = 0;
    hosted_total = 0;
    committed = 0;
    aborted = 0;
    deleted_local = 0;
    deleted_forced = 0;
  }

let id t = t.id
let graph_state t = t.gs
let storage t = t.storage
let store t = Storage.store t.storage
let wal t = Option.get (Storage.wal t.storage) (* made with one *)
let hosts t txn = Gs.mem_txn t.gs txn
let last_arcs t = t.last_arcs

let note_residency t =
  t.resident_hwm <- max t.resident_hwm (Gs.txn_count t.gs)

let host t txn =
  if not (Gs.mem_txn t.gs txn) then begin
    Gs.begin_txn t.gs txn;
    t.hosted_total <- t.hosted_total + 1;
    Storage.begin_ t.storage ~txn;
    note_residency t
  end

(* Local arcs are always safe to add: the coordinator accepted the step,
   so no global path [txn ~> src] exists, and local connectivity (real
   arcs are a subset of global ones; bypass arcs only preserve existing
   local paths) is a subset of global connectivity.  The shard's Topo
   oracle enforces this: a cycle-closing arc raises in [Gs.add_arc]. *)
let add_arcs t ~into sources =
  Intset.iter
    (fun src ->
      Gs.add_arc t.gs ~src ~dst:into;
      t.last_arcs <- (src, into) :: t.last_arcs)
    sources

let apply_read t ~txn ~entity =
  t.last_arcs <- [];
  host t txn;
  let sources = Intset.remove txn (Gs.present_writers t.gs ~entity) in
  add_arcs t ~into:txn sources;
  Gs.record_access t.gs ~txn ~entity ~mode:Access.Read;
  ignore (Storage.read t.storage ~txn ~entity)

let apply_write t ~txn ~entities ~value =
  t.last_arcs <- [];
  host t txn;
  let sources =
    List.fold_left
      (fun acc entity ->
        Intset.union acc (Gs.present_accessors t.gs ~entity))
      Intset.empty entities
    |> Intset.remove txn
  in
  add_arcs t ~into:txn sources;
  List.iter
    (fun entity ->
      Gs.record_access t.gs ~txn ~entity ~mode:Access.Write;
      Storage.write t.storage ~txn ~entity ~value)
    entities

let complete t txn =
  if Gs.mem_txn t.gs txn && Gs.is_active t.gs txn then begin
    Gs.set_state t.gs txn Transaction.Committed;
    t.committed <- t.committed + 1;
    Storage.commit t.storage ~txn
  end

(* The removals below reach the store through the storage's
   subscription; each ends by truncating the log. *)
let abort t txn =
  if Gs.mem_txn t.gs txn then begin
    Gs.abort_txn t.gs txn;
    t.aborted <- t.aborted + 1;
    Storage.truncate t.storage
  end

let collect_garbage t =
  let deleted = Policy.run ?index:t.index t.policy t.gs in
  t.deleted_local <- t.deleted_local + Intset.cardinal deleted;
  Storage.truncate t.storage;
  deleted

let apply_global_deletions t global =
  let applied =
    Intset.filter
      (fun txn -> Gs.mem_txn t.gs txn && Gs.is_completed t.gs txn)
      global
  in
  Intset.iter (Gs.delete_with_bypass t.gs) applied;
  t.deleted_forced <- t.deleted_forced + Intset.cardinal applied;
  Storage.truncate t.storage;
  applied

type stats = {
  resident_txns : int;
  resident_arcs : int;
  active_txns : int;
  resident_hwm : int;
  hosted_total : int;
  committed : int;
  aborted : int;
  deleted_local : int;
  deleted_forced : int;
  store_versions : int;
  wal_retained : int;
  wal_truncated : int;
  resident_bytes : int;
}

let stats t =
  note_residency t;
  {
    resident_txns = Gs.txn_count t.gs;
    resident_arcs = Digraph.arc_count (Gs.graph t.gs);
    active_txns = Gs.active_count t.gs;
    resident_hwm = t.resident_hwm;
    hosted_total = t.hosted_total;
    committed = t.committed;
    aborted = t.aborted;
    deleted_local = t.deleted_local;
    deleted_forced = t.deleted_forced;
    store_versions = Dct_kv.Store.total_versions (store t);
    wal_retained = Wal.length (wal t);
    wal_truncated = Wal.truncated (wal t);
    resident_bytes = Gs.resident_bytes t.gs;
  }
