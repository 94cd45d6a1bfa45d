module Intset = Dct_graph.Intset

type t = {
  store : Store.t;
  wal : Wal.t option;
  footprints : (int, Intset.t) Hashtbl.t;
      (* live txn -> the entities it read or wrote here: what its
         removal visits in the store; an entry dies with its removal *)
  resident : int -> bool; (* membership in [footprints], made once *)
}

let create ?default ?wal () =
  let footprints = Hashtbl.create 64 in
  { store = Store.create ?default (); wal; footprints; resident = Hashtbl.mem footprints }

let store t = t.store
let wal t = t.wal
let footprints t = Hashtbl.length t.footprints

let journal t record =
  match t.wal with None -> () | Some w -> ignore (Wal.append w record)

let footprint t txn =
  Option.value ~default:Intset.empty (Hashtbl.find_opt t.footprints txn)

let touch t txn entity =
  Hashtbl.replace t.footprints txn (Intset.add entity (footprint t txn))

let begin_ t ~txn =
  Hashtbl.replace t.footprints txn Intset.empty;
  journal t (Wal.Begin { txn })

let read t ~txn ~entity =
  touch t txn entity;
  Store.read t.store ~entity ~reader:txn

let write t ~txn ~entity ~value =
  touch t txn entity;
  Store.write t.store ~entity ~writer:txn ~value;
  journal t (Wal.Write { txn; entity; value })

let commit t ~txn = journal t (Wal.Commit { txn })

let remove t ~txn ~aborted =
  let entities = footprint t txn in
  Hashtbl.remove t.footprints txn;
  if aborted then begin
    Store.undo_writes t.store ~txn ~entities;
    journal t (Wal.Abort { txn })
  end
  else Store.forget_txn t.store ~txn ~entities

let truncate t =
  match t.wal with
  | None -> ()
  | Some w -> ignore (Wal.truncate_to w ~resident:t.resident)
