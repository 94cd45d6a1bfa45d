module Intset = Dct_graph.Intset
module Digraph = Dct_graph.Digraph
module Gs = Dct_deletion.Graph_state
module Rules = Dct_deletion.Rules
module Policy = Dct_deletion.Policy
module Dindex = Dct_deletion.Deletability_index

type t = {
  gs : Gs.t;
  policy : Policy.t;
  index : Dindex.t option;
  mutable resident_hwm : int;
  mutable deleted_total : int;
}

let create ~policy ?oracle ?tracer ?gc_index () =
  let gs = Gs.create ?oracle ?tracer () in
  let index = Option.map (fun mode -> Dindex.attach mode gs) gc_index in
  { gs; policy; index; resident_hwm = 0; deleted_total = 0 }

let note_residency t =
  t.resident_hwm <- max t.resident_hwm (Gs.txn_count t.gs)

let decide t step =
  let outcome = Rules.apply t.gs step in
  note_residency t;
  outcome

let collect_garbage t =
  let deleted = Policy.run ?index:t.index t.policy t.gs in
  t.deleted_total <- t.deleted_total + Intset.cardinal deleted;
  deleted

let graph_state t = t.gs
let policy t = t.policy

type stats = {
  resident_txns : int;
  resident_arcs : int;
  active_txns : int;
  resident_hwm : int;
  deleted_total : int;
  resident_bytes : int;
}

let stats t =
  note_residency t;
  {
    resident_txns = Gs.txn_count t.gs;
    resident_arcs = Digraph.arc_count (Gs.graph t.gs);
    active_txns = Gs.active_count t.gs;
    resident_hwm = t.resident_hwm;
    deleted_total = t.deleted_total;
    resident_bytes = Gs.resident_bytes t.gs;
  }
