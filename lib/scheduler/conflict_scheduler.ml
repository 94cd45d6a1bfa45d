module Intset = Dct_graph.Intset
module Digraph = Dct_graph.Digraph
module Step = Dct_txn.Step
module Gs = Dct_deletion.Graph_state
module Rules = Dct_deletion.Rules
module Policy = Dct_deletion.Policy
module Dindex = Dct_deletion.Deletability_index
module Storage = Dct_kv.Storage

type t = {
  gs : Gs.t;
  policy : Policy.t;
  index : Dindex.t option;
  storage : Storage.t option;
  mutable steps : int;
  mutable committed : int;
  mutable aborted : int;
  mutable deleted : int;
  mutable log : (int * Intset.t) list;
}

let create ?(policy = Policy.No_deletion) ?storage ?oracle ?tracer ?gc_index () =
  let gs = Gs.create ?oracle ?tracer () in
  let index = Option.map (fun mode -> Dindex.attach mode gs) gc_index in
  Option.iter (fun s -> Scheduler_intf.attach_storage s gs) storage;
  {
    gs;
    policy;
    index;
    storage;
    steps = 0;
    committed = 0;
    aborted = 0;
    deleted = 0;
    log = [];
  }

let graph_state t = t.gs

(* An accepted step's storage effects; a write installs a value derived
   from the step counter. *)
let apply_storage t storage = function
  | Step.Begin txn -> Storage.begin_ storage ~txn
  | Step.Read (txn, entity) -> ignore (Storage.read storage ~txn ~entity)
  | Step.Write (txn, xs) ->
      List.iter
        (fun entity -> Storage.write storage ~txn ~entity ~value:t.steps)
        xs;
      Storage.commit storage ~txn
  | Step.Begin_declared _ | Step.Write_one _ | Step.Finish _ -> ()

(* Run the policy and end the step: the storage saw every removal
   through its subscription; truncate its log, after every outcome. *)
let collect_garbage t =
  let deleted = Policy.run ?index:t.index t.policy t.gs in
  if not (Intset.is_empty deleted) then begin
    t.deleted <- t.deleted + Intset.cardinal deleted;
    t.log <- (t.steps, deleted) :: t.log
  end;
  Option.iter Storage.truncate t.storage;
  deleted

let step t s =
  t.steps <- t.steps + 1;
  match Rules.apply t.gs s with
  | Rules.Ignored -> Scheduler_intf.Ignored
  | Rules.Rejected ->
      t.aborted <- t.aborted + 1;
      (* An abort removes an active transaction, which can only enlarge
         the eligible set — give the policy a chance right away. *)
      ignore (collect_garbage t);
      Scheduler_intf.Rejected
  | Rules.Accepted ->
      (match t.storage with
      | Some storage -> apply_storage t storage s
      | None -> ());
      if Step.completes_basic s then t.committed <- t.committed + 1;
      ignore (collect_garbage t);
      Scheduler_intf.Accepted

let stats t =
  {
    Scheduler_intf.resident_txns = Gs.txn_count t.gs;
    resident_arcs = Digraph.arc_count (Gs.graph t.gs);
    active_txns = Gs.active_count t.gs;
    committed_total = t.committed;
    aborted_total = t.aborted;
    deleted_total = t.deleted;
    delayed_now = 0;
    resident_bytes = Gs.resident_bytes t.gs;
  }

let deleted_log t = List.rev t.log

let handle_of t =
  Scheduler_intf.trace_steps ~reject_reason:"cycle" (Gs.tracer t.gs)
    {
      Scheduler_intf.name = Printf.sprintf "sgt/%s" (Policy.name t.policy);
      step = step t;
      stats = (fun () -> stats t);
      drain = (fun () -> 0);
      aborted_txn = (fun txn -> Gs.was_aborted t.gs txn);
    }

let handle ?policy ?storage ?oracle ?tracer ?gc_index () =
  handle_of (create ?policy ?storage ?oracle ?tracer ?gc_index ())
