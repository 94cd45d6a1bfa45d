module Intset = Dct_graph.Intset
module Digraph = Dct_graph.Digraph
module Step = Dct_txn.Step
module Gs = Dct_deletion.Graph_state
module Rules = Dct_deletion.Rules
module Policy = Dct_deletion.Policy
module Dindex = Dct_deletion.Deletability_index

type t = {
  gs : Gs.t;
  policy : Policy.t;
  index : Dindex.t option;
  store : Dct_kv.Store.t option;
  wal : Dct_kv.Wal.t option;
  mutable steps : int;
  mutable committed : int;
  mutable aborted : int;
  mutable deleted : int;
  mutable log : (int * Intset.t) list;
}

let create ?(policy = Policy.No_deletion) ?store ?wal ?oracle ?tracer ?gc_index
    () =
  let gs = Gs.create ?oracle ?tracer () in
  let index = Option.map (fun mode -> Dindex.attach mode gs) gc_index in
  {
    gs;
    policy;
    index;
    store;
    wal;
    steps = 0;
    committed = 0;
    aborted = 0;
    deleted = 0;
    log = [];
  }

let graph_state t = t.gs

let log t record =
  match t.wal with
  | None -> ()
  | Some wal -> ignore (Dct_kv.Wal.append wal record)

let truncate_log t =
  match t.wal with
  | None -> ()
  | Some wal ->
      ignore (Dct_kv.Wal.truncate_to wal ~resident:(fun txn -> Gs.mem_txn t.gs txn))

let apply_store t step =
  match t.store with
  | None -> ()
  | Some store -> (
      match step with
      | Step.Read (txn, x) -> ignore (Dct_kv.Store.read store ~entity:x ~reader:txn)
      | Step.Write (txn, xs) ->
          List.iter
            (fun x -> Dct_kv.Store.write store ~entity:x ~writer:txn ~value:t.steps)
            xs
      | Step.Begin _ | Step.Begin_declared _ | Step.Write_one _ | Step.Finish _
        -> ())

let step t s =
  t.steps <- t.steps + 1;
  match Rules.apply t.gs s with
  | Rules.Ignored -> Scheduler_intf.Ignored
  | Rules.Rejected ->
      t.aborted <- t.aborted + 1;
      (match t.store with
      | Some store -> Dct_kv.Store.undo_writes store ~txn:(Step.txn s)
      | None -> ());
      log t (Dct_kv.Wal.Abort { txn = Step.txn s });
      (* An abort removes an active transaction, which can only enlarge
         the eligible set — give the policy a chance right away. *)
      let deleted = Policy.run ?index:t.index t.policy t.gs in
      if not (Intset.is_empty deleted) then begin
        t.deleted <- t.deleted + Intset.cardinal deleted;
        t.log <- (t.steps, deleted) :: t.log
      end;
      truncate_log t;
      Scheduler_intf.Rejected
  | Rules.Accepted ->
      apply_store t s;
      (match s with
      | Step.Begin txn -> log t (Dct_kv.Wal.Begin { txn })
      | Step.Write (txn, xs) ->
          List.iter
            (fun entity ->
              log t (Dct_kv.Wal.Write { txn; entity; value = t.steps }))
            xs;
          log t (Dct_kv.Wal.Commit { txn })
      | Step.Read _ | Step.Begin_declared _ | Step.Write_one _ | Step.Finish _
        -> ());
      if Step.completes_basic s then t.committed <- t.committed + 1;
      let deleted = Policy.run ?index:t.index t.policy t.gs in
      if not (Intset.is_empty deleted) then begin
        t.deleted <- t.deleted + Intset.cardinal deleted;
        t.log <- (t.steps, deleted) :: t.log;
        truncate_log t
      end;
      Scheduler_intf.Accepted

let stats t =
  {
    Scheduler_intf.resident_txns = Gs.txn_count t.gs;
    resident_arcs = Digraph.arc_count (Gs.graph t.gs);
    active_txns = Intset.cardinal (Gs.active_txns t.gs);
    committed_total = t.committed;
    aborted_total = t.aborted;
    deleted_total = t.deleted;
    delayed_now = 0;
    resident_bytes = Gs.resident_bytes t.gs;
  }

let collect_garbage t =
  let deleted = Policy.run ?index:t.index t.policy t.gs in
  if not (Intset.is_empty deleted) then begin
    t.deleted <- t.deleted + Intset.cardinal deleted;
    t.log <- (t.steps, deleted) :: t.log;
    truncate_log t
  end;
  deleted

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

let handle ?policy ?store ?wal ?oracle ?tracer ?gc_index () =
  handle_of (create ?policy ?store ?wal ?oracle ?tracer ?gc_index ())
