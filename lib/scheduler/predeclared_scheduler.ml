module Intset = Dct_graph.Intset
module Digraph = Dct_graph.Digraph
module Access = Dct_txn.Access
module Step = Dct_txn.Step
module Transaction = Dct_txn.Transaction
module Gs = Dct_deletion.Graph_state
module C4 = Dct_deletion.Condition_c4
module Reduced = Dct_deletion.Reduced_graph
module Policy = Dct_deletion.Policy
module Dindex = Dct_deletion.Deletability_index

type pending = { entity : int; mode : Access.mode }

type t = {
  gs : Gs.t;
  use_c4 : bool;
  index : Dindex.t option; (* C4-flavoured deletability index *)
  queues : (int, pending Queue.t) Hashtbl.t; (* txn -> delayed steps, FIFO *)
  mutable steps : int;
  mutable committed : int;
  mutable deleted : int;
  mutable delayed_events : int;
  mutable exec_log : Step.t list; (* executed data steps, newest first *)
}

let create ?(use_c4_deletion = false) ?oracle ?tracer ?gc_index () =
  let gs = Gs.create ?oracle ?tracer () in
  let index =
    if use_c4_deletion then
      Option.map (fun mode -> Dindex.attach ~cond:Dindex.C4 mode gs) gc_index
    else None
  in
  {
    gs;
    use_c4 = use_c4_deletion;
    index;
    queues = Hashtbl.create 16;
    steps = 0;
    committed = 0;
    deleted = 0;
    delayed_events = 0;
    exec_log = [];
  }

let graph_state t = t.gs

let queue_of t txn =
  match Hashtbl.find_opt t.queues txn with
  | Some q -> q
  | None ->
      let q = Queue.create () in
      Hashtbl.replace t.queues txn q;
      q

let pending t =
  Hashtbl.fold (fun _ q acc -> acc + Queue.length q) t.queues 0

(* Transactions that will, per their declaration, later perform a step
   conflicting with an access of [mode] on [entity]. *)
let future_conflicters t ~txn ~entity ~mode =
  Intset.filter
    (fun tk ->
      tk <> txn
      && Gs.is_active t.gs tk
      &&
      match
        Access.find (Transaction.future_accesses (Gs.txn t.gs tk)) ~entity
      with
      | Some m -> Access.conflict m mode
      | None -> false)
    (Gs.active_txns t.gs)

let run_c4 t =
  if t.use_c4 then begin
    (* Smallest C4-eligible id first, repeatedly — the naive scan and
       the index agree on this pick by construction. *)
    let next () =
      match t.index with
      | Some idx ->
          let m = Dindex.eligible idx in
          if Intset.is_empty m then None else Some (Intset.min_elt m)
      | None ->
          List.find_opt (fun v -> C4.holds t.gs v)
            (Intset.elements (Gs.completed_txns t.gs))
    in
    let rec loop removed =
      match next () with
      | Some v ->
          Reduced.delete t.gs v;
          t.deleted <- t.deleted + 1;
          loop (Intset.add v removed)
      | None -> removed
    in
    let backend =
      match t.index with
      | None -> "naive"
      | Some idx -> Dindex.mode_name (Dindex.mode idx)
    in
    ignore
      (Policy.round (Gs.tracer t.gs) ~policy:"c4" ~condition:(Some "c4")
         ~backend
         ~candidates:(fun () -> Gs.completed_txns t.gs)
         (fun () -> loop Intset.empty))
  end

(* Attempt one data step; [true] if executed, [false] if it must wait. *)
let try_data_step t txn entity mode =
  let targets = future_conflicters t ~txn ~entity ~mode in
  let blocked =
    Intset.exists
      (fun tk -> tk = txn || Gs.reaches t.gs ~src:tk ~dst:txn)
      targets
  in
  if blocked then false
  else begin
    Intset.iter (fun tk -> Gs.add_arc t.gs ~src:txn ~dst:tk) targets;
    Gs.record_access t.gs ~txn ~entity ~mode;
    t.exec_log <-
      (match mode with
      | Access.Read -> Step.Read (txn, entity)
      | Access.Write -> Step.Write_one (txn, entity))
      :: t.exec_log;
    if Access.is_empty (Transaction.future_accesses (Gs.txn t.gs txn)) then begin
      Gs.set_state t.gs txn Transaction.Committed;
      t.committed <- t.committed + 1;
      run_c4 t
    end;
    true
  end

(* Retry queued steps until nothing moves. *)
let rec retry_pending t =
  let progress = ref false in
  Hashtbl.iter
    (fun txn q ->
      let continue_txn = ref true in
      while !continue_txn && not (Queue.is_empty q) do
        let p = Queue.peek q in
        if try_data_step t txn p.entity p.mode then begin
          ignore (Queue.pop q);
          progress := true
        end
        else continue_txn := false
      done)
    t.queues;
  if !progress then retry_pending t

let drain t =
  let before = pending t in
  retry_pending t;
  before - pending t

let execution_log t = List.rev t.exec_log

let check_declared t txn entity mode =
  match (Gs.txn t.gs txn).Transaction.declared with
  | None -> invalid_arg "Predeclared_scheduler: transaction has no declaration"
  | Some d -> (
      match Access.find d ~entity with
      | Some m when Access.at_least_as_strong m mode -> ()
      | Some _ | None ->
          invalid_arg
            (Printf.sprintf
               "Predeclared_scheduler: T%d step on entity %d outside declaration"
               txn entity))

let submit t txn entity mode =
  check_declared t txn entity mode;
  let q = queue_of t txn in
  if not (Queue.is_empty q) then begin
    (* Program order: queue behind the transaction's waiting steps. *)
    Queue.push { entity; mode } q;
    t.delayed_events <- t.delayed_events + 1;
    Scheduler_intf.Delayed
  end
  else if try_data_step t txn entity mode then begin
    retry_pending t;
    Scheduler_intf.Accepted
  end
  else begin
    Queue.push { entity; mode } q;
    t.delayed_events <- t.delayed_events + 1;
    Scheduler_intf.Delayed
  end

let step t s =
  t.steps <- t.steps + 1;
  match s with
  | Step.Begin_declared (txn, declared) ->
      Gs.begin_txn t.gs txn ~declared;
      (* Rule 1': arcs from every executed step conflicting with a
         declared future step of [txn]. *)
      Access.iter
        (fun ~entity ~mode ->
          List.iter
            (fun (tk, m, _) ->
              if tk <> txn && Access.conflict m mode then
                Gs.add_arc t.gs ~src:tk ~dst:txn)
            (Gs.access_history t.gs ~entity))
        declared;
      Scheduler_intf.Accepted
  | Step.Read (txn, x) -> submit t txn x Access.Read
  | Step.Write_one (txn, x) -> submit t txn x Access.Write
  | Step.Finish _ ->
      (* Completion is implied by executing the whole declaration. *)
      Scheduler_intf.Ignored
  | Step.Begin _ | Step.Write _ ->
      invalid_arg "Predeclared_scheduler.step: declared steps only"

let stats t =
  {
    Scheduler_intf.resident_txns = Gs.txn_count t.gs;
    resident_arcs = Digraph.arc_count (Gs.graph t.gs);
    active_txns = Intset.cardinal (Gs.active_txns t.gs);
    committed_total = t.committed;
    aborted_total = 0;
    deleted_total = t.deleted;
    delayed_now = pending t;
    resident_bytes = Gs.resident_bytes t.gs;
  }

let handle_of t =
  Scheduler_intf.trace_steps ~ignore_reason:"declaration-complete"
    (Gs.tracer t.gs)
    {
      Scheduler_intf.name =
        (if t.use_c4 then "predeclared/c4" else "predeclared/none");
      step = step t;
      stats = (fun () -> stats t);
      drain = (fun () -> drain t);
      aborted_txn = (fun _ -> false);
    }

let handle ?use_c4_deletion ?oracle ?tracer ?gc_index () =
  handle_of (create ?use_c4_deletion ?oracle ?tracer ?gc_index ())
