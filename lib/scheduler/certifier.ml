module Intset = Dct_graph.Intset
module Digraph = Dct_graph.Digraph
module Access = Dct_txn.Access
module Step = Dct_txn.Step
module Transaction = Dct_txn.Transaction
module Gs = Dct_deletion.Graph_state
module Policy = Dct_deletion.Policy

type t = {
  gs : Gs.t;
  mutable steps : int;
  mutable committed : int;
  mutable aborted : int;
  mutable deleted : int;
}

let create ?oracle ?tracer () =
  let gs = Gs.create ?oracle ?tracer () in
  { gs; steps = 0; committed = 0; aborted = 0; deleted = 0 }

let copy t = { t with gs = Gs.copy t.gs }

let graph_state t = t.gs

(* Certification arcs for [txn]: for every other present transaction
   that conflicts on some entity, an arc oriented by the recorded access
   order.  Returns (incoming sources, outgoing targets). *)
let certification_arcs t txn =
  let acc = Gs.accesses t.gs txn in
  let into = ref Intset.empty and out_of = ref Intset.empty in
  Access.iter
    (fun ~entity ~mode:_ ->
      let history = Gs.access_history t.gs ~entity in
      let mine =
        List.filter_map
          (fun (id, m, seq) -> if id = txn then Some (m, seq) else None)
          history
      in
      List.iter
        (fun (id, m', seq') ->
          if id <> txn then
            List.iter
              (fun (m, seq) ->
                if Access.conflict m m' then
                  if seq' < seq then into := Intset.add id !into
                  else out_of := Intset.add id !out_of)
              mine)
        history)
    acc;
  (!into, !out_of)

let certify t txn =
  let into, out_of = certification_arcs t txn in
  (* Any new cycle must pass through [txn].  Its in- and out-neighbours
     are the history-derived arcs PLUS arcs already materialised in the
     graph: earlier certifications add arcs incident to still-active
     transactions, and deletions add bypass arcs while purging history —
     ignoring the materialised ones is unsound once a deletion policy
     runs (a bug this implementation had; caught by the generic safety
     oracle, see test_online_reduction.ml). *)
  let g = Gs.graph t.gs in
  let targets = Intset.union out_of (Digraph.succs g txn) in
  let sources = Intset.union into (Digraph.preds g txn) in
  let conflict_cycle =
    (not (Intset.is_empty (Intset.inter targets sources)))
    || Intset.exists
         (fun target -> Gs.reaches_any t.gs ~src:target ~dsts:sources)
         targets
  in
  if conflict_cycle then begin
    Gs.abort_txn t.gs txn;
    false
  end
  else begin
    Intset.iter (fun s -> Gs.add_arc t.gs ~src:s ~dst:txn) into;
    Intset.iter (fun d -> Gs.add_arc t.gs ~src:txn ~dst:d) out_of;
    Gs.set_state t.gs txn Transaction.Committed;
    true
  end

let unsafe_step_with_policy t policy s =
  t.steps <- t.steps + 1;
  let txn = Step.txn s in
  if Gs.was_aborted t.gs txn then Scheduler_intf.Ignored
  else
    match s with
    | Step.Begin _ ->
        Gs.begin_txn t.gs txn;
        Scheduler_intf.Accepted
    | Step.Read (_, x) ->
        Gs.record_access t.gs ~txn ~entity:x ~mode:Access.Read;
        Scheduler_intf.Accepted
    | Step.Write (_, xs) ->
        List.iter
          (fun x -> Gs.record_access t.gs ~txn ~entity:x ~mode:Access.Write)
          xs;
        if certify t txn then begin
          t.committed <- t.committed + 1;
          t.deleted <-
            t.deleted
            + Intset.cardinal (Policy.run policy t.gs);
          Scheduler_intf.Accepted
        end
        else begin
          t.aborted <- t.aborted + 1;
          Scheduler_intf.Rejected
        end
    | Step.Begin_declared _ | Step.Write_one _ | Step.Finish _ ->
        invalid_arg "Certifier.step: basic-model steps only"

let step t s = unsafe_step_with_policy t Policy.No_deletion s

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

let handle ?oracle ?tracer () =
  let t = create ?oracle ?tracer () in
  Scheduler_intf.trace_steps ~reject_reason:"certification-conflict-cycle"
    (Gs.tracer t.gs)
    {
      Scheduler_intf.name = "certifier";
      step = step t;
      stats = (fun () -> stats t);
      drain = (fun () -> 0);
      aborted_txn = (fun txn -> Gs.was_aborted t.gs txn);
    }
