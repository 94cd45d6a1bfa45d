module Intset = Dct_graph.Intset
module Digraph = Dct_graph.Digraph
module Access = Dct_txn.Access
module Step = Dct_txn.Step
module Transaction = Dct_txn.Transaction
module Gs = Dct_deletion.Graph_state
module C3 = Dct_deletion.Condition_c3
module Reduced = Dct_deletion.Reduced_graph
module Policy = Dct_deletion.Policy
module Dindex = Dct_deletion.Deletability_index
module Storage = Dct_kv.Storage

type deletion_mode = No_deletion | C3_exact of int

type t = {
  gs : Gs.t;
  deletion : deletion_mode;
  gc_index : Dindex.mode option;
      (* C3 is deliberately NOT incrementally indexable: its verdict
         ranges over dependency closures [M⁺], and a dependency edge far
         outside any tight neighbourhood can flip alive-filtering for a
         candidate, so no arc-bounded dirty region is sound (docs/gc.md
         has the counterexample shape).  [Incremental] therefore runs
         the naive decision; [Checked] additionally cross-checks
         {!C3.quick_reject} (the polynomial necessary test) against
         {!C3.holds} (the exponential exact one) on every candidate —
         the two-implementation differential this model does admit. *)
  storage : Storage.t;
      (* supplies read-from lineage; subscribed to [gs], so a cascade
         undoes and a C3 deletion forgets through the removal notice *)
  mutable steps : int;
  mutable committed : int;
  mutable aborted : int;
  mutable cascaded : int;
  mutable deleted : int;
}

let create ?(deletion = No_deletion) ?oracle ?tracer ?gc_index () =
  let gs = Gs.create ?oracle ?tracer () in
  let storage = Storage.create () in
  Scheduler_intf.attach_storage storage gs;
  {
    gs;
    deletion;
    gc_index;
    storage;
    steps = 0;
    committed = 0;
    aborted = 0;
    cascaded = 0;
    deleted = 0;
  }

let graph_state t = t.gs
let storage t = t.storage

let cascaded_total t = t.cascaded

(* Abort [txn] and everything depending on it. *)
let abort_cascade t txn =
  let doomed = Gs.dependents_closure t.gs (Intset.singleton txn) in
  Intset.iter (Gs.abort_txn t.gs) doomed;
  t.aborted <- t.aborted + Intset.cardinal doomed;
  t.cascaded <- t.cascaded + (Intset.cardinal doomed - 1)

(* Commit every finished transaction whose providers have all committed
   (or been committed-and-deleted — absent providers count as durable). *)
let try_commits t =
  let progress = ref true in
  while !progress do
    progress := false;
    Intset.iter
      (fun v ->
        if Gs.state t.gs v = Transaction.Finished then begin
          let blocking =
            Intset.filter
              (fun p -> Gs.mem_txn t.gs p && Gs.state t.gs p <> Transaction.Committed)
              (Gs.direct_deps t.gs v)
          in
          if Intset.is_empty blocking then begin
            Gs.set_state t.gs v Transaction.Committed;
            t.committed <- t.committed + 1;
            progress := true
          end
        end)
      (Gs.completed_txns t.gs)
  done

let committed_candidates t =
  Intset.filter
    (fun v -> Gs.state t.gs v = Transaction.Committed)
    (Gs.completed_txns t.gs)

let run_deletion t =
  match t.deletion with
  | No_deletion -> ()
  | C3_exact cap ->
      if Gs.active_count t.gs <= cap then begin
        let holds v =
          let ok = C3.holds t.gs v in
          (if t.gc_index = Some Dindex.Checked && C3.quick_reject t.gs v && ok
           then
             raise
               (Dindex.Divergence
                  (Printf.sprintf
                     "c3(T%d): quick_reject claims failure but exact \
                      enumeration holds"
                     v)));
          ok
        in
        let rec loop removed =
          match
            List.find_opt holds (Intset.elements (committed_candidates t))
          with
          | Some v ->
              Reduced.delete t.gs v;
              t.deleted <- t.deleted + 1;
              loop (Intset.add v removed)
          | None -> removed
        in
        let backend =
          match t.gc_index with
          | None -> "naive"
          | Some m -> Dindex.mode_name m
        in
        ignore
          (Policy.round (Gs.tracer t.gs) ~policy:"c3-exact"
             ~condition:(Some "c3") ~backend
             ~candidates:(fun () -> committed_candidates t)
             (fun () -> loop Intset.empty))
      end

let step t s =
  t.steps <- t.steps + 1;
  let txn = Step.txn s in
  if Gs.was_aborted t.gs txn then Scheduler_intf.Ignored
  else
    match s with
    | Step.Begin _ ->
        Gs.begin_txn t.gs txn;
        Storage.begin_ t.storage ~txn;
        Scheduler_intf.Accepted
    | Step.Read (_, x) ->
        let sources = Intset.remove txn (Gs.present_writers t.gs ~entity:x) in
        if Gs.would_cycle t.gs ~into:txn ~sources then begin
          abort_cascade t txn;
          try_commits t;
          Scheduler_intf.Rejected
        end
        else begin
          Intset.iter (fun src -> Gs.add_arc t.gs ~src ~dst:txn) sources;
          Gs.record_access t.gs ~txn ~entity:x ~mode:Access.Read;
          let version = Storage.read t.storage ~txn ~entity:x in
          (match version.Dct_kv.Version_log.writer with
          | Some w
            when Gs.mem_txn t.gs w
                 && Gs.state t.gs w <> Transaction.Committed ->
              Gs.add_dependency t.gs ~dependent:txn ~on_:w
          | Some _ | None -> ());
          Scheduler_intf.Accepted
        end
    | Step.Write_one (_, x) ->
        let sources = Intset.remove txn (Gs.present_accessors t.gs ~entity:x) in
        if Gs.would_cycle t.gs ~into:txn ~sources then begin
          abort_cascade t txn;
          try_commits t;
          Scheduler_intf.Rejected
        end
        else begin
          Intset.iter (fun src -> Gs.add_arc t.gs ~src ~dst:txn) sources;
          Gs.record_access t.gs ~txn ~entity:x ~mode:Access.Write;
          Storage.write t.storage ~txn ~entity:x ~value:t.steps;
          Scheduler_intf.Accepted
        end
    | Step.Finish _ ->
        Gs.set_state t.gs txn Transaction.Finished;
        try_commits t;
        run_deletion t;
        Scheduler_intf.Accepted
    | Step.Write _ | Step.Begin_declared _ ->
        invalid_arg "Multiwrite_scheduler.step: multi-write steps only"

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

let handle_of t =
  let name =
    match t.deletion with
    | No_deletion -> "multiwrite/none"
    | C3_exact cap -> Printf.sprintf "multiwrite/c3<=%d" cap
  in
  Scheduler_intf.trace_steps ~reject_reason:"cycle" (Gs.tracer t.gs)
    {
      Scheduler_intf.name;
      step = step t;
      stats = (fun () -> stats t);
      drain = (fun () -> 0);
      aborted_txn = (fun txn -> Gs.was_aborted t.gs txn);
    }

let handle ?deletion ?oracle ?tracer ?gc_index () =
  handle_of (create ?deletion ?oracle ?tracer ?gc_index ())
