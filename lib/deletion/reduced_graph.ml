module Intset = Dct_graph.Intset
module Digraph = Dct_graph.Digraph

let delete gs ti =
  if not (Graph_state.mem_txn gs ti) then
    invalid_arg (Printf.sprintf "Reduced_graph.delete: T%d absent" ti);
  if not (Graph_state.is_completed gs ti) then
    invalid_arg (Printf.sprintf "Reduced_graph.delete: T%d not completed" ti);
  Graph_state.delete_with_bypass gs ti

let delete_set gs n = Intset.iter (fun ti -> delete gs ti) n

let is_reduced_graph_of gs schedule =
  let g = Graph_state.graph gs in
  let sched_txns = Dct_txn.Schedule.txns schedule in
  let present = Digraph.nodes g in
  if not (Dct_graph.Traversal.is_acyclic g) then Error "graph is cyclic"
  else if not (Intset.subset present sched_txns) then
    Error "graph has nodes outside the schedule"
  else begin
    (* Every conflicting pair of present transactions must have an arc in
       execution order.  Replay the schedule's entity histories. *)
    let cg = Dct_txn.Schedule.conflict_graph schedule in
    let missing = ref None in
    Digraph.iter_arcs
      (fun ~src ~dst ->
        if
          Intset.mem src present && Intset.mem dst present
          && not (Digraph.mem_arc g ~src ~dst)
        then missing := Some (src, dst))
      cg;
    match !missing with
    | Some (src, dst) ->
        Error (Printf.sprintf "missing conflict arc T%d -> T%d" src dst)
    | None -> Ok ()
  end
