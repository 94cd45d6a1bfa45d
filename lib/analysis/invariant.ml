module Intset = Dct_graph.Intset
module Digraph = Dct_graph.Digraph
module Traversal = Dct_graph.Traversal
module Cycle_oracle = Dct_graph.Cycle_oracle
module Gs = Dct_deletion.Graph_state
module Rules = Dct_deletion.Rules
module Policy = Dct_deletion.Policy
module Step = Dct_txn.Step
module Si = Dct_sched.Scheduler_intf

type violation = { name : string; detail : string }

let violation_names =
  [
    "node-without-record";
    "record-without-node";
    "arc-endpoint-dead";
    "adjacency-mirror";
    "cyclic-graph";
    "completed-not-in-graph";
    "deleted-resurrected";
    "aborted-resurrected";
    "closure-nodes";
    "closure-divergence";
    "stale-current-accessor";
    "internal-state";
  ]

let v name fmt = Printf.ksprintf (fun detail -> { name; detail }) fmt

let check gs =
  let g = Gs.graph gs in
  let nodes = Digraph.nodes g in
  let records = Gs.all_txns gs in
  let out = ref [] in
  let add x = out := x :: !out in
  Intset.iter
    (fun n ->
      if not (Intset.mem n records) then
        add (v "node-without-record" "graph node T%d has no transaction record" n))
    nodes;
  Intset.iter
    (fun n ->
      if not (Intset.mem n nodes) then
        add
          (v "record-without-node" "transaction record T%d is missing from the graph"
             n))
    records;
  Digraph.iter_arcs
    (fun ~src ~dst ->
      if not (Gs.mem_txn gs src) then
        add
          (v "arc-endpoint-dead" "arc T%d -> T%d: source is not a live transaction"
             src dst);
      if not (Gs.mem_txn gs dst) then
        add
          (v "arc-endpoint-dead"
             "arc T%d -> T%d: destination is not a live transaction" src dst))
    g;
  (* Mirror check in slot space: allocation-free row probes instead of
     materialising one succ and one pred Intset per node. *)
  Intset.iter
    (fun n ->
      match Digraph.slot_of g n with
      | None -> ()
      | Some ns ->
          Digraph.iter_succ_slots
            (fun ss ->
              if not (Digraph.mem_pred_slot g ~dst:ss ~src:ns) then
                add
                  (v "adjacency-mirror"
                     "arc T%d -> T%d is in the successor index but not the \
                      predecessor index"
                     n (Digraph.id_of_slot g ss)))
            g ns;
          Digraph.iter_pred_slots
            (fun ps ->
              if not (Digraph.mem_arc_slots g ~src:ps ~dst:ns) then
                add
                  (v "adjacency-mirror"
                     "arc T%d -> T%d is in the predecessor index but not the \
                      successor index"
                     (Digraph.id_of_slot g ps) n))
            g ns)
    nodes;
  if not (Traversal.is_acyclic g) then
    add
      (v "cyclic-graph" "the reduced graph contains a cycle: %s"
         (match Traversal.find_cycle g with
         | Some cyc ->
             String.concat " -> "
               (List.map (Printf.sprintf "T%d") (cyc @ [ List.hd cyc ]))
         | None -> "(vanished?)"));
  Intset.iter
    (fun n ->
      if not (Digraph.mem_node g n) then
        add
          (v "completed-not-in-graph"
             "completed transaction T%d is not a graph node" n))
    (Gs.completed_txns gs);
  Intset.iter
    (fun n ->
      if Intset.mem n nodes then
        add
          (v "deleted-resurrected"
             "T%d was deleted by the reduction but is back in the graph" n))
    (Gs.deleted_txns gs);
  Intset.iter
    (fun n ->
      if Intset.mem n nodes then
        add (v "aborted-resurrected" "T%d was aborted but is back in the graph" n))
    (Gs.aborted_txns gs);
  (* The graph is the oracle's own, so these checks verify the oracle's
     side structures against it: rows against recomputed reachability,
     ranks against the arcs, and under [Checked] the topological
     order's graph against the closure's.  Violation names keep their
     historical "closure-" spelling: the oracle is the generalisation of
     the maintained closure, and the auditor's consumers key on these
     names. *)
  (let o = Gs.oracle gs in
   let onodes = Cycle_oracle.nodes o in
   if not (Intset.equal onodes nodes) then
     add
       (v "closure-nodes" "%s oracle nodes %s disagree with graph nodes %s"
          (Cycle_oracle.name o)
          (Format.asprintf "%a" Intset.pp onodes)
          (Format.asprintf "%a" Intset.pp nodes))
   else if not (Cycle_oracle.check_against o g) then
     add
       (v "closure-divergence"
          "maintained %s oracle disagrees with reachability recomputed from \
           the graph"
          (Cycle_oracle.name o)));
  Intset.iter
    (fun e ->
      Intset.iter
        (fun id ->
          if not (Gs.mem_txn gs id) then
            add
              (v "stale-current-accessor"
                 "entity %d lists T%d as a current accessor but it is not live"
                 e id))
        (Gs.current_accessors gs ~entity:e))
    (Gs.entities gs);
  (match Gs.check_invariants gs with
  | Ok () -> ()
  | Error m -> add (v "internal-state" "%s" m));
  List.rev !out

exception Violation of { context : string; violations : violation list }

let () =
  Printexc.register_printer (function
    | Violation { context; violations } ->
        Some
          (Printf.sprintf "Invariant.Violation (%s): %s" context
             (String.concat "; "
                (List.map
                   (fun { name; detail } -> Printf.sprintf "[%s] %s" name detail)
                   violations)))
    | _ -> None)

let check_exn ?(context = "graph state") gs =
  match check gs with
  | [] -> ()
  | violations -> raise (Violation { context; violations })

let checked_apply gs step =
  let outcome = Rules.apply gs step in
  check_exn
    ~context:
      (Format.asprintf "after %s (%a)" (Step.to_string step) Rules.pp_outcome
         outcome)
    gs;
  outcome

let checked_policy_run ?index policy gs =
  let deleted = Policy.run ?index policy gs in
  check_exn
    ~context:
      (Format.asprintf "after policy %s deleted %a" (Policy.name policy)
         Intset.pp deleted)
    gs;
  deleted

let selfcheck_handle ~gs (h : Si.handle) =
  {
    h with
    Si.name = h.Si.name ^ "+selfcheck";
    step =
      (fun s ->
        let o = h.Si.step s in
        check_exn ~context:("after " ^ Step.to_string s) (gs ());
        o);
    drain =
      (fun () ->
        let n = h.Si.drain () in
        check_exn ~context:"after drain" (gs ());
        n);
  }

let pp_violation ppf { name; detail } =
  Format.fprintf ppf "[%s] %s" name detail
