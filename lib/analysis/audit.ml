module Intset = Dct_graph.Intset
module Digraph = Dct_graph.Digraph
module Closure = Dct_graph.Closure
module Step = Dct_txn.Step
module Schedule = Dct_txn.Schedule
module Gs = Dct_deletion.Graph_state
module Rules = Dct_deletion.Rules
module Policy = Dct_deletion.Policy
module C1 = Dct_deletion.Condition_c1
module C2 = Dct_deletion.Condition_c2
module Safety = Dct_deletion.Safety
module Reduced_graph = Dct_deletion.Reduced_graph

type decision = Accepted | Rejected | Ignored

type event =
  | Decision of { index : int; step : Step.t; decision : decision }
  | Deletion of { index : int; deleted : Intset.t }
  | Abort of { index : int; txn : int }

type trace = event list

let decision_of_outcome = function
  | Rules.Accepted -> Accepted
  | Rules.Rejected -> Rejected
  | Rules.Ignored -> Ignored

let record ?(policy = Policy.No_deletion) ?oracle schedule =
  let gs = Gs.create ?oracle () in
  let events = ref [] in
  List.iteri
    (fun index step ->
      let outcome = Rules.apply gs step in
      events :=
        Decision { index; step; decision = decision_of_outcome outcome }
        :: !events;
      match outcome with
      | Rules.Ignored -> ()
      | Rules.Accepted | Rules.Rejected ->
          let deleted = Policy.run policy gs in
          if not (Intset.is_empty deleted) then
            events := Deletion { index; deleted } :: !events)
    schedule;
  List.rev !events

(* Rebuild an auditable trace from raw telemetry events (dct trace
   --audit).  Steps and decisions are paired by the scheduler's step
   index.  The scheduler runs its deletion policy {e inside} [step], so
   [Deletion_ok] appears in the stream between [Step_submitted i] and
   [Decision i]; such deletions are held back and replayed {e after}
   that step's decision (the state the policy actually saw).  Deletions
   with no following decision (drain time) trail the last step.  Only
   basic-model runs can be audited: a "delayed" decision (blocking
   schedulers) has no Rules.apply counterpart and is reported as an
   error. *)
let of_telemetry events =
  let module E = Dct_telemetry.Event in
  let decision_of_string = function
    | "accepted" -> Ok Accepted
    | "rejected" -> Ok Rejected
    | "ignored" -> Ok Ignored
    | "delayed" ->
        Error "\"delayed\" decisions (blocking schedulers) cannot be audited"
    | other -> Error (Printf.sprintf "unknown outcome %S" other)
  in
  let steps_tbl = Hashtbl.create 64 in
  let flush pending index acc =
    List.fold_left
      (fun acc deleted -> Deletion { index; deleted } :: acc)
      acc (List.rev pending)
  in
  let rec go acc pending last_index = function
    | [] -> Ok (List.rev (flush pending last_index acc))
    | E.Step_submitted { index; step } :: rest -> (
        match Step.of_telemetry step with
        | Ok s ->
            Hashtbl.replace steps_tbl index s;
            go acc pending last_index rest
        | Error e -> Error (Printf.sprintf "step %d: %s" index e))
    | E.Decision { index; outcome; _ } :: rest -> (
        match Hashtbl.find_opt steps_tbl index with
        | None ->
            Error
              (Printf.sprintf "decision at index %d has no submitted step"
                 index)
        | Some step -> (
            match decision_of_string outcome with
            | Ok decision ->
                let acc = Decision { index; step; decision } :: acc in
                go (flush pending index acc) [] index rest
            | Error e -> Error (Printf.sprintf "decision at index %d: %s" index e)))
    | E.Deletion_ok { deleted; _ } :: rest ->
        go acc (Intset.of_list deleted :: pending) last_index rest
    | E.Txn_aborted { txn; _ } :: rest ->
        (* Written between steps: every deletion already seen came from
           a decided step, so it lands first; the abort's own GC round
           follows. *)
        let acc = Abort { index = last_index; txn } :: flush pending last_index acc in
        go acc [] last_index rest
    | ( E.Deletion_attempted _ | E.Deletion_blocked _ | E.Oracle_query _
      | E.Cycle_rejected _ | E.Restart _ | E.Checkpoint_stats _ )
      :: rest ->
        go acc pending last_index rest
  in
  go [] [] (-1) events

type finding =
  | Malformed_step of { index : int; step : Step.t; error : string }
  | Decision_mismatch of {
      index : int;
      step : Step.t;
      recorded : decision;
      replayed : decision;
    }
  | Illegal_deletion of { index : int; txn : int; reason : string }
  | Unjustified_deletion of {
      index : int;
      deleted : Intset.t;
      witnesses : (int * int * int) list;
    }
  | Accepted_not_csr of { cycle : Intset.t }

type report = {
  steps : int;
  deletions : int;
  deleted_total : int;
  finding : finding option;
}

(* Is there an order of single deletions of [set], each valid under C1
   on the intermediate reduced graph?  Backtracking over orders; a
   failed remaining-set is memoised, which is sound because D(G, N) is
   order-independent — the intermediate state is a function of the
   remaining set alone. *)
let sequential_c1_order gs set =
  let failed = Hashtbl.create 8 in
  let rec go gs set =
    Intset.is_empty set
    || (not (Hashtbl.mem failed (Intset.elements set)))
       &&
       let memo = C1.hashtbl_memo () in
       let candidates = Intset.filter (C1.holds_fast ~memo gs) set in
       let ok =
         Intset.exists
           (fun ti ->
             let gs' = Gs.copy gs in
             Reduced_graph.delete gs' ti;
             go gs' (Intset.remove ti set))
           candidates
       in
       if not ok then Hashtbl.replace failed (Intset.elements set) ();
       ok
  in
  go (Gs.copy gs) set

let csr_via_closure schedule =
  let g = Schedule.conflict_graph schedule in
  let c = Closure.create () in
  Digraph.iter_nodes (Closure.add_node c) g;
  Digraph.iter_arcs (fun ~src ~dst -> Closure.add_arc c ~src ~dst) g;
  let cycle = ref Intset.empty in
  Digraph.iter_nodes
    (fun n -> if Closure.reaches c ~src:n ~dst:n then cycle := Intset.add n !cycle)
    g;
  !cycle

let audit ?safety_depth trace =
  let gs = Gs.create () in
  let steps = ref 0 and deletions = ref 0 and deleted_total = ref 0 in
  let rejected = ref Intset.empty in
  let accepted_rev = ref [] in
  let rec go = function
    | [] -> None
    | Decision { index; step; decision } :: rest -> (
        incr steps;
        match Rules.apply gs step with
        | exception Invalid_argument error ->
            Some (Malformed_step { index; step; error })
        | outcome ->
            let replayed = decision_of_outcome outcome in
            if replayed <> decision then
              Some (Decision_mismatch { index; step; recorded = decision; replayed })
            else begin
              (match decision with
              | Rejected -> rejected := Intset.add (Step.txn step) !rejected
              | Accepted -> accepted_rev := step :: !accepted_rev
              | Ignored -> ());
              go rest
            end)
    | Deletion { index; deleted } :: rest -> (
        incr deletions;
        deleted_total := !deleted_total + Intset.cardinal deleted;
        let illegal =
          Intset.filter (fun ti -> not (Gs.is_completed gs ti)) deleted
        in
        if not (Intset.is_empty illegal) then
          let txn = Intset.min_elt illegal in
          Some
            (Illegal_deletion
               {
                 index;
                 txn;
                 reason =
                   (if Gs.mem_txn gs txn then "still active (not completed)"
                    else "not present in the graph");
               })
        else
          let justified =
            C2.holds gs deleted
            || sequential_c1_order gs deleted
            ||
            match safety_depth with
            | None -> false
            | Some depth -> Safety.search ~depth gs ~deleted = None
          in
          if not justified then
            Some
              (Unjustified_deletion
                 { index; deleted; witnesses = C2.violations gs deleted })
          else begin
            Reduced_graph.delete_set gs deleted;
            go rest
          end)
    | Abort { txn; _ } :: rest ->
        Gs.abort_txn gs txn;
        rejected := Intset.add txn !rejected;
        go rest
  in
  let finding =
    match go trace with
    | Some f -> Some f
    | None ->
        (* The paper's correctness yardstick: the accepted subschedule —
           steps of transactions that were never rejected — is CSR. *)
        let accepted =
          Schedule.project (List.rev !accepted_rev) ~keep:(fun t ->
              not (Intset.mem t !rejected))
        in
        let cycle = csr_via_closure accepted in
        if Intset.is_empty cycle then None else Some (Accepted_not_csr { cycle })
  in
  { steps = !steps; deletions = !deletions; deleted_total = !deleted_total; finding }

let audit_schedule ?safety_depth ?oracle ~policy schedule =
  audit ?safety_depth (record ~policy ?oracle schedule)

let ok r = r.finding = None

let pp_decision ppf d =
  Format.pp_print_string ppf
    (match d with
    | Accepted -> "accepted"
    | Rejected -> "rejected"
    | Ignored -> "ignored")

let default_txn_name = Printf.sprintf "T%d"
let default_entity_name = Printf.sprintf "e%d"

let pp_set name ppf set =
  Format.fprintf ppf "{%s}"
    (String.concat ", " (List.map name (Intset.elements set)))

let pp_finding ?(txn_name = default_txn_name)
    ?(entity_name = default_entity_name) ppf = function
  | Malformed_step { index; step; error } ->
      Format.fprintf ppf "step %d (%s): malformed: %s" index
        (Step.to_string step) error
  | Decision_mismatch { index; step; recorded; replayed } ->
      Format.fprintf ppf
        "step %d (%s): recorded decision %a but replay says %a" index
        (Step.to_string step) pp_decision recorded pp_decision replayed
  | Illegal_deletion { index; txn; reason } ->
      Format.fprintf ppf "after step %d: deletion of %s is illegal: %s" index
        (txn_name txn) reason
  | Unjustified_deletion { index; deleted; witnesses } ->
      Format.fprintf ppf
        "after step %d: deletion of %a is unjustified (fails C1/C2)" index
        (pp_set txn_name) deleted;
      List.iter
        (fun (ti, tj, x) ->
          Format.fprintf ppf
            "@,  witness: %s has active tight predecessor %s with entity %s \
             uncovered"
            (txn_name ti) (txn_name tj) (entity_name x))
        witnesses
  | Accepted_not_csr { cycle } ->
      Format.fprintf ppf
        "the accepted schedule is not conflict-serializable: cycle through %a"
        (pp_set txn_name) cycle

let pp_report ?txn_name ?entity_name ppf r =
  Format.fprintf ppf "@[<v>audited %d steps, %d deletion events (%d transactions deleted)@,"
    r.steps r.deletions r.deleted_total;
  (match r.finding with
  | None -> Format.fprintf ppf "all decisions justified; accepted schedule is CSR@]"
  | Some f ->
      Format.fprintf ppf "FAIL: %a@]" (pp_finding ?txn_name ?entity_name) f)
