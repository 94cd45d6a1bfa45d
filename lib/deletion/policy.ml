module Intset = Dct_graph.Intset
module Tracer = Dct_telemetry.Tracer
module Event = Dct_telemetry.Event
module Probe = Dct_telemetry.Probe

type t =
  | No_deletion
  | Unsafe_commit_time
  | Noncurrent
  | Greedy_c1
  | Exact_max
  | Exact_max_weighted
  | Budget of int * t

let rec name = function
  | No_deletion -> "none"
  | Unsafe_commit_time -> "commit-time(unsafe)"
  | Noncurrent -> "noncurrent"
  | Greedy_c1 -> "greedy-c1"
  | Exact_max -> "exact-max"
  | Exact_max_weighted -> "exact-max-weighted"
  | Budget (n, inner) -> Printf.sprintf "budget(%d,%s)" n (name inner)

let delete_all gs set =
  Reduced_graph.delete_set gs set;
  set

let rec run_raw ?index policy gs =
  match policy with
  | No_deletion -> Intset.empty
  | Unsafe_commit_time -> delete_all gs (Graph_state.completed_txns gs)
  | Noncurrent ->
      (* Maintained by the graph state on every path; deleting one
         member changes no other transaction's currency. *)
      Option.iter Deletability_index.check_noncurrent index;
      delete_all gs (Graph_state.noncurrent_completed gs)
  | Greedy_c1 ->
      (* Delete in place, re-evaluating eligibility after each removal
         (deleting one transaction can disable another's C1).  With an
         index this becomes a worklist: each deletion dirties only the
         removed node's tight neighbourhood, and the next [eligible]
         re-checks exactly that region. *)
      let eligible () =
        match index with
        | Some idx -> Deletability_index.eligible idx
        | None -> Condition_c1.eligible gs
      in
      let rec loop deleted =
        let m = eligible () in
        if Intset.is_empty m then deleted
        else begin
          let ti = Intset.min_elt m in
          Reduced_graph.delete gs ti;
          loop (Intset.add ti deleted)
        end
      in
      loop Intset.empty
  | Exact_max -> delete_all gs (Max_deletion.exact ?index gs)
  | Exact_max_weighted ->
      let weight ti =
        max 1 (Dct_txn.Access.cardinal (Graph_state.accesses gs ti))
      in
      delete_all gs (Max_deletion.exact_weighted ?index ~weight gs)
  | Budget (limit, inner) ->
      if Graph_state.txn_count gs > limit then run_raw ?index inner gs
      else Intset.empty

(* Which condition stops a surviving candidate from being deleted under
   this policy — the "reason" attached to Deletion_blocked events.
   Evaluated before the run (Budget's threshold looks at the resident
   count the policy saw). *)
let rec blocking_condition gs = function
  | No_deletion | Unsafe_commit_time -> None
  | Noncurrent -> Some "noncurrent"
  | Greedy_c1 -> Some "c1"
  | Exact_max | Exact_max_weighted -> Some "c2-max"
  | Budget (limit, inner) ->
      if Graph_state.txn_count gs > limit then blocking_condition gs inner
      else Some "budget"

let gc_backend = function
  | None -> "naive"
  | Some idx -> Deletability_index.mode_name (Deletability_index.mode idx)

let round tracer ~policy ~condition ~backend ~candidates run =
  if not (Tracer.enabled tracer) then run ()
  else begin
    let candidates = candidates () in
    if not (Intset.is_empty candidates) then begin
      Tracer.event tracer (fun () ->
          Event.Deletion_attempted
            { policy; candidates = Intset.to_sorted_list candidates });
      Tracer.incr
        ~by:(Intset.cardinal candidates)
        tracer
        (Printf.sprintf "deletion.%s.attempted" policy)
    end;
    let deleted =
      (* one gc observation per round: the latency the sweeps and the
         [dct trace] gc table attribute per index backend *)
      Probe.obs (Tracer.probe tracer) ~op:"gc" ~backend run
    in
    if not (Intset.is_empty deleted) then begin
      Tracer.event tracer (fun () ->
          Event.Deletion_ok { policy; deleted = Intset.to_sorted_list deleted });
      Tracer.incr
        ~by:(Intset.cardinal deleted)
        tracer
        (Printf.sprintf "deletion.%s.deleted" policy)
    end;
    (* Candidates that survived the round were examined and refused. *)
    let blocked = Intset.diff candidates deleted in
    (match condition with
    | Some condition when not (Intset.is_empty blocked) ->
        Tracer.incr
          ~by:(Intset.cardinal blocked)
          tracer
          (Printf.sprintf "deletion.%s.blocked" policy);
        Intset.iter
          (fun txn ->
            Tracer.event tracer (fun () ->
                Event.Deletion_blocked { policy; txn; condition }))
          blocked
    | Some _ | None -> ());
    deleted
  end

let run ?index policy gs =
  let tracer = Graph_state.tracer gs in
  if (not (Tracer.enabled tracer)) || policy = No_deletion then
    run_raw ?index policy gs
  else
    round tracer ~policy:(name policy)
      ~condition:(blocking_condition gs policy)
      ~backend:(gc_backend index)
      ~candidates:(fun () -> Graph_state.completed_txns gs)
      (fun () -> run_raw ?index policy gs)

let all_correct =
  [ No_deletion; Noncurrent; Greedy_c1; Exact_max; Budget (32, Greedy_c1) ]

let has_prefix ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

(* Accepts both the short CLI spellings and the canonical {!name} output,
   so [of_string (name p) = Ok p] for every policy (round-trip tested). *)
let rec of_string s =
  match String.lowercase_ascii s with
  | "none" -> Ok No_deletion
  | "commit" | "commit-time(unsafe)" -> Ok Unsafe_commit_time
  | "noncurrent" -> Ok Noncurrent
  | "greedy" | "greedy-c1" | "c1" -> Ok Greedy_c1
  | "exact" | "exact-max" | "c2" -> Ok Exact_max
  | "exact-weighted" | "exact-max-weighted" -> Ok Exact_max_weighted
  | s when has_prefix ~prefix:"budget:" s -> (
      let rest = String.sub s 7 (String.length s - 7) in
      match String.index_opt rest ':' with
      | None -> Error "budget policy needs budget:<n>:<inner>"
      | Some i -> (
          let n = String.sub rest 0 i in
          let inner = String.sub rest (i + 1) (String.length rest - i - 1) in
          match (int_of_string_opt n, of_string inner) with
          | Some n, Ok inner -> Ok (Budget (n, inner))
          | None, _ -> Error (Printf.sprintf "bad budget size %S" n)
          | _, (Error _ as e) -> e))
  | s
    when has_prefix ~prefix:"budget(" s
         && String.length s > 8
         && s.[String.length s - 1] = ')' -> (
      (* canonical form budget(<n>,<inner>) *)
      let rest = String.sub s 7 (String.length s - 8) in
      match String.index_opt rest ',' with
      | None -> Error "budget policy needs budget(<n>,<inner>)"
      | Some i -> (
          let n = String.sub rest 0 i in
          let inner = String.sub rest (i + 1) (String.length rest - i - 1) in
          match (int_of_string_opt n, of_string inner) with
          | Some n, Ok inner -> Ok (Budget (n, inner))
          | None, _ -> Error (Printf.sprintf "bad budget size %S" n)
          | _, (Error _ as e) -> e))
  | _ ->
      Error
        (Printf.sprintf
           "unknown policy %S (expected none | commit | noncurrent | greedy \
            (alias: c1) | exact (alias: c2) | exact-weighted | \
            budget:<n>:<inner>)"
           s)
