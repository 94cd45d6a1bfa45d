(* Pieces shared by the workloads: outcome digests, heap measurement,
   the traced run's call timers, and the serializability gate. *)

module Si = Dct_sched.Scheduler_intf
module Step = Dct_txn.Step
module Intset = Dct_graph.Intset

let code = function
  | Si.Accepted -> 'A'
  | Si.Rejected -> 'R'
  | Si.Delayed -> 'D'
  | Si.Ignored -> 'I'

let rules_code = function
  | Dct_deletion.Rules.Accepted -> 'A'
  | Dct_deletion.Rules.Rejected -> 'R'
  | Dct_deletion.Rules.Ignored -> 'I'

(* The decision digest: one outcome byte per step, then every non-empty
   deletion as (1-based step, deleted ids).  Timed and traced runs of
   the same inputs must agree on it byte for byte. *)
let digest outcomes deletions =
  let b = Buffer.create (Bytes.length outcomes + 4096) in
  Buffer.add_bytes b outcomes;
  List.iter
    (fun (step, set) ->
      Buffer.add_string b (Printf.sprintf ";%d:" step);
      Intset.iter (fun t -> Buffer.add_string b (string_of_int t ^ ",")) set)
    deletions;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* A run repeats whole passes until [seconds] have gone by, at least
   one.  Pass [k] of a run with seed [seed] draws its inputs from
   [pass_seed ~seed k], so a run averages over several input streams
   and the same seed always gives the same inputs. *)
let pass_seed ~seed k = (seed * 1000) + k

let repeat ~seconds pass =
  let t0 = Clock.now_ns () in
  let rec go k acc =
    if k > 0 && Clock.now_ns () - t0 >= seconds * 1_000_000_000 then List.rev acc
    else go (k + 1) (pass k :: acc)
  in
  go 0 []

(* Live major-heap words after a full major collection. *)
let live_words () =
  Gc.full_major ();
  (Gc.stat ()).Gc.live_words

(* With [heap], the live words before the system under test is built,
   and the time the measurement took (kept out of the set-up time). *)
let heap_baseline ~heap =
  if not heap then (0, 0)
  else
    let a = Clock.now_ns () in
    let w = live_words () in
    (w, Clock.now_ns () - a)

(* What the end-to-end metrics need from one timed pass. *)
type summary = {
  lat : int array;  (** per measured step, in step order *)
  run_ns : int;
  committed : int;
  setup_ns : int;
  retained_words : int;  (** measured on the first pass only *)
}

let mb_of_words w = float_of_int (w * (Sys.word_size / 8)) /. 1e6

(* Accumulated time and call count of one layer entry point. *)
type timer = { mutable ns : int; mutable calls : int }

let timer () = { ns = 0; calls = 0 }

let time_call tm f =
  let a = Clock.now_ns () in
  let r = f () in
  tm.ns <- tm.ns + (Clock.now_ns () - a);
  tm.calls <- tm.calls + 1;
  r

(* Sum same-named rows over several traced passes. *)
let merge_rows passes =
  match passes with
  | [] -> []
  | first :: _ ->
      List.map
        (fun (name, _) ->
          let tm = timer () in
          List.iter
            (fun rows ->
              let t = List.assoc name rows in
              tm.ns <- tm.ns + t.ns;
              tm.calls <- tm.calls + t.calls)
            passes;
          (name, tm))
        first

let per_call tm = if tm.calls = 0 then 0. else float_of_int tm.ns /. float_of_int tm.calls

(* The Rule 2/3 arc sources of a step, exactly as [Rules.apply] will
   compute them — [None] for steps that issue no cycle query. *)
let cycle_query gs step =
  let module Gs = Dct_deletion.Graph_state in
  let t = Step.txn step in
  if Gs.was_aborted gs t then None
  else
    match step with
    | Step.Read (_, x) -> Some (t, Intset.remove t (Gs.present_writers gs ~entity:x))
    | Step.Write (_, xs) ->
        Some
          ( t,
            Intset.remove t
              (List.fold_left
                 (fun acc x -> Intset.union acc (Gs.present_accessors gs ~entity:x))
                 Intset.empty xs) )
    | Step.Begin _ | Step.Begin_declared _ | Step.Write_one _ | Step.Finish _ -> None

(* The committed projection of a run — the steps of every transaction
   that was never rejected — must pass the independent [ser] checker. *)
let serializable steps outcomes =
  let rejected = Hashtbl.create 64 in
  Array.iteri
    (fun i s -> if Bytes.get outcomes i = 'R' then Hashtbl.replace rejected (Step.txn s) ())
    steps;
  let committed =
    List.filter (fun s -> not (Hashtbl.mem rejected (Step.txn s))) (Array.to_list steps)
  in
  let r =
    Dct_check.Checker.check_schedule ~level:Dct_check.Violation.Serializable committed
  in
  Dct_check.Checker.passed r

(* The gate has teeth: a lost-update interleaving must fail it. *)
let serializable_self_test () =
  let steps =
    [| Step.Begin 1; Step.Read (1, 0); Step.Begin 2; Step.Read (2, 0);
       Step.Write (2, [ 0 ]); Step.Write (1, [ 0 ]) |]
  in
  let all_accepted = Bytes.make (Array.length steps) 'A' in
  if serializable steps all_accepted then
    [ "the ser checker accepted a lost update" ]
  else if not (serializable steps (Bytes.of_string "AAAAAR")) then
    [ "the ser checker refused a serial committed projection" ]
  else []
