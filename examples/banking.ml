(* An OLTP-flavoured scenario: money transfers between accounts under
   the conflict-graph scheduler, with a versioned store supplying real
   values.  Shows (a) that correct deletion policies do not change a
   single scheduling decision, (b) how much memory they reclaim, and
   (c) conservation of money across the committed transfers.

     dune exec examples/banking.exe *)

module Intset = Dct_graph.Intset
module Step = Dct_txn.Step
module Storage = Dct_kv.Storage
module Cs = Dct_sched.Conflict_scheduler
module Si = Dct_sched.Scheduler_intf
module Policy = Dct_deletion.Policy
module Prng = Dct_workload.Prng

let n_accounts = 20
let initial_balance = 1000
let n_transfers = 150

(* A transfer reads both balances, then atomically writes both.  The
   basic model's value semantics are uninterpreted, so we run the
   "application" alongside: on commit we apply the transfer to a
   mirror ledger keyed by the scheduler's decisions. *)
type transfer = { txn : int; from_ : int; to_ : int; amount : int }

let make_transfers rng =
  List.init n_transfers (fun i ->
      let from_ = Prng.int rng n_accounts in
      let to_ = (from_ + 1 + Prng.int rng (n_accounts - 1)) mod n_accounts in
      { txn = i + 1; from_; to_; amount = 1 + Prng.int rng 50 })

let steps_of { txn; from_; to_; _ } =
  [
    Step.Begin txn;
    Step.Read (txn, from_);
    Step.Read (txn, to_);
    Step.Write (txn, [ from_; to_ ]);
  ]

(* Interleave the four-step transfers with multiprogramming level 6. *)
let interleave rng transfers =
  let slots = Queue.create () in
  let rest = ref transfers in
  let out = ref [] in
  let refill () =
    match !rest with
    | [] -> ()
    | t :: tl ->
        rest := tl;
        Queue.push (ref (steps_of t)) slots
  in
  for _ = 1 to 6 do
    refill ()
  done;
  while not (Queue.is_empty slots) do
    let n = Queue.length slots in
    for _ = 1 to Prng.int rng n do
      Queue.push (Queue.pop slots) slots
    done;
    let steps = Queue.pop slots in
    match !steps with
    | [] -> refill ()
    | s :: tl ->
        out := s :: !out;
        steps := tl;
        if tl = [] then refill () else Queue.push steps slots
  done;
  List.rev !out

let run policy schedule transfers =
  let storage = Storage.create ~default:initial_balance () in
  let sched = Cs.create ~policy ~storage () in
  let ledger = Hashtbl.create 32 in
  List.iteri (fun i t -> Hashtbl.replace ledger (i + 1) t) transfers;
  let committed = ref [] in
  let peak = ref 0 in
  List.iter
    (fun step ->
      let o = Cs.step sched step in
      peak := max !peak (Cs.stats sched).Si.resident_txns;
      match (o, step) with
      | Si.Accepted, Step.Write (txn, _ :: _) ->
          committed := Hashtbl.find ledger txn :: !committed
      | _ -> ())
    schedule;
  (sched, List.rev !committed, !peak)

let () =
  let rng = Prng.create ~seed:2024 in
  let transfers = make_transfers rng in
  let schedule = interleave rng transfers in
  Printf.printf
    "banking: %d transfers over %d accounts, %d interleaved steps\n\n"
    n_transfers n_accounts (List.length schedule);
  let header =
    Printf.sprintf "%-18s %9s %9s %10s %9s" "policy" "committed" "deleted"
      "resident" "peak"
  in
  print_endline header;
  print_endline (String.make (String.length header) '-');
  let reference = ref None in
  List.iter
    (fun policy ->
      let sched, committed, peak = run policy schedule transfers in
      let s = Cs.stats sched in
      Printf.printf "%-18s %9d %9d %10d %9d\n" (Policy.name policy)
        s.Si.committed_total s.Si.deleted_total s.Si.resident_txns peak;
      (* Every correct policy must commit the same transfers. *)
      (match !reference with
      | None -> reference := Some committed
      | Some ref_committed ->
          assert (
            List.length ref_committed = List.length committed
            && List.for_all2 (fun a b -> a.txn = b.txn) ref_committed committed));
      (* Conservation: replay the committed transfers on a ledger. *)
      let balances = Array.make n_accounts initial_balance in
      List.iter
        (fun t ->
          balances.(t.from_) <- balances.(t.from_) - t.amount;
          balances.(t.to_) <- balances.(t.to_) + t.amount)
        committed;
      let total = Array.fold_left ( + ) 0 balances in
      assert (total = n_accounts * initial_balance))
    [
      Policy.No_deletion;
      Policy.Noncurrent;
      Policy.Greedy_c1;
      Policy.Budget (12, Policy.Greedy_c1);
    ];
  print_newline ();
  print_endline
    "All policies commit the identical set of transfers (asserted), and\n\
     money is conserved; only the memory footprint differs."
