(* The long-run gates: memory and cost follow the resident set.

   RESIDENCY (the default run, under [dune runtest] and [dune build
   @longrun]).  Each graph scheduler and the Inline engine runs a long
   seeded workload.  Every [sample_every] begun transactions the run
   reads its gauges and fails at the first sample above a bound derived
   from residency alone:

   - entities with a present accessor <= resident txns x the longest
     access set, for every graph state (the scheduler's, the engine
     coordinator's and each shard's projection);
   - resident bytes stay within the first sample's, scaled by the
     residency high-water mark, plus what the entity index may hold for
     the residents' accesses: nothing may grow with the transactions
     ever run;
   - every storage (each shard's, a scheduler's, a database's) holds at
     most one footprint entry per resident transaction;
   - the stores hold at most one version per written key, plus what
     resident transactions hold (each resident's versions and the
     chains it read): 2 x resident x the longest access set;
   - a log retains at most [wal_per_resident] x the residency
     high-water mark x the records one transaction journals (a begin,
     its writes, an outcome).  Every retained record was journaled
     since the oldest resident began, by a transaction that was
     resident at some moment of that one's life: these runs keep
     every completed transaction only briefly, so that count stays a
     small multiple of the residency.

   At the end, the committed projection of the decisions must pass the
   independent [ser] checker.

   TIMING ([test_longrun.exe timing], run by [make longrun]).  10^5
   transactions in the shapes of perfbench's sched-churn and
   engine-tpcc, and [wal-pin]: one transaction pinned at the log head
   while 4x10^4 short ones are journaled, deleted and truncated behind
   it, so the log retains every record.  The median ns/step of the last
   decile may not exceed 1.2x the first decile's.  The two deciles are timed in alternating
   256-step chunks (the first on a fresh instance) and compared by their
   medians, so neither host drift nor a stall flips the verdict.  Timing
   does not belong in [dune runtest], so this mode runs only on
   request. *)

module Intset = Dct_graph.Intset
module Step = Dct_txn.Step
module Gs = Dct_deletion.Graph_state
module Policy = Dct_deletion.Policy
module Si = Dct_sched.Scheduler_intf
module Cs = Dct_sched.Conflict_scheduler
module Mw = Dct_sched.Multiwrite_scheduler
module Pd = Dct_sched.Predeclared_scheduler
module Engine = Dct_engine.Engine
module Coordinator = Dct_engine.Coordinator
module Shard = Dct_engine.Shard
module Store = Dct_kv.Store
module Storage = Dct_kv.Storage
module Wal = Dct_kv.Wal
module Db = Dct_db.Db
module Gen = Dct_workload.Generator
module Mix = Dct_workload.Mix
module Probe = Dct_telemetry.Probe

let sample_every = 1000

let profile ~n_txns ~n_entities =
  { Gen.default with n_txns; n_entities; mpl = 8; skew = "uniform"; seed = 7 }

(* The longest access set a transaction of the profile can have. *)
let longest p = p.Gen.reads_max + p.Gen.writes_max

let begins = function Step.Begin _ | Step.Begin_declared _ -> true | _ -> false

(* --- residency ---------------------------------------------------- *)

type gauge = {
  run : string;
  mutable first : (int * int) option; (* bytes and high-water at sample 1 *)
  mutable hwm : int;
}

let gauge run = { run; first = None; hwm = 1 }

let over g ~at what value limit =
  if value > limit then
    Alcotest.failf "%s: after %d txns, %s = %d exceeds its bound %d" g.run at
      what value limit

(* One graph state's sample.  Entities are bounded by the residents'
   access sets.  Bytes are bounded by the first sample's, scaled by the
   residency high-water mark (x2 for a capacity doubling), plus what the
   entity index may hold for the residents: six words per entity entry
   and four per history entry, each at most resident x longest. *)
let sample_gs g ~at ~longest gs =
  let resident = Gs.txn_count gs in
  g.hwm <- max g.hwm resident;
  over g ~at "entities" (Intset.cardinal (Gs.entities gs)) (resident * longest);
  let bytes = Gs.resident_bytes gs in
  match g.first with
  | None -> g.first <- Some (bytes, g.hwm)
  | Some (b0, h0) ->
      over g ~at "resident bytes" bytes
        ((2 * b0 * g.hwm / h0) + (80 * g.hwm * longest))

(* A log's bound, in units of the residency high-water mark times one
   transaction's records (a begin, at most [longest] writes, an
   outcome).  Over 20k greedy-C1 transactions on 10^6 uniform keys the
   worst step reads 1.3 units. *)
let wal_per_resident = 4

(* One storage's sample, for [resident] transactions after [written]
   distinct keys were written. *)
let sample_storage g ~at ~longest ~written ~resident storage =
  over g ~at "footprint entries" (Storage.footprints storage) resident;
  over g ~at "store versions"
    (Store.total_versions (Storage.store storage))
    (written + (2 * resident * longest));
  match Storage.wal storage with
  | Some w ->
      over g ~at "wal retained" (Wal.length w)
        (wal_per_resident * g.hwm * (longest + 2))
  | None -> ()

let note_writes written = function
  | Step.Write (_, xs) -> List.iter (fun x -> Hashtbl.replace written x ()) xs
  | Step.Write_one (_, x) -> Hashtbl.replace written x ()
  | Step.Begin _ | Step.Begin_declared _ | Step.Read _ | Step.Finish _ -> ()

let ser_passes ~what committed =
  let r =
    Dct_check.Checker.check_schedule ~level:Dct_check.Violation.Serializable
      committed
  in
  if not (Dct_check.Checker.passed r) then
    Alcotest.failf "%s: the committed projection fails ser:\n%s" what
      (Dct_check.Checker.render r)

(* Steps of transactions that were never aborted, in decision order. *)
let committed_projection decided ~aborted =
  List.filter (fun s -> not (aborted (Step.txn s))) (List.rev decided)

(* Drive a scheduler step by step, sampling [gs] (and [storage], if
   the scheduler has one) every [sample_every] begun transactions;
   returns the accepted steps, newest first. *)
let drive ~run ~longest ~gs ?storage ~step schedule =
  let g = gauge run in
  let begun = ref 0 and accepted = ref [] and written = Hashtbl.create 4096 in
  List.iter
    (fun s ->
      (match step s with
      | Si.Accepted ->
          accepted := s :: !accepted;
          note_writes written s
      | Si.Rejected | Si.Ignored | Si.Delayed -> ());
      if begins s then begin
        incr begun;
        if !begun mod sample_every = 0 then begin
          let gs = gs () in
          sample_gs g ~at:!begun ~longest gs;
          Option.iter
            (sample_storage g ~at:!begun ~longest ~written:(Hashtbl.length written)
               ~resident:(Gs.txn_count gs))
            storage
        end
      end)
    schedule;
  if g.first = None then
    Alcotest.failf "%s: only %d txns, no sample taken" run !begun;
  !accepted

let conflict_run ?storage policy ~n_txns ~n_entities () =
  let p = profile ~n_txns ~n_entities in
  let cs = Cs.create ~policy ?storage () in
  let rejected = Hashtbl.create 64 in
  let step s =
    let o = Cs.step cs s in
    if o = Si.Rejected then Hashtbl.replace rejected (Step.txn s) ();
    o
  in
  let accepted =
    drive ~run:("sgt/" ^ Policy.name policy) ~longest:(longest p)
      ~gs:(fun () -> Cs.graph_state cs)
      ?storage ~step (Gen.basic p)
  in
  ser_passes ~what:(Policy.name policy)
    (committed_projection accepted ~aborted:(Hashtbl.mem rejected))

let multiwrite_run () =
  let p = profile ~n_txns:5000 ~n_entities:1_000_000 in
  let mw = Mw.create ~deletion:(Mw.C3_exact 8) () in
  let accepted =
    drive ~run:"multiwrite/c3" ~longest:(longest p)
      ~gs:(fun () -> Mw.graph_state mw)
      ~storage:(Mw.storage mw) ~step:(Mw.step mw) (Gen.multiwrite p)
  in
  let gs = Mw.graph_state mw in
  ser_passes ~what:"multiwrite"
    (committed_projection accepted ~aborted:(Gs.was_aborted gs))

(* The database facade, driven by a basic schedule through explicit
   handles: a begin opens one, a read reads, the final write commits
   (each written key gets the step's index as its value).  A refused
   read or commit kills the handle; the schedule's later steps of it
   are dropped. *)
let db_run () =
  let p = profile ~n_txns:5000 ~n_entities:1_000_000 in
  let longest = longest p in
  let db = Db.open_ () in
  let g = gauge "db/greedy-c1" in
  let handles = Hashtbl.create 64 and written = Hashtbl.create 4096 in
  let begun = ref 0 and aborted = ref 0 in
  let dead t = Hashtbl.remove handles t; incr aborted in
  let sample at =
    let s = Db.stats db in
    g.hwm <- max g.hwm s.Db.graph_resident;
    sample_storage g ~at ~longest ~written:(Hashtbl.length written)
      ~resident:s.Db.graph_resident (Db.storage db)
  in
  List.iteri
    (fun i s ->
      match s with
      | Step.Begin t ->
          Hashtbl.replace handles t (Db.begin_txn db);
          incr begun;
          if !begun mod sample_every = 0 then sample !begun
      | Step.Read (t, x) -> (
          match Hashtbl.find_opt handles t with
          | Some h -> if Result.is_error (Db.read h x) then dead t
          | None -> ())
      | Step.Write (t, xs) -> (
          match Hashtbl.find_opt handles t with
          | Some h -> (
              Hashtbl.remove handles t;
              match Db.commit h ~writes:(List.map (fun x -> (x, i)) xs) with
              | Ok () -> List.iter (fun x -> Hashtbl.replace written x ()) xs
              | Error _ -> incr aborted)
          | None -> ())
      | Step.Begin_declared _ | Step.Write_one _ | Step.Finish _ -> ())
    (Gen.basic p);
  sample !begun;
  (match Db.check_invariants db with
  | Ok () -> ()
  | Error e -> Alcotest.failf "db: %s" e);
  Alcotest.(check int) "every transaction decided" 5000
    ((Db.stats db).Db.committed + !aborted)

let predeclared_run () =
  let p = profile ~n_txns:5000 ~n_entities:1_000_000 in
  let pd = Pd.create ~use_c4_deletion:true () in
  ignore
    (drive ~run:"predeclared/c4" ~longest:(longest p)
       ~gs:(fun () -> Pd.graph_state pd)
       ~step:(Pd.step pd) (Gen.predeclared p));
  ignore (Pd.drain pd);
  Alcotest.(check int) "nothing left queued" 0 (Pd.pending pd);
  let gs = Pd.graph_state pd in
  ser_passes ~what:"predeclared"
    (List.filter (fun s -> not (Gs.was_aborted gs (Step.txn s))) (Pd.execution_log pd))

let engine_run () =
  let p = profile ~n_txns:10_000 ~n_entities:1_000_000 in
  let longest = longest p in
  let eng =
    Engine.create (Engine.config ~policy:Policy.Greedy_c1 ~shards:4 ~batch:16 ())
  in
  let decided = ref [] and rejected = Hashtbl.create 64 in
  let written = Hashtbl.create 4096 in
  Engine.set_on_step eng
    (Some
       (fun _ s o ->
         match o with
         | Si.Accepted ->
             decided := s :: !decided;
             (match s with
             | Step.Write (_, xs) -> List.iter (fun x -> Hashtbl.replace written x ()) xs
             | _ -> ())
         | Si.Rejected -> Hashtbl.replace rejected (Step.txn s) ()
         | Si.Ignored | Si.Delayed -> ()));
  let coord = gauge "engine/coordinator" in
  let shard_gauges =
    Array.init (Engine.shard_count eng) (fun i -> gauge (Printf.sprintf "engine/shard%d" i))
  in
  let sample at =
    sample_gs coord ~at ~longest (Coordinator.graph_state (Engine.coordinator eng));
    let versions = ref 0 and held = ref 0 in
    Array.iteri
      (fun i g ->
        let sh = Engine.shard eng i in
        let gs = Shard.graph_state sh in
        sample_gs g ~at ~longest gs;
        over g ~at "footprint entries"
          (Storage.footprints (Shard.storage sh))
          (Gs.txn_count gs);
        versions := !versions + Store.total_versions (Shard.store sh);
        held := !held + (2 * Gs.txn_count gs * longest))
      shard_gauges;
    over coord ~at "store versions (all shards)" !versions
      (Hashtbl.length written + !held)
  in
  let begun = ref 0 in
  List.iter
    (fun s ->
      Engine.submit eng s;
      if begins s then begin
        incr begun;
        if !begun mod sample_every = 0 then sample !begun
      end)
    (Gen.basic p);
  ignore (Engine.finish eng ~wall_seconds:0.);
  sample !begun;
  ser_passes ~what:"engine"
    (committed_projection !decided ~aborted:(Hashtbl.mem rejected))

(* --- timing ------------------------------------------------------- *)

let chunk = 256

let median a =
  let a = Array.copy a in
  Array.sort compare a;
  a.(Array.length a / 2)

(* Median ns/step over [chunk]-step chunks of the run's first and last
   deciles.  The two deciles are timed in alternating chunks — the last
   on the instance that has run the whole prefix, the first on a fresh
   instance fed the same opening steps — so a host slowdown lands on
   both sides alike instead of on whichever decile it happens to hit. *)
let decile_medians ~create ~step steps =
  let n = Array.length steps in
  let k = n / 10 / chunk in
  let d = k * chunk in
  let aged = create () and fresh = create () in
  for i = 0 to n - d - 1 do
    step aged i steps.(i)
  done;
  let time inst ~base c =
    let t0 = Probe.now_ns () in
    for i = base + (c * chunk) to base + ((c + 1) * chunk) - 1 do
      step inst i steps.(i)
    done;
    (Probe.now_ns () -. t0) /. float_of_int chunk
  in
  let first = Array.make k 0. and last = Array.make k 0. in
  for c = 0 to k - 1 do
    last.(c) <- time aged ~base:(n - d) c;
    first.(c) <- time fresh ~base:0 c
  done;
  (n, median first, median last)

let churn_timing () =
  let steps =
    Array.of_list
      (Gen.basic
         {
           Gen.default with
           n_txns = 100_000;
           n_entities = 100_000;
           mpl = 8;
           skew = "uniform";
           seed = 1;
         })
  in
  decile_medians steps
    ~create:(fun () -> Cs.create ~policy:Policy.Greedy_c1 ())
    ~step:(fun cs i s ->
      ignore (Cs.step cs s);
      if i mod 64 = 0 then ignore (Cs.stats cs))

let tpcc_timing () =
  let steps =
    Array.of_list (Mix.schedule Mix.Tpcc ~n_txns:100_000 ~keys:1024 ~mpl:8 ~seed:1)
  in
  decile_medians steps
    ~create:(fun () ->
      Engine.create (Engine.config ~policy:Policy.Greedy_c1 ~shards:4 ~batch:16 ()))
    ~step:(fun eng _ s -> Engine.submit eng s)

(* Transaction 0 begins and never leaves, so its [Begin] pins the log
   head; behind it, 4x10^4 short transactions are journaled (a begin, a
   write, a commit), removed and truncated, each step reading the log's
   length as a shard's stats do.  The log retains every record (120,001
   at the end), so a truncation or a length read that walks the
   retained records grows with the run.  The storage is driven directly,
   so the scheduler's own per-transaction tables do not mask the log's
   cost. *)
let wal_pin_timing () =
  decile_medians (Array.init 40_001 Fun.id)
    ~create:(fun () -> Storage.create ~wal:(Wal.create ()) ())
    ~step:(fun st _ txn ->
      Storage.begin_ st ~txn;
      if txn > 0 then begin
        Storage.write st ~txn ~entity:(txn mod 1024) ~value:txn;
        Storage.commit st ~txn;
        Storage.remove st ~txn ~aborted:false
      end;
      Storage.truncate st;
      ignore (Wal.length (Option.get (Storage.wal st))))

let timing () =
  let ok = ref true in
  List.iter
    (fun (name, run) ->
      let steps, first, last = run () in
      let ratio = last /. first in
      let verdict = if ratio > 1.2 then (ok := false; "FAIL") else "ok" in
      Printf.printf
        "%-12s %7d steps  first decile %8.0f ns/step  last decile %8.0f \
         ns/step  ratio %.2f  %s\n%!"
        name steps first last ratio verdict)
    [
      ("sched-churn", churn_timing);
      ("engine-tpcc", tpcc_timing);
      ("wal-pin", wal_pin_timing);
    ];
  if not !ok then begin
    prerr_endline "longrun: per-step cost grows with run length (last decile > 1.2x first)";
    exit 1
  end

let () =
  match Sys.argv with
  | [| _; "timing" |] -> timing ()
  | _ ->
      Alcotest.run "longrun"
        [
          ( "residency",
            [
              Alcotest.test_case "sgt/greedy-c1, 10^6 uniform keys" `Quick
                (conflict_run Policy.Greedy_c1 ~n_txns:20_000 ~n_entities:1_000_000);
              (* Corollary 1 deletes a transaction only once every value it
                 touched is overwritten; over 10^6 uniform keys none ever is,
                 so residency would be the whole run.  64 keys keep it
                 bounded. *)
              Alcotest.test_case "sgt/noncurrent, 64 uniform keys" `Quick
                (conflict_run Policy.Noncurrent ~n_txns:5000 ~n_entities:64);
              Alcotest.test_case "multiwrite/c3, 10^6 uniform keys" `Quick
                multiwrite_run;
              Alcotest.test_case "predeclared/c4, 10^6 uniform keys" `Quick
                predeclared_run;
              Alcotest.test_case "engine inline x4, 10^6 uniform keys" `Quick
                engine_run;
              Alcotest.test_case "sgt/greedy-c1 with storage and WAL, 10^6 uniform keys"
                `Quick (fun () ->
                  conflict_run
                    ~storage:(Storage.create ~wal:(Wal.create ()) ())
                    Policy.Greedy_c1 ~n_txns:20_000 ~n_entities:1_000_000 ());
              Alcotest.test_case "db/greedy-c1, 10^6 uniform keys" `Quick db_run;
            ] );
        ]
