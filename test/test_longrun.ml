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
   - per shard, the footprint table holds at most one entry per
     resident transaction;
   - the shard stores hold at most one version per written key, plus
     what resident transactions hold (each resident's versions and the
     chains it read).

   At the end, the committed projection of the decisions must pass the
   independent [ser] checker.

   TIMING ([test_longrun.exe timing], run by [make longrun]).  10^5
   transactions in the shapes of perfbench's sched-churn and
   engine-tpcc; the median ns/step of the last decile may not exceed
   1.2x the first decile's.  The two deciles are timed in alternating
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

(* Drive a scheduler step by step, sampling [gs] every [sample_every]
   begun transactions; returns the accepted steps, newest first. *)
let drive ~run ~longest ~gs ~step schedule =
  let g = gauge run in
  let begun = ref 0 and accepted = ref [] in
  List.iter
    (fun s ->
      (match step s with
      | Si.Accepted -> accepted := s :: !accepted
      | Si.Rejected | Si.Ignored | Si.Delayed -> ());
      if begins s then begin
        incr begun;
        if !begun mod sample_every = 0 then sample_gs g ~at:!begun ~longest (gs ())
      end)
    schedule;
  if g.first = None then
    Alcotest.failf "%s: only %d txns, no sample taken" run !begun;
  !accepted

let conflict_run policy ~n_txns ~n_entities () =
  let p = profile ~n_txns ~n_entities in
  let cs = Cs.create ~policy () in
  let rejected = Hashtbl.create 64 in
  let step s =
    let o = Cs.step cs s in
    if o = Si.Rejected then Hashtbl.replace rejected (Step.txn s) ();
    o
  in
  let accepted =
    drive ~run:("sgt/" ^ Policy.name policy) ~longest:(longest p)
      ~gs:(fun () -> Cs.graph_state cs)
      ~step (Gen.basic p)
  in
  ser_passes ~what:(Policy.name policy)
    (committed_projection accepted ~aborted:(Hashtbl.mem rejected))

let multiwrite_run () =
  let p = profile ~n_txns:5000 ~n_entities:1_000_000 in
  let mw = Mw.create ~deletion:(Mw.C3_exact 8) () in
  let accepted =
    drive ~run:"multiwrite/c3" ~longest:(longest p)
      ~gs:(fun () -> Mw.graph_state mw)
      ~step:(Mw.step mw) (Gen.multiwrite p)
  in
  let gs = Mw.graph_state mw in
  ser_passes ~what:"multiwrite"
    (committed_projection accepted ~aborted:(Gs.was_aborted gs))

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
        over g ~at "footprint entries" (Shard.footprints sh) (Gs.txn_count gs);
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
    [ ("sched-churn", churn_timing); ("engine-tpcc", tpcc_timing) ];
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
            ] );
        ]
