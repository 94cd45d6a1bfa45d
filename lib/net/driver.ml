module Metrics = Dct_telemetry.Metrics
module Sched = Dct_sched.Scheduler_intf
module Mix = Dct_workload.Mix

type cfg = {
  clients : int;
  txns_per_client : int;
  mix : Mix.t;
  keys : int;
  seed : int;
  dialect : Wire.dialect;
}

type result = {
  txns : int;
  completed : int;
  aborted : int;
  ops : int;
  wall_seconds : float;
  throughput : float;
  metrics : Metrics.t;
}

let op_name = function
  | Wire.Begin _ -> "begin"
  | Wire.Read _ -> "read"
  | Wire.Write _ -> "write"
  | Wire.Complete _ -> "complete"
  | Wire.Abort _ -> "abort"
  | Wire.Stats -> "stats"

(* One closed-loop client: each transaction's ops are issued one at a
   time, each op's latency is the full round trip to its decision.  A
   rejected op kills the transaction — the client gives up on its
   remaining ops (they would only come back [Ignored]) and moves on. *)
let client_loop cfg addr ~client reg =
  let c = Client.connect ~dialect:cfg.dialect addr in
  let sampler = Mix.sampler cfg.mix ~keys:cfg.keys ~seed:(cfg.seed + (7919 * client)) in
  let burst = Mix.burst cfg.mix in
  let started = Unix.gettimeofday () in
  let timed_call req =
    let t0 = Unix.gettimeofday () in
    let r = Client.call c req in
    let dt_ns = (Unix.gettimeofday () -. t0) *. 1e9 in
    Metrics.observe reg ("net.latency." ^ op_name req) dt_ns;
    Metrics.observe reg "net.latency.all" dt_ns;
    match r with
    | Ok (Wire.Outcome { outcome; _ }) ->
        Metrics.incr reg ("net.outcome." ^ Sched.outcome_name outcome);
        outcome
    | Ok _ | Error _ ->
        Metrics.incr reg "net.errors";
        Sched.Rejected
  in
  let run_txn id plan =
    Metrics.incr reg "net.txns";
    let alive = ref (timed_call (Wire.Begin id) = Sched.Accepted) in
    List.iter
      (fun k -> if !alive then alive := timed_call (Wire.Read (id, k)) = Sched.Accepted)
      plan.Mix.reads;
    (if !alive then
       let fin =
         match plan.Mix.writes with
         | [] -> Wire.Complete id
         | es -> Wire.Write (id, es)
       in
       alive := timed_call fin = Sched.Accepted);
    Metrics.incr reg (if !alive then "net.txn.completed" else "net.txn.aborted")
  in
  for k = 0 to cfg.txns_per_client - 1 do
    let id = 1 + client + (cfg.clients * k) in
    run_txn id (Mix.next_plan sampler);
    match burst with
    | None -> ()
    | Some (on_ms, off_ms) ->
        (* arrival modulation: sleep out the rest of an off window *)
        let period = on_ms + off_ms in
        let elapsed_ms =
          int_of_float ((Unix.gettimeofday () -. started) *. 1000.)
        in
        let phase = elapsed_ms mod period in
        if phase >= on_ms then
          Thread.delay (float_of_int (period - phase) /. 1000.)
  done;
  Client.close c

let run cfg addr =
  if cfg.clients <= 0 then invalid_arg "Driver.run: clients must be positive";
  let regs = Array.init cfg.clients (fun _ -> Metrics.create ()) in
  let t0 = Unix.gettimeofday () in
  let threads =
    Array.to_list
      (Array.mapi
         (fun client reg ->
           Thread.create (fun () -> client_loop cfg addr ~client reg) ())
         regs)
  in
  List.iter Thread.join threads;
  let wall_seconds = Unix.gettimeofday () -. t0 in
  let metrics = Metrics.create () in
  Array.iter (fun r -> Metrics.merge ~into:metrics r) regs;
  let count name = Metrics.counter metrics name in
  let ops =
    List.fold_left
      (fun acc op -> acc + Metrics.histo_count metrics ("net.latency." ^ op))
      0
      [ "begin"; "read"; "write"; "complete" ]
  in
  {
    txns = count "net.txns";
    completed = count "net.txn.completed";
    aborted = count "net.txn.aborted";
    ops;
    wall_seconds;
    throughput =
      (if wall_seconds > 0. then float_of_int ops /. wall_seconds else 0.);
    metrics;
  }

type loopback = {
  driver : result;
  report : Dct_engine.Engine.report;
  p50_us : float;
  p90_us : float;
  p99_us : float;
}

let loopback ?gc_index ?executor ~policy ~shards ~batch ~flush_ms cfg =
  let module Eng = Dct_engine.Engine in
  let engine =
    Eng.create (Eng.config ~policy ?gc_index ?executor ~shards ~batch ())
  in
  let sock =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "dct-loopback-%d.sock" (Unix.getpid ()))
  in
  let srv = Server.create ~flush_ms ~engine (Addr.Unix_path sock) in
  Server.start srv;
  let driver =
    Fun.protect
      ~finally:(fun () -> Server.stop srv)
      (fun () -> run cfg (Server.addr srv))
  in
  let report = Server.finish srv ~wall_seconds:driver.wall_seconds in
  let pct p = Metrics.histo_percentile driver.metrics "net.latency.all" p /. 1e3 in
  { driver; report; p50_us = pct 50.; p90_us = pct 90.; p99_us = pct 99. }
