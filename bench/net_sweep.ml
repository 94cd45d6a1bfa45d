(* The network sweep: workload mix x shards x deletion policy x
   gc-index, each configuration served over a loopback Unix socket by
   the threaded server and driven by the closed-loop multi-client
   driver.

   Reported per configuration: driver-side throughput (ops/s), the
   p50/p90/p99 op latency from the merged nanosecond histograms, the
   completed/aborted transaction split, and the server engine's
   resident-graph high-water marks (coordinator and worst shard) — the
   number the paper's deletion machinery is supposed to keep low while
   traffic flows.  Results land in BENCH_net.json (BENCH_net.smoke.json
   for the smoke run), re-read and validated by Bench_io before exit
   (the [make bench-net] gate): every workload class must have a row,
   including the pinned-deletability scenario (long-reader-pin), whose
   coordinator high-water mark is what the adversarial long readers
   are pinning.

   The header records [host_cores] honestly: on a single-core CI host
   the client threads and the server interleave on one core, so
   throughput measures protocol + engine overhead, not parallelism. *)

module Mix = Dct_workload.Mix
module Policy = Dct_deletion.Policy
module Didx = Dct_deletion.Deletability_index
module Eng = Dct_engine.Engine
module Driver = Dct_net.Driver
module Json = Dct_telemetry.Json

type config = {
  mix : Mix.t;
  clients : int;
  txns_per_client : int;
  keys : int;
  shards : int;
  batch : int;
  policy : Policy.t;
  gc_index : Didx.mode option;
  seed : int;
}

let base =
  {
    mix = Mix.Ycsb_b;
    clients = 4;
    txns_per_client = 60;
    keys = 512;
    shards = 4;
    batch = 8;
    policy = Policy.Greedy_c1;
    gc_index = None;
    seed = 42;
  }

(* Every mix once on the base configuration, then secondary axes on
   YCSB-B (the read-mostly staple) and on the pinned-deletability
   scenario (where GC pressure is the point). *)
let full_configs =
  List.map (fun mix -> { base with mix }) Mix.all
  @ List.concat_map
      (fun mix ->
        [
          { base with mix; shards = 1 };
          { base with mix; shards = 8 };
          { base with mix; policy = Policy.Noncurrent };
          { base with mix; policy = Policy.No_deletion };
          { base with mix; gc_index = Some Didx.Incremental };
        ])
      [ Mix.Ycsb_b; Mix.Long_reader_pin ]

(* Smoke keeps every workload class (the BENCH_net.json contract) but
   shrinks the traffic; one extra row exercises the gc-index axis. *)
let smoke_configs =
  List.map
    (fun mix -> { base with mix; clients = 2; txns_per_client = 12; keys = 128 })
    Mix.all
  @ [
      {
        base with
        mix = Mix.Long_reader_pin;
        clients = 2;
        txns_per_client = 12;
        keys = 128;
        gc_index = Some Didx.Incremental;
      };
    ]

let run_config c =
  Driver.loopback ~policy:c.policy ?gc_index:c.gc_index ~shards:c.shards
    ~batch:c.batch ~flush_ms:2
    {
      Driver.clients = c.clients;
      txns_per_client = c.txns_per_client;
      mix = c.mix;
      keys = c.keys;
      seed = c.seed;
      dialect = Dct_net.Wire.Binary;
    }

let gc_index_name c =
  match c.gc_index with None -> "naive" | Some m -> Didx.mode_name m

let json_of_row c (lb : Driver.loopback) =
  let d = lb.driver and r = lb.report in
  Json.Obj
    [
      ("mix", Json.String (Mix.name c.mix));
      ("backend", Json.String r.Eng.executor);
      ("clients", Json.Int c.clients);
      ("txns_per_client", Json.Int c.txns_per_client);
      ("keys", Json.Int c.keys);
      ("shards", Json.Int c.shards);
      ("batch", Json.Int c.batch);
      ("policy", Json.String (Policy.name c.policy));
      ("gc_index", Json.String (gc_index_name c));
      ("seed", Json.Int c.seed);
      ("txns", Json.Int d.txns);
      ("completed", Json.Int d.completed);
      ("aborted", Json.Int d.aborted);
      ("ops", Json.Int d.ops);
      ("throughput_ops_per_s", Json.Float d.throughput);
      ("p50_us", Json.Float lb.p50_us);
      ("p90_us", Json.Float lb.p90_us);
      ("p99_us", Json.Float lb.p99_us);
      ( "coordinator_resident_hwm",
        Json.Int r.Eng.coordinator.Dct_engine.Coordinator.resident_hwm );
      ("shard_resident_hwm", Json.Int r.Eng.shard_resident_hwm);
    ]

let checks =
  Bench_io.
    [
      ( "a row for every workload class",
        fun rows ->
          List.for_all
            (fun mix ->
              List.exists (fun r -> Json.string "mix" r = Mix.name mix) rows)
            Mix.all );
      ( "one non-negative throughput per row",
        each (fun r -> Json.float "throughput_ops_per_s" r >= 0.0) );
      ( "p50 <= p90 <= p99",
        each (fun r ->
            Json.float "p50_us" r <= Json.float "p90_us" r
            && Json.float "p90_us" r <= Json.float "p99_us" r) );
      ( "completed + aborted = txns",
        each (fun r ->
            Json.int "completed" r + Json.int "aborted" r = Json.int "txns" r) );
    ]

let run ~smoke () =
  let configs = if smoke then smoke_configs else full_configs in
  Printf.printf "net sweep (%d configs, %d host cores)%s\n"
    (List.length configs) Bench_io.host_cores
    (if smoke then " [smoke]" else "");
  Printf.printf "%-16s %7s %6s %8s %10s %8s %8s %8s %6s %6s\n" "mix" "shards"
    "policy" "gcidx" "ops/s" "p50us" "p99us" "txns" "coord" "shard";
  let rows =
    List.map
      (fun c ->
        let lb = run_config c in
        let d = lb.Driver.driver and r = lb.Driver.report in
        Printf.printf "%-16s %7d %6s %8s %10.0f %8.0f %8.0f %8d %6d %6d\n"
          (Mix.name c.mix) c.shards
          (String.sub (Policy.name c.policy) 0
             (min 6 (String.length (Policy.name c.policy))))
          (gc_index_name c) d.Driver.throughput lb.Driver.p50_us
          lb.Driver.p99_us d.Driver.txns
          r.Eng.coordinator.Dct_engine.Coordinator.resident_hwm
          r.Eng.shard_resident_hwm;
        json_of_row c lb)
      configs
  in
  if Bench_io.host_cores = 1 then
    Printf.printf
      "note: single-core host — clients and server share one core; \
       throughput measures protocol + engine overhead\n";
  Bench_io.emit ~sweep:"net" ~smoke ~checks ~failures:0 rows
