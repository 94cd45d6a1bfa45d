(* The engine sweep: shard count x admission batch x contention x
   applier domains, each configuration run through the sharded engine
   on a shard-affine workload.

   Reported per configuration: throughput (steps/s), the coordinator's
   residency high-water mark, the worst per-shard residency high-water
   mark (the sharding win: it should sit well under the coordinator's),
   and the cross-shard arc count (the conflicts no shard sees in full).
   Every configuration is also run through the engine's differential
   mode, so the sweep doubles as an end-to-end exactness check; results
   land in BENCH_engine.json (BENCH_engine_par.json for the domains
   pairs alone, .smoke.json for either smoke run), re-read and
   validated by Bench_io before exit (the [make bench-engine] gate).

   The domains axis ([domains > 1]) runs the Domains executor — one
   applier domain per shard behind the coordinator — against the Inline
   row of the same workload, and records the speedup.
   The file header records [host_cores]: on a single-core host the
   domains are OS threads and the honest speedup is ~1x (or below);
   the exactness checks still hold there, which is the point. *)

module Gen = Dct_workload.Generator
module Policy = Dct_deletion.Policy
module Eng = Dct_engine.Engine
module Json = Dct_telemetry.Json

type config = {
  shards : int;
  batch : int;
  theta : float; (* zipf skew: higher = hotter keys = more contention *)
  cross_shard : float;
  n_txns : int;
  seed : int;
  domains : int; (* 1 = Inline executor; > 1 = one domain per shard *)
}

(* The parallel rows pair with grid rows: same workload (shards, batch,
   theta, n_txns, seed), domains = shards.  Speedup is computed against
   the domains = 1 row of the same workload. *)
let full_configs =
  let grid =
    List.concat_map
      (fun shards ->
        List.concat_map
          (fun batch ->
            List.map
              (fun theta ->
                {
                  shards;
                  batch;
                  theta;
                  cross_shard = 0.1;
                  n_txns = 400;
                  seed = 23;
                  domains = 1;
                })
              [ 0.5; 0.99 ])
          [ 1; 16; 64 ])
      [ 1; 2; 4; 8 ]
  in
  let par =
    List.map
      (fun shards ->
        {
          shards;
          batch = 16;
          theta = 0.99;
          cross_shard = 0.1;
          n_txns = 400;
          seed = 23;
          domains = shards;
        })
      [ 2; 4; 8 ]
  in
  grid @ par

let smoke_configs =
  [
    { shards = 2; batch = 8; theta = 0.9; cross_shard = 0.1; n_txns = 60;
      seed = 23; domains = 1 };
    { shards = 4; batch = 16; theta = 0.9; cross_shard = 0.2; n_txns = 60;
      seed = 29; domains = 1 };
    { shards = 2; batch = 8; theta = 0.9; cross_shard = 0.1; n_txns = 60;
      seed = 23; domains = 2 };
  ]

(* The paired subset alone: every parallel row plus its Inline
   baseline — the [make bench-engine-par] target. *)
let par_configs ~smoke =
  let all = if smoke then smoke_configs else full_configs in
  let pars = List.filter (fun c -> c.domains > 1) all in
  let baseline_of p = { p with domains = 1 } in
  List.concat_map (fun p -> [ baseline_of p; p ]) pars

let schedule_of c =
  Gen.basic
    {
      Gen.default with
      Gen.n_txns = c.n_txns;
      n_entities = 128;
      mpl = 8;
      skew = Printf.sprintf "zipf:%.2f" c.theta;
      seed = c.seed;
      shards = c.shards;
      cross_shard = c.cross_shard;
    }

type row = {
  c : config;
  mode : string;
  steps : int;
  throughput : float;
  committed : int;
  aborted : int;
  coordinator_hwm : int;
  shard_hwm : int;
  cross_arcs : int;
  distributed : int;
  differential_ok : bool;
}

let run_config c =
  let schedule = schedule_of c in
  let executor = if c.domains <= 1 then Eng.Inline else Eng.Domains in
  let cfg =
    Eng.config ~policy:Policy.Greedy_c1 ~executor ~shards:c.shards
      ~batch:c.batch ()
  in
  let engine = Eng.create cfg in
  let wall, r = Bench_io.time (fun () -> Eng.run engine schedule) in
  (* Timing comes from the run above; a Domains row's exactness check
     runs through the deterministic replay simulator (same protocol,
     and it additionally compares per-shard state and the telemetry
     trace against an Inline run). *)
  let d =
    Eng.differential
      ~executor:(if c.domains <= 1 then Eng.Inline else Eng.Replay c.seed)
      ~shards:c.shards ~batch:c.batch ~policy:Policy.Greedy_c1 schedule
  in
  let coord : Dct_engine.Coordinator.stats = r.Eng.coordinator in
  {
    c;
    mode = r.Eng.executor;
    steps = r.Eng.steps;
    throughput =
      (if wall > 0.0 then float_of_int r.Eng.steps /. wall else 0.0);
    committed = r.Eng.committed;
    aborted = r.Eng.aborted;
    coordinator_hwm = coord.resident_hwm;
    shard_hwm = r.Eng.shard_resident_hwm;
    cross_arcs = r.Eng.cross_shard_arcs;
    distributed = r.Eng.distributed_txns;
    differential_ok = Eng.differential_ok d;
  }

let same_workload a b =
  a.shards = b.shards && a.batch = b.batch && a.theta = b.theta
  && a.cross_shard = b.cross_shard && a.n_txns = b.n_txns && a.seed = b.seed

(* Speedup of a parallel row over the Inline row of the same
   workload; 1.0 for Inline rows, 0.0 when no baseline is present. *)
let speedup_of rows r =
  if r.c.domains <= 1 then 1.0
  else
    match
      List.find_opt
        (fun b -> b.c.domains = 1 && same_workload b.c r.c)
        rows
    with
    | Some b when b.throughput > 0.0 -> r.throughput /. b.throughput
    | _ -> 0.0

let json_of_row ~speedup r =
  Json.Obj
    [
      ("shards", Json.Int r.c.shards);
      ("batch", Json.Int r.c.batch);
      ("theta", Json.Float r.c.theta);
      ("cross_shard", Json.Float r.c.cross_shard);
      ("n_txns", Json.Int r.c.n_txns);
      ("seed", Json.Int r.c.seed);
      ("domains", Json.Int r.c.domains);
      ("mode", Json.String r.mode);
      ("steps", Json.Int r.steps);
      ("throughput_steps_per_s", Json.Float r.throughput);
      ("speedup_vs_single_domain", Json.Float speedup);
      ("committed", Json.Int r.committed);
      ("aborted", Json.Int r.aborted);
      ("coordinator_resident_hwm", Json.Int r.coordinator_hwm);
      ("shard_resident_hwm", Json.Int r.shard_hwm);
      ("cross_shard_arcs", Json.Int r.cross_arcs);
      ("distributed_txns", Json.Int r.distributed);
      ("differential_ok", Json.Bool r.differential_ok);
    ]

let checks =
  Bench_io.
    [
      ("every differential_ok is true", each (Json.bool "differential_ok"));
      ( "one non-negative throughput and speedup per row",
        each (fun r ->
            Json.float "throughput_steps_per_s" r >= 0.0
            && Json.float "speedup_vs_single_domain" r >= 0.0) );
      (* the residency guarantee, as serialized *)
      ( "shard hwm <= coordinator hwm",
        each (fun r ->
            Json.int "shard_resident_hwm" r
            <= Json.int "coordinator_resident_hwm" r) );
    ]

let run_rows ~sweep ~smoke configs =
  Printf.printf "engine sweep (%d configs, %d host cores)%s\n"
    (List.length configs) Bench_io.host_cores
    (if smoke then " [smoke]" else "");
  Printf.printf "%6s %6s %6s %7s %6s %10s %8s %10s %9s %9s %6s\n" "shards"
    "batch" "theta" "domains" "steps" "steps/s" "speedup" "coord hwm"
    "shard hwm" "crossarcs" "diff";
  let failures = ref 0 in
  let rows = List.map run_config configs in
  let jsons =
    List.map
      (fun r ->
        let speedup = speedup_of rows r in
        if not r.differential_ok then incr failures;
        Printf.printf "%6d %6d %6.2f %7d %6d %10.0f %8.2f %10d %9d %9d %6s\n"
          r.c.shards r.c.batch r.c.theta r.c.domains r.steps r.throughput
          speedup r.coordinator_hwm r.shard_hwm r.cross_arcs
          (if r.differential_ok then "ok" else "FAIL");
        json_of_row ~speedup r)
      rows
  in
  if Bench_io.host_cores = 1 then
    Printf.printf
      "note: single-core host — domain rows measure protocol overhead, \
       not speedup\n";
  Bench_io.emit ~sweep ~smoke ~checks ~failures:!failures jsons

let run ~smoke () =
  run_rows ~sweep:"engine" ~smoke (if smoke then smoke_configs else full_configs)

(* Only the parallel rows and their Inline baselines. *)
let run_par ~smoke () = run_rows ~sweep:"engine_par" ~smoke (par_configs ~smoke)
