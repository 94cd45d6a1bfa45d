(** Closed-loop load driver: [clients] concurrent connections, each
    issuing [txns_per_client] transactions drawn from a {!Dct_workload.Mix}
    sampler (per-client seed), one op at a time — every op's latency is
    its full round trip to a decision.

    Per-op latencies land in nanosecond histograms
    ["net.latency.<begin|read|write|complete>"] (and the combined
    ["net.latency.all"]), outcomes in counters
    ["net.outcome.<o>"], merged across clients into one registry
    ({!Dct_telemetry.Metrics.histo_percentile} gives the p50/p90/p99
    the bench sweep reports).  The {!Dct_workload.Mix.Bursty} mix
    sleeps out the off windows of its arrival modulation. *)

type cfg = {
  clients : int;
  txns_per_client : int;
  mix : Dct_workload.Mix.t;
  keys : int;
  seed : int;
  dialect : Wire.dialect;
}

type result = {
  txns : int;
  completed : int;
  aborted : int;  (** rejected mid-transaction; remaining ops skipped *)
  ops : int;
  wall_seconds : float;
  throughput : float;  (** ops per second *)
  metrics : Dct_telemetry.Metrics.t;
}

val run : cfg -> Addr.t -> result
(** Blocks until every client has finished. *)

type loopback = {
  driver : result;
  report : Dct_engine.Engine.report;
  p50_us : float;  (** ["net.latency.all"] percentiles, microseconds *)
  p90_us : float;
  p99_us : float;
}

val loopback :
  ?gc_index:Dct_deletion.Deletability_index.mode ->
  ?executor:Dct_engine.Engine.executor ->
  policy:Dct_deletion.Policy.t ->
  shards:int ->
  batch:int ->
  flush_ms:int ->
  cfg ->
  loopback
(** One loopback run: build the engine ({!Dct_engine.Engine.config}'s
    defaults for what is not given), serve it on a temporary Unix
    socket with the given group-commit [flush_ms], {!run} the clients
    against it, then stop and finish the server.
    @raise Dct_engine.Engine.Shard_failure if a shard applier died. *)
