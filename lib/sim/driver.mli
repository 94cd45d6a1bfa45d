(** Feed a schedule to a scheduler and record what happened.

    The driver is model-agnostic: it streams steps into any
    {!Dct_sched.Scheduler_intf.handle}, samples residency on a fixed
    cadence, drains blocking schedulers at end of input, and returns a
    summary used by the experiment harness. *)

type sample = {
  at_step : int;
  resident_txns : int;
  resident_arcs : int;
  active_txns : int;
}

type result = {
  name : string;
  steps : int;
  accepted : int;
  rejected : int;
  delayed : int;
  ignored : int;
  final : Dct_sched.Scheduler_intf.stats;
  peak_resident : int;
  peak_arcs : int;
  mean_resident : float;
  samples : sample list;  (** oldest first *)
  wall_seconds : float;
}

val run :
  ?sample_every:int ->
  ?observe:(int -> Dct_txn.Step.t -> Dct_sched.Scheduler_intf.outcome -> unit) ->
  ?tracer:Dct_telemetry.Tracer.t ->
  Dct_sched.Scheduler_intf.handle ->
  Dct_txn.Schedule.t ->
  result
(** [sample_every] defaults to 16 steps.  Residency peaks are tracked at
    every step regardless of the sampling cadence.  [observe] is called
    after every step with the 1-based step number, the step and its
    outcome — the [--selfcheck] invariant audit hangs off this hook;
    whatever it raises aborts the run.  [tracer] (default disabled)
    receives {!Dct_telemetry.Tracer.checkpoint}s on the sampling
    cadence plus a final one after the drain, keeps the residency
    gauges (["resident_txns"], ["resident_arcs"],
    ["graph.resident_bytes"]) current at every step, so their
    high-water marks are per-step peaks, and is flushed before the
    driver returns.  [wall_seconds] is elapsed time on
    {!Dct_telemetry.Probe.now_ns}'s monotonic clock. *)

val run_fresh :
  ?sample_every:int ->
  (unit -> Dct_sched.Scheduler_intf.handle) list ->
  Dct_txn.Schedule.t ->
  result list
(** Run the same schedule through several independently constructed
    schedulers. *)
