(** The online transaction-processing engine: partitioned data, batched
    admission, coordinator-exact serializability, deletion-policy GC.

    Composition (see [docs/engine.md] for the full picture):

    {v
     submit --> Admission (batch B) --> per step: Coordinator.decide
                                           |  accepted   |  rejected
                                           v             v
                                   owning Shard(s)   hosting Shards
                                   mirror accesses,  abort + undo
                                   arcs, store, WAL
                                           |
                              Coordinator GC -> broadcast deletions
                              batch end: per-shard local GC + barrier
    v}

    The coordinator is the only decision-maker: it runs the single-node
    SGT rules on the global conflict graph and emits commands that the
    shards only mirror (projection arcs, store writes, WAL records,
    local GC, broadcast deletions).  An {!executor} decides how those
    commands reach the shards; decisions never depend on it.  At every
    admission-batch boundary each shard runs its local GC round and
    answers a numbered barrier with the conflict arcs it recorded since
    the previous one; arcs are classified as cross- or local-shard when
    the barrier is reaped.

    Guarantees, asserted by {!differential} and the test suites:
    - {e Exactness}: the outcome of every submitted step equals the
      single-node SGT scheduler's outcome on the same (merged) step
      sequence — the coordinator {e is} that scheduler.  Batching
      changes when work happens, never what is decided.
    - {e Residency}: each shard's resident-transaction count never
      exceeds the single-node scheduler's at the same step (broadcast
      GC gives <=; local GC usually does strictly better).
    - {e Data}: each entity's value in its owning shard's store equals
      the single-node store's.
    - {e Executor independence}: every executor leaves the shards, the
      counters and the trace byte-identical to {!Inline}'s.

    Basic-model steps only ([Begin]/[Read]/final [Write]); multi-write
    and predeclared engines are future work. *)

(** How shard commands reach the shards. *)
type executor =
  | Inline
      (** the default: each command is applied on the calling domain as
          soon as the coordinator emits it, so between calls every shard
          is exactly where the last decided step left it *)
  | Domains
      (** one OCaml 5 domain per shard, fed one command batch per
          admission batch through a mailbox; the coordinator decides
          batch [b+1] while the shards apply batch [b] *)
  | Replay of int
      (** the [Domains] protocol simulated on the calling domain, with
          the seed choosing which shard advances between coordinator
          sends — every seed must give identical results *)

val executor_name : executor -> string

val available_domains : unit -> int
(** [Domain.recommended_domain_count ()].  On a one-core host prefer
    [Inline] or [Replay]: [Domains] still works (domains are OS threads)
    but cannot speed anything up. *)

exception Shard_failure of int * string
(** A shard applier died: [(shard_id, description)].  Raised by the
    coordinator rather than deadlocking on a barrier that can never be
    answered. *)

type config = {
  shards : int;
  batch : int;
  policy : Dct_deletion.Policy.t;
  partitioner : Partitioner.t;
  oracle : Dct_graph.Cycle_oracle.backend option;
      (** Backend for the {e coordinator}'s graph ([None]: the
          default, [Topo]).  Shards always use the default. *)
  tracer : Dct_telemetry.Tracer.t;
      (** Receives the coordinator's [Step_submitted]/[Decision] and
          GC-round events, a [Checkpoint_stats] after every batch, and
          the ["engine.shard<i>.resident_txns"] gauges, each set as
          that shard's barrier ack is reaped.  Telemetry does not change
          when barriers are reaped: traced runs pipeline exactly as
          untraced ones, and every [report] field but [wall_seconds] is
          the same with and without it. *)
  gc_index : Dct_deletion.Deletability_index.mode option;
      (** Deletability-index backend for {e both} the coordinator's
          global GC and every shard's local GC ([None] = naive
          re-evaluation, the reference path). *)
  executor : executor;
}

val config :
  ?policy:Dct_deletion.Policy.t ->
  ?partitioner:Partitioner.t ->
  ?oracle:Dct_graph.Cycle_oracle.backend ->
  ?tracer:Dct_telemetry.Tracer.t ->
  ?gc_index:Dct_deletion.Deletability_index.mode ->
  ?executor:executor ->
  shards:int ->
  batch:int ->
  unit ->
  config
(** Defaults: policy [Greedy_c1], hash partitioner over [shards], no
    oracle, disabled tracer, no deletability index, [Inline].
    @raise Invalid_argument if [shards <= 0], [batch <= 0], or the
    partitioner's shard count differs from [shards]. *)

(** Test-only fault hooks on the coordinator's send path, for the
    mutation checks: each injected fault must make the differential
    fail, or the suite is not actually sensitive to the protocol. *)
module Fault : sig
  type t = {
    mutable drop_broadcast : (int * int) option;
        (** [(n, shard)]: the [n]-th (0-based) broadcast-GC round is
            not delivered to [shard] *)
    mutable reorder_batch : (int * int) option;
        (** [(n, shard)]: the [n]-th (0-based) batch flushed to
            [shard] has its commands (not the barrier) reversed; a no-op
            under [Inline], which has applied them already *)
    mutable crash_cmd : (int * int) option;
        (** [(n, shard)]: the [n]-th (0-based) batch flushed to [shard]
            ends in a crash, killing that applier before it can ack the
            batch's barrier — the run must raise {!Shard_failure} *)
    mutable broadcasts : int;  (** broadcast rounds seen *)
    mutable dropped : int;  (** messages actually dropped *)
    mutable reordered : int;  (** batches actually reordered *)
    mutable crashes : int;  (** crashes actually injected *)
  }

  val create : unit -> t
end

type t

val create : ?fault:Fault.t -> config -> t
(** Under [Domains] this spawns the shard domains; {!finish} joins
    them. *)

val submit : t -> Dct_txn.Step.t -> unit
(** Queue a step; processes a full batch synchronously when this step
    fills one. *)

val tick : t -> unit
(** Flush and process the pending partial batch (the group-commit
    timer). *)

val pending : t -> int
(** Steps sitting in the admission queue, not yet decided. *)

val set_on_step :
  t -> (int -> Dct_txn.Step.t -> Dct_sched.Scheduler_intf.outcome -> unit) option -> unit
(** Install (or clear) the per-decision callback outside {!run} — the
    hook an incremental feeder (the network server) uses to route each
    outcome back to the submitting client.  Fires with the 1-based
    global step index immediately after the step is decided. *)

val abort : t -> int -> bool
(** Client-initiated abort.  [true] if the transaction was active and
    is now aborted everywhere (coordinator graph and every hosting
    shard); [false] (a no-op) for unknown, completed, or already
    aborted transactions.  Queued steps of the transaction are decided
    [Ignored] when their batch flushes. *)

val steps_processed : t -> int

val shard_count : t -> int

val shard : t -> int -> Shard.t
(** Readable between calls under [Inline]; under the other executors
    only after {!finish}. *)

val coordinator : t -> Coordinator.t

(** {1 Reports} *)

type report = {
  name : string;
  executor : string;  (** {!executor_name} *)
  domains : int;  (** domains the shard appliers run on *)
  barriers : int;
  shards : int;
  batch : int;
  steps : int;
  accepted : int;
  rejected : int;
  ignored : int;
  committed : int;
  aborted : int;
  submitted : int;
  full_batches : int;
  ticks : int;
  coordinator : Coordinator.stats;
  shard_stats : Shard.stats array;
  shard_resident_hwm : int;  (** max over shards of the per-shard HWM *)
  cross_shard_arcs : int;
      (** conflict arcs with an endpoint hosted on more than one shard —
          the arcs only the coordinator graph can see in full *)
  local_arcs : int;
  distributed_txns : int;  (** transactions that touched >= 2 shards *)
  wall_seconds : float;
}

val run :
  ?on_step:(int -> Dct_txn.Step.t -> Dct_sched.Scheduler_intf.outcome -> unit) ->
  t ->
  Dct_txn.Step.t list ->
  report
(** Submit every step, then {!finish}.  [on_step] fires immediately
    after each step is {e decided} (its argument is the 1-based global
    step index) — the differential harness runs the reference scheduler
    in lock-step from it.
    @raise Shard_failure if a shard applier died. *)

val report : t -> wall_seconds:float -> report
(** A report on a live engine: reaps every outstanding barrier first
    (under [Domains], awaiting it), then reads shard state. *)

val finish : t -> wall_seconds:float -> report
(** The end-of-input epilogue {!run} performs, exposed for incremental
    feeders: flush the pending partial batch, run a final global GC
    round (broadcast included) plus a local round per shard, await
    every barrier, stop the appliers, emit the last checkpoint, flush
    the tracer, and report.  Call exactly once.
    @raise Shard_failure if a shard applier died — including one that
    died {e after} its last awaited barrier. *)

(** {1 Differential mode} *)

type differential_report = {
  d_steps : int;
  d_shards : int;
  d_executor : string;
  outcome_mismatches : (int * string * string) list;
      (** (step index, engine outcome, single-node outcome) *)
  deletion_mismatches : (int * string * string) list;
      (** (round, engine round, single-node round) *)
  residency_violations : (int * int * int * int) list;
      (** (step index, shard, shard resident, single-node resident) *)
  store_mismatches : (int * int * int) list;
      (** (entity, engine value, single-node value) *)
  shard_divergences : (int * string) list;
      (** (shard, description) against an [Inline] run; always [[]]
          for [Inline] itself *)
  trace_divergence : string option;
      (** first differing JSONL line against an [Inline] run *)
  committed_engine : int;
  committed_single : int;
  aborted_engine : int;
  aborted_single : int;
  engine_shard_peak : int;
  single_peak : int;
}

val differential :
  ?executor:executor ->
  ?fault:Fault.t ->
  ?oracle:Dct_graph.Cycle_oracle.backend ->
  ?partitioner:Partitioner.t ->
  ?gc_index:Dct_deletion.Deletability_index.mode ->
  shards:int ->
  batch:int ->
  policy:Dct_deletion.Policy.t ->
  Dct_txn.Step.t list ->
  differential_report
(** Run the engine under [executor] (default [Inline]) and a fresh
    single-node SGT scheduler (same policy) over the same step sequence
    in lock-step, and compare per-step outcomes, deletion rounds, final
    stores entity by entity, and commit and abort counts.  Shard
    residency is checked against the single-node residency at the same
    step: after every step under [Inline], at every barrier otherwise.
    Any other executor is also traced and compared with an [Inline] run
    of the same configuration: per-shard residents, stores, WALs and
    counters, and the JSONL trace (timings scrubbed).  [fault] arms the
    run under test, never the reference.  [gc_index] applies to every
    GC site on every side, so [Checked] turns this into a differential
    over the index as well. *)

val differential_ok : differential_report -> bool

val pp_differential : Format.formatter -> differential_report -> unit

val first_trace_divergence : string -> string -> string option
(** [first_trace_divergence trace reference]: the first differing line
    of two JSONL traces, with the wall-clock ["ns"] fields scrubbed
    first; [None] when they agree. *)
