(** The preventive conflict-graph scheduler of §2 with a pluggable
    deletion policy — the paper's system, end to end.

    Each incoming step is run through Rules 1–3 ({!Dct_deletion.Rules});
    after every accepted step the deletion policy is applied to the
    resulting reduced graph ([R_P] of §4).  With
    [Policy.Unsafe_commit_time] the scheduler becomes the classic broken
    strawman: it will accept non-CSR schedules (demonstrated in the test
    suite), which is precisely the paper's motivation. *)

type t

val create :
  ?policy:Dct_deletion.Policy.t ->
  ?storage:Dct_kv.Storage.t ->
  ?oracle:Dct_graph.Cycle_oracle.backend ->
  ?tracer:Dct_telemetry.Tracer.t ->
  ?gc_index:Dct_deletion.Deletability_index.mode ->
  unit ->
  t
(** [policy] defaults to [No_deletion].  When [storage] is given,
    accepted steps are applied to it (writes install a fresh value
    derived from the scheduler's step counter), it follows the graph
    state's removals ({!Scheduler_intf.attach_storage}), and its WAL, if
    any, is truncated at the end of every step — the log-truncation
    reading of the paper.
    [oracle] selects the cycle-check engine
    ({!Dct_graph.Cycle_oracle.backend}, default [Topo]).  Identical
    decisions under every backend, different cost profile (see the
    oracle sweep benchmarks).
    [tracer] threads the telemetry handle through the graph state and —
    via {!handle_of} — wraps the step loop with
    {!Scheduler_intf.trace_steps}; tracing never changes a decision.
    [gc_index] attaches a {!Dct_deletion.Deletability_index} to the
    graph state and serves every policy run from it — same deletions,
    different cost profile; [Checked] raises
    {!Dct_deletion.Deletability_index.Divergence} on any mismatch with
    the naive reference (see [docs/gc.md]). *)

val step : t -> Dct_txn.Step.t -> Scheduler_intf.outcome

val graph_state : t -> Dct_deletion.Graph_state.t
(** The live reduced graph (read-only use). *)

val stats : t -> Scheduler_intf.stats

val collect_garbage : t -> Dct_graph.Intset.t
(** Run the deletion policy once outside the step path, then truncate
    the storage's log.  Needed after out-of-band aborts (e.g. a client
    voluntarily abandoning a transaction through {!graph_state}):
    removing an active transaction can only enlarge the eligible set. *)

val deleted_log : t -> (int * Dct_graph.Intset.t) list
(** [(step_number, deleted_set)] for every non-empty policy invocation,
    oldest first. *)

val handle_of : t -> Scheduler_intf.handle
(** Wrap an existing scheduler for the simulation driver — used when the
    caller also needs {!graph_state} (e.g. [dct simulate --selfcheck]). *)

val handle :
  ?policy:Dct_deletion.Policy.t ->
  ?storage:Dct_kv.Storage.t ->
  ?oracle:Dct_graph.Cycle_oracle.backend ->
  ?tracer:Dct_telemetry.Tracer.t ->
  ?gc_index:Dct_deletion.Deletability_index.mode ->
  unit ->
  Scheduler_intf.handle
(** A fresh scheduler wrapped for the simulation driver. *)
