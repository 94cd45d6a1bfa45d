(** The §5 multi-write conflict-graph scheduler.

    Transactions interleave reads and writes freely, so a transaction
    can read from a still-active one and become {e dependent} on it: if
    the provider aborts, the dependent must abort too (cascading
    aborts), and a finished transaction cannot commit until it depends
    on no active transaction (state F, then C).

    The scheduler maintains the conflict graph step-by-step exactly as
    the basic one, plus the dependency relation (read-from) against a
    versioned store in its own {!Dct_kv.Storage}, which follows the
    graph state's removals; aborts cascade through the dependents'
    closure.

    Deletion uses condition C3, which is NP-hard to test (Theorem 6) —
    the policy is therefore bounded: it only runs the exact test while
    the number of active transactions is at most a configurable cap. *)

type deletion_mode =
  | No_deletion
  | C3_exact of int
      (** run [Condition_c3] after each commit while [#actives ≤ cap] *)

type t

val create :
  ?deletion:deletion_mode ->
  ?oracle:Dct_graph.Cycle_oracle.backend ->
  ?tracer:Dct_telemetry.Tracer.t ->
  ?gc_index:Dct_deletion.Deletability_index.mode ->
  unit ->
  t
(** [oracle] selects the cycle-check backend (default: [Topo]);
    [tracer] threads the telemetry handle through (C3 deletions are
    reported as policy ["c3-exact"], refusals as condition ["c3"]).
    [gc_index]: C3 is {e not} incrementally indexable — its verdict
    ranges over dependency closures, which no tight-neighbourhood dirty
    region bounds (docs/gc.md) — so [Incremental] runs the naive
    decision (gc latency is still attributed to the chosen backend) and
    [Checked] cross-checks [quick_reject] against the exact enumeration
    on every candidate, raising
    {!Dct_deletion.Deletability_index.Divergence} if the polynomial
    necessary test ever contradicts it. *)

val step : t -> Dct_txn.Step.t -> Scheduler_intf.outcome
(** [Rejected] covers both a cycle-closing step and a cascading abort
    triggered by one (the stepping transaction's whole dependent closure
    aborts with it). *)

val graph_state : t -> Dct_deletion.Graph_state.t
val storage : t -> Dct_kv.Storage.t
val stats : t -> Scheduler_intf.stats

val cascaded_total : t -> int
(** Transactions aborted {e because} a provider aborted (excludes the
    provider itself). *)

val handle_of : t -> Scheduler_intf.handle
(** Wrap an existing scheduler (callers that also need {!graph_state}). *)

val handle :
  ?deletion:deletion_mode ->
  ?oracle:Dct_graph.Cycle_oracle.backend ->
  ?tracer:Dct_telemetry.Tracer.t ->
  ?gc_index:Dct_deletion.Deletability_index.mode ->
  unit ->
  Scheduler_intf.handle
