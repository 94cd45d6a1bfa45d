(** The §5 predeclared-transactions conflict-graph scheduler
    (Rules 1'–3').

    Transactions declare their full read/write sets at BEGIN.  The
    scheduler adds the conflict arc at the {e first} of two conflicting
    steps: at BEGIN, arcs from every transaction that has already
    executed a step conflicting with a declared future step; at each
    data step, arcs from the stepping transaction to every transaction
    that {e will} perform a conflicting step later.  A step whose arcs
    would close a cycle is {e delayed} — queued and retried after
    subsequent events — never aborted; the paper shows the waits-for
    relation can never deadlock, which the implementation asserts.

    A transaction completes (and, aborts being impossible, commits) when
    it has performed every declared access.  Deletion uses condition C4
    (polynomial, Theorem 7). *)

type t

val create :
  ?use_c4_deletion:bool ->
  ?oracle:Dct_graph.Cycle_oracle.backend ->
  ?tracer:Dct_telemetry.Tracer.t ->
  ?gc_index:Dct_deletion.Deletability_index.mode ->
  unit ->
  t
(** [use_c4_deletion] (default false) greedily deletes C4-eligible
    completed transactions after each completion.  [oracle] selects the
    cycle-check backend used by the delay test (default: [Topo]).
    [tracer] threads the telemetry handle through (C4 deletions are
    reported as policy ["c4"], refusals as condition ["c4"]).
    [gc_index] (only meaningful with [use_c4_deletion]) maintains the
    C4 verdicts incrementally — C4 tight paths run through active
    nodes too, so every arc seeds the dirty set, but re-checks still
    stay inside the changed region. *)

val step : t -> Dct_txn.Step.t -> Scheduler_intf.outcome
(** [Delayed] means the step is queued inside the scheduler.  Steps must
    stay within the declaration.  @raise Invalid_argument otherwise. *)

val drain : t -> int
(** Retry queued steps to a fixpoint; returns how many executed.  Once
    every transaction's full declared step list has been submitted,
    deadlock-freedom guarantees the queue flushes completely (checked by
    the test-suite). *)

val pending : t -> int

val execution_log : t -> Dct_txn.Step.t list
(** Data steps in actual execution order (delayed steps appear when they
    finally ran); its projection on any transaction set must be CSR. *)

val graph_state : t -> Dct_deletion.Graph_state.t
val stats : t -> Scheduler_intf.stats

val handle_of : t -> Scheduler_intf.handle
(** Wrap an existing scheduler (callers that also need {!graph_state}). *)

val handle :
  ?use_c4_deletion:bool ->
  ?oracle:Dct_graph.Cycle_oracle.backend ->
  ?tracer:Dct_telemetry.Tracer.t ->
  ?gc_index:Dct_deletion.Deletability_index.mode ->
  unit ->
  Scheduler_intf.handle
