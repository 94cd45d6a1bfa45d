(** The certification (optimistic) variant of the conflict-graph
    scheduler (§2).

    Active transactions run free: reads and the data-gathering for the
    final write are always accepted and merely recorded.  When a
    transaction reaches its final write it is {e certified}: arcs
    between it and every present transaction are derived from the
    recorded conflict order, and the transaction commits iff adding them
    keeps the graph acyclic; otherwise it aborts (and would be restarted
    by the client).

    {b No deletion policy is offered, deliberately.}  The paper develops
    its deletion theory for the {e preventive} scheduler only ("the
    issues are very similar in the two cases, so we will restrict
    ourselves to the second one", §2) — and the restriction is
    substantive.  The certifier records conflicts {e silently} and
    derives arcs only at certification time, so its graph is not a
    reduced graph in the §4 sense: two present transactions can have
    executed conflicting steps with no arc between them (a read
    performed after the writer certified).  C1 evaluated on that
    arc-deficient graph will delete transactions whose conflict
    evidence a later certification still needs — the test-suite carries
    a deterministic 4-transaction counterexample where C1-deletion
    makes the certifier accept a non-CSR schedule
    ([test_online_reduction.ml]).  This is the graph-scheduler face of
    the classical OCC rule that committed write-sets must be retained
    while overlapping transactions are still active (Kung–Robinson). *)

type t

val create :
  ?oracle:Dct_graph.Cycle_oracle.backend ->
  ?tracer:Dct_telemetry.Tracer.t ->
  ?gc_index:Dct_deletion.Deletability_index.mode ->
  unit ->
  t
(** [oracle] selects the cycle-check backend used at certification time
    (default: [Topo]); [tracer] threads the telemetry handle through the
    graph state.  [gc_index] attaches a
    deletability index — it only matters under
    {!unsafe_step_with_policy} (the certifier itself never deletes),
    where it keeps the unsound-deletion demonstrations index-covered
    too.  {!copy} re-attaches a fresh index to the replica. *)

val copy : t -> t
(** Deep copy — lets the generic safety oracle
    ([Dct_deletion.Online_reduction]) replay continuations against
    certifier states. *)

val step : t -> Dct_txn.Step.t -> Scheduler_intf.outcome
(** [Rejected] can only be returned for a final [Write] (certification
    failure); reads never fail. *)

val graph_state : t -> Dct_deletion.Graph_state.t
val stats : t -> Scheduler_intf.stats
val handle :
  ?oracle:Dct_graph.Cycle_oracle.backend ->
  ?tracer:Dct_telemetry.Tracer.t ->
  ?gc_index:Dct_deletion.Deletability_index.mode ->
  unit ->
  Scheduler_intf.handle

(**/**)

val unsafe_step_with_policy :
  t -> Dct_deletion.Policy.t -> Dct_txn.Step.t -> Scheduler_intf.outcome
(** Exposed only so the test-suite can demonstrate that running a
    preventive-scheduler deletion policy under certification is unsound. *)
