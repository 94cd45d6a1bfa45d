(** Offline auditing of scheduler/policy decision traces.

    A running scheduler produces a {!trace}: one {!event} per submitted
    step with the decision taken, and one per non-empty deletion-policy
    invocation.  The auditor replays the trace on a fresh
    {!Dct_deletion.Graph_state} and cross-checks every decision:

    - each step's recorded decision must match a replay through
      {!Dct_deletion.Rules.apply} (determinism check);
    - each deletion must be {e justified}: only present, completed
      transactions, and the deleted set must pass
      {!Dct_deletion.Condition_c2} — or, failing the simultaneous test,
      admit an order of single deletions each valid under
      {!Dct_deletion.Condition_c1} on the intermediate reduced graphs
      (Theorem 4 makes the two agree for simultaneous reductions; the
      sequential search also justifies iterative policies like
      [Greedy_c1]); optionally a bounded {!Dct_deletion.Safety} search
      is consulted as the last word;
    - the final accepted schedule must be conflict-serializable,
      checked by folding its conflict graph into a transitive
      {!Dct_graph.Closure} and probing for self-reachability.

    The auditor stops at the {e first} unjustified decision.  A
    [Policy.Unsafe_commit_time] run is flagged on the paper's
    motivating schedules; every policy in [Policy.all_correct] passes
    (tested). *)

type decision = Accepted | Rejected | Ignored

type event =
  | Decision of { index : int; step : Dct_txn.Step.t; decision : decision }
      (** [index] is the 0-based position of the step in the input. *)
  | Deletion of { index : int; deleted : Dct_graph.Intset.t }
      (** The policy deleted [deleted] right after step [index]. *)
  | Abort of { index : int; txn : int }
      (** [txn] was aborted after step [index] outside any step's
          decision (a client abort); replayed as
          {!Dct_deletion.Graph_state.abort_txn}, and its steps leave the
          accepted schedule. *)

type trace = event list

val record :
  ?policy:Dct_deletion.Policy.t ->
  ?oracle:Dct_graph.Cycle_oracle.backend ->
  Dct_txn.Schedule.t ->
  trace
(** Run a schedule through {!Dct_deletion.Rules.apply} with the policy
    applied after every non-ignored step (mirroring
    [Conflict_scheduler]), recording everything.  [policy] defaults to
    [No_deletion]; [oracle] selects the recording run's cycle-check
    backend (the differential tests record with each backend and assert
    identical traces).
    @raise Invalid_argument on malformed schedules — lint first. *)

val of_telemetry : Dct_telemetry.Event.t list -> (trace, string) result
(** Rebuild an auditable trace from a telemetry event stream
    ([dct trace --audit]): [Step_submitted]/[Decision] pairs (matched by
    step index) become {!Decision} events, [Deletion_ok] becomes a
    {!Deletion} anchored {e after} the decision of the step whose
    processing produced it (the policy runs inside the scheduler's
    [step], so its events precede that step's [Decision] in the
    stream), and [Txn_aborted] becomes an {!Abort} placed after the
    deletions seen so far; all other events are skipped.  Fails on a decision without
    its step, an unknown outcome, or a ["delayed"] decision — blocking
    schedulers cannot be replayed through the basic-model rules. *)

type finding =
  | Malformed_step of { index : int; step : Dct_txn.Step.t; error : string }
  | Decision_mismatch of {
      index : int;
      step : Dct_txn.Step.t;
      recorded : decision;
      replayed : decision;
    }
  | Illegal_deletion of { index : int; txn : int; reason : string }
      (** deleted transaction absent or not completed *)
  | Unjustified_deletion of {
      index : int;
      deleted : Dct_graph.Intset.t;
      witnesses : (int * int * int) list;
          (** C2's violating [(ti, tj, x)] triples *)
    }
  | Accepted_not_csr of { cycle : Dct_graph.Intset.t }
      (** transactions lying on a conflict cycle of the accepted
          schedule *)

type report = {
  steps : int;  (** decision events replayed *)
  deletions : int;  (** deletion events replayed *)
  deleted_total : int;
  finding : finding option;  (** [None] = the trace is clean *)
}

val audit : ?safety_depth:int -> trace -> report
(** [safety_depth] enables the bounded ground-truth
    {!Dct_deletion.Safety.search} as a final arbiter for deletions that
    fail both condition checks (expensive: keep ≤ 3). *)

val audit_schedule :
  ?safety_depth:int ->
  ?oracle:Dct_graph.Cycle_oracle.backend ->
  policy:Dct_deletion.Policy.t ->
  Dct_txn.Schedule.t ->
  report
(** {!record} then {!audit} — the [dct audit] entry point. *)

val ok : report -> bool

val csr_via_closure : Dct_txn.Schedule.t -> Dct_graph.Intset.t
(** Transactions on a cycle of [CG(S)] (empty iff the schedule is CSR),
    computed with the closure engine rather than a traversal. *)

val pp_decision : Format.formatter -> decision -> unit

val pp_finding :
  ?txn_name:(int -> string) ->
  ?entity_name:(int -> string) ->
  Format.formatter ->
  finding ->
  unit

val pp_report :
  ?txn_name:(int -> string) ->
  ?entity_name:(int -> string) ->
  Format.formatter ->
  report ->
  unit
