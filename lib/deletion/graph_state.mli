(** The scheduler's data structure: a {e reduced graph} of a schedule.

    §4 of the paper defines a reduced graph of a schedule [p] as any
    acyclic graph whose nodes are (non-deleted) transactions of [p]
    including all active ones, carrying an arc for every pair of present
    transactions that executed conflicting steps (plus possibly extra
    arcs inherited from earlier removals).  This module bundles that
    graph with the per-transaction payloads the deletion conditions
    need — lifecycle state, access set, declared future accesses,
    read-from dependencies — and with per-entity indexes that make the
    scheduler rules and condition checks fast.

    All conditions (C1–C4) and all schedulers operate on this type. *)

type t

(** Structural change notifications for incremental consumers (the
    {!Deletability_index}).  Fired {e after} the state change lands.
    [Txn_removed] snapshots the node's neighbourhood {e before} removal
    (a subscriber cannot recover it afterwards); [reduction] is [true]
    for a bypass deletion by the policy and [false] for an abort.  Note
    the bypass arcs materialised by a reduction do {e not} fire
    [Arc_added] — they are implied by the removal's [preds]×[succs]. *)
type mutation =
  | Txn_began of int
  | Arc_added of { src : int; dst : int }
  | Access_recorded of { txn : int; entity : int; mode : Dct_txn.Access.mode }
  | State_changed of int
  | Dependency_added of { dependent : int; on_ : int }
  | Txn_removed of {
      txn : int;
      reduction : bool;
      preds : Dct_graph.Intset.t;
      succs : Dct_graph.Intset.t;
      entities : Dct_graph.Intset.t;
      deps : Dct_graph.Intset.t;
    }

val on_mutation : t -> (mutation -> unit) -> unit
(** Subscribe to mutations, in registration order.  Subscribers must not
    mutate the state from inside the callback.  {!copy} drops all
    subscriptions (a replica's speculative mutations would otherwise
    corrupt an index attached to the original). *)

val create :
  ?oracle:Dct_graph.Cycle_oracle.backend ->
  ?tracer:Dct_telemetry.Tracer.t ->
  unit ->
  t
(** Without either option, cycle checks fall back to a DFS on the plain
    graph.  [oracle] selects a maintained cycle-detection backend:
    [Closure] (the §3 remark — reachability-row probes, safe deletion is
    erasing the node, aborts recompute affected rows), [Topo]
    (Pearce–Kelly incremental topological order — near-free checks on
    sparse graphs, rebuild-free deletion) or [Checked] (both in
    lock-step, raising {!Dct_graph.Cycle_oracle.Disagreement} on any
    divergence).  All backends are
    decision-equivalent, so the choice is a cost profile, not a
    semantics (benchmarked in the oracle sweep).  [tracer] (default
    {!Dct_telemetry.Tracer.disabled}) is the run-wide telemetry handle:
    its probe times every oracle query (backend ["dfs"] on the
    fallback), and the rules/policies emit decision and deletion events
    through it. *)

val copy : t -> t
(** Deep copy — used by the test oracles that replay continuations on
    both the reduced and the unreduced state.  The copy's tracer is
    {e disabled} and its oracle carries no probe: speculative replays
    never appear in the live trace. *)

val tracer : t -> Dct_telemetry.Tracer.t

val set_tracer : t -> Dct_telemetry.Tracer.t -> unit
(** Swap the tracing handle; also re-points the oracle's timing probe. *)

(** {1 Transactions} *)

val begin_txn : ?declared:Dct_txn.Access.t -> t -> int -> unit
(** Rule 1: add a fresh [Active] node.  @raise Invalid_argument if the
    id is already present. *)

val mem_txn : t -> int -> bool
val txn : t -> int -> Dct_txn.Transaction.t
(** @raise Not_found when absent. *)

val state : t -> int -> Dct_txn.Transaction.state
val set_state : t -> int -> Dct_txn.Transaction.state -> unit
val accesses : t -> int -> Dct_txn.Access.t

val is_active : t -> int -> bool
(** [false] for absent nodes. *)

val is_completed : t -> int -> bool
(** Finished or committed; [false] for absent nodes. *)

val active_txns : t -> Dct_graph.Intset.t
val completed_txns : t -> Dct_graph.Intset.t
val all_txns : t -> Dct_graph.Intset.t
val txn_count : t -> int

(** {1 Accesses and the entity index} *)

val record_access : t -> txn:int -> entity:int -> mode:Dct_txn.Access.mode -> unit
(** Updates the transaction's access set, the per-entity reader/writer
    index, and current-value accessor tracking (a write supersedes all
    previous accessors of the entity). *)

val present_writers : t -> entity:int -> Dct_graph.Intset.t
(** Present transactions that have written the entity (Rule 2 sources). *)

val present_accessors : t -> entity:int -> Dct_graph.Intset.t
(** Present transactions that have read or written it (Rule 3 sources). *)

val current_accessors : t -> entity:int -> Dct_graph.Intset.t
(** Transactions (present or not) that read or wrote the entity's
    {e current} value — i.e. accessed it and it was not overwritten
    since.  Powers Corollary 1's noncurrent test. *)

val entities : t -> Dct_graph.Intset.t
(** Entities touched so far. *)

val access_history : t -> entity:int -> (int * Dct_txn.Access.mode * int) list
(** Raw per-entity access log of {e present} transactions, newest first:
    (transaction, mode, global sequence number).  The certifier uses the
    sequence numbers to orient arcs at certification time. *)

(** {1 Dependencies (multi-write model)} *)

val add_dependency : t -> dependent:int -> on_:int -> unit
(** [dependent] read a value written by the still-uncommitted [on_]. *)

val direct_deps : t -> int -> Dct_graph.Intset.t

val dependents_closure : t -> Dct_graph.Intset.t -> Dct_graph.Intset.t
(** [M⁺]: all transactions that (transitively) depend on a member of the
    given set, including the set itself. *)

(** {1 The graph} *)

val graph : t -> Dct_graph.Digraph.t
(** The underlying conflict graph.  Callers must treat it as read-only;
    mutation goes through {!add_arc}, {!abort_txn} and
    {!Reduced_graph.delete}. *)

val add_arc : t -> src:int -> dst:int -> unit

val reaches : t -> src:int -> dst:int -> bool
(** [true] iff a non-empty path [src ⇝ dst] exists — answered by the
    oracle when one is maintained, by DFS otherwise. *)

val reaches_any : t -> src:int -> dsts:Dct_graph.Intset.t -> bool
(** Does [src] reach some member of [dsts]?  One oracle probe / clipped
    search rather than [|dsts|] independent queries. *)

val would_cycle : t -> into:int -> sources:Dct_graph.Intset.t -> bool
(** Would adding the arcs [s -> into] for every [s] in [sources] close a
    cycle?  (True iff some source is reachable from [into], or [into]
    itself is a source.) *)

val abort_txn : t -> int -> unit
(** Plain removal: node and incident arcs disappear (no bypass), the
    transaction is dropped from indexes, state bookkeeping forgets it.
    This is what happens to a transaction whose step is rejected. *)

val was_aborted : t -> int -> bool
(** Has this id been {!abort_txn}-ed before?  Later steps of an aborted
    transaction are ignored by the rules, not treated as errors. *)

val aborted_txns : t -> Dct_graph.Intset.t
(** All ids ever passed to {!abort_txn}. *)

val was_deleted : t -> int -> bool
(** Has this id been removed by the reduction {!delete_with_bypass}
    (i.e. by the deletion policy)?  Disjoint from {!was_aborted}. *)

val deleted_txns : t -> Dct_graph.Intset.t
(** All ids ever deleted through the reduction — the auditor's record of
    what the policy has forgotten. *)

val oracle : t -> Dct_graph.Cycle_oracle.t option
(** The maintained cycle-detection oracle, when one was requested at
    {!create} — read-only use (the invariant checker verifies it against
    the graph). *)

val closure : t -> Dct_graph.Closure.t option
(** The maintained transitive closure, when the selected oracle keeps
    one ([Closure] or [Checked] backends) — read-only use. *)

val is_acyclic : t -> bool

val resident_bytes : t -> int
(** Deterministic estimate, in bytes, of the resident graph substrate:
    conflict graph, maintained oracle, slot-indexed transaction and
    dependency stores, and the entity index.  The audit tombstone sets
    ({!aborted_txns}/{!deleted_txns}) are excluded — they record
    history, not resident state.  Derived from capacities and live
    counts only, so two replicas driven by identical operation
    sequences report identical values (the engine's executors and the
    socket server depend on this for byte-identical traces). *)

(** {1 Internal — used by {!Reduced_graph}} *)

val forget_txn_record : t -> int -> unit
(** Remove the payload and index entries of a node already detached from
    the graph.  Does not touch current-accessor history (deletion must
    not rewrite database facts). *)

val delete_with_bypass : t -> int -> unit
(** The reduction [D(G, T)] on the graph, the maintained closure (when
    present) and the bookkeeping, in one step.  Use
    {!Reduced_graph.delete}, which adds the eligibility checks. *)

val check_invariants : t -> (unit, string) result
(** Structural self-check, used by the fuzzing tests: graph nodes =
    transaction records; the graph is acyclic; per-entity histories
    mention only present transactions; the dependency maps are mutually
    consistent and mention only present transactions. *)

val pp : Format.formatter -> t -> unit
