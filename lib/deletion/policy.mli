(** Deletion policies — §4's "algorithm which given the current (reduced)
    graph outputs a set of completed nodes to be deleted".

    Theorem 2: a policy is correct iff it performs only safe deletions.
    The catalogue below contains correct policies of increasing
    aggressiveness, plus the classic {e incorrect} one (commit-time
    deletion) used to demonstrate why conflict-graph schedulers cannot
    close transactions at commit. *)

type t =
  | No_deletion
      (** keep everything — the memory-unbounded strawman *)
  | Unsafe_commit_time
      (** delete every transaction the moment it completes.  Correct for
          locking schedulers, {b incorrect} here: the scheduler may
          accept non-CSR schedules (shown in tests and EX9). *)
  | Noncurrent
      (** Corollary 1: delete completed transactions none of whose
          accesses is still current.  Safe even repeatedly, because the
          discharging current writer is itself never noncurrent. *)
  | Greedy_c1
      (** iterate single C1 deletions until the graph is irreducible —
          maximal, polynomial. *)
  | Exact_max
      (** delete a maximum safe subset (C2 branch-and-bound) —
          exponential worst case; for experiments. *)
  | Exact_max_weighted
      (** like [Exact_max] but maximise the total access-set size of the
          deleted transactions — a freed-memory proxy — instead of their
          count. *)
  | Budget of int * t
      (** [Budget (n, inner)]: run [inner] only when more than [n]
          transactions are resident — amortises deletion work. *)

val name : t -> string

val run :
  ?index:Deletability_index.t -> t -> Graph_state.t -> Dct_graph.Intset.t
(** Apply the policy once (after a step), mutating the state; returns
    the set of deleted transactions.  When the state's tracer is
    enabled, the run is one {!round} over the completed transactions,
    blocked by condition [c1], [c2-max], [noncurrent] or [budget] and
    timed under the index backend's name (["naive"] without one).
    Telemetry never changes what is deleted.

    [Noncurrent] deletes {!Graph_state.noncurrent_completed}, which the
    state maintains, so an untraced call costs O(deleted) with or
    without an index; deleting one member changes no other
    transaction's currency.

    [index] must be a {!Deletability_index.t} attached to {e this}
    state; eligibility queries are then answered from the maintained
    cache — [Greedy_c1] becomes a worklist re-checking only each
    deletion's tight neighbourhood, [Exact_max*] reuses cached
    discharger sets.  Decisions are identical with and without
    (metamorphic-tested); a [Checked] index raises
    {!Deletability_index.Divergence} on any mismatch, including one
    between the maintained noncurrent set and its naive reference. *)

val round :
  Dct_telemetry.Tracer.t ->
  policy:string ->
  condition:string option ->
  backend:string ->
  candidates:(unit -> Dct_graph.Intset.t) ->
  (unit -> Dct_graph.Intset.t) ->
  Dct_graph.Intset.t
(** [round tracer ~policy ~condition ~backend ~candidates run] runs one
    deletion round [run ()], which returns the transactions it deleted,
    all drawn from [candidates ()].  It is the one emitter of a round's
    telemetry, shared by {!run} and the schedulers' C3 and C4 rounds.
    With an enabled tracer it emits [Deletion_attempted] (the
    candidates, when there are any), times [run] as one ["gc"] probe
    observation attributed to [backend], emits [Deletion_ok] (when
    something was deleted) and, when [condition] is given, one
    [Deletion_blocked] per surviving candidate.  It feeds the
    ["deletion.<policy>.{attempted,deleted,blocked}"] counters with the
    same three sizes.  With a disabled tracer it is [run ()]:
    [candidates] is not evaluated. *)

val all_correct : t list
(** The correct policies, for sweeps. *)

val of_string : string -> (t, string) result
(** Parse ["none" | "commit" | "noncurrent" | "greedy" | "exact" |
    "exact-weighted" | "budget:<n>:<inner>"] — CLI support.  The
    canonical {!name} spellings are accepted too, so
    [of_string (name p) = Ok p] for every policy (property-tested).
    ["c1"] and ["c2"] are condition-named aliases for [greedy] and
    [exact]. *)
