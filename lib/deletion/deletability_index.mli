(** Incremental deletability index — cached C1/C4 verdicts with
    dirty-set invalidation.

    Every deletion policy otherwise re-derives eligibility from scratch
    on every garbage-collection call: tight cones and coverage unions
    per candidate, over the whole resident set.  This index subscribes
    to {!Graph_state.mutation} events and maintains the verdicts online,
    re-checking only transactions whose {e tight neighbourhood} changed:

    - an arc into a still-{e active} destination dirties nothing (active
      nodes are never tight-path intermediates and never discharge
      coverage; the destination's later commit covers the arc),
    - a commit ([State_changed]) or a removal dirties both tight cones
      of the affected node, plus — for every {e active} member of that
      region — the active's completed tight successors (the candidates
      whose discharger set just changed, even outside the region),
    - an access by an active transaction dirties nothing.

    The index answers the C1/C4 questions {!Policy.run} asks; the naive
    per-call derivation remains the reference implementation and the
    [Checked] mode runs both in lock-step, raising {!Divergence} on any
    mismatch — mirroring [Cycle_oracle.Checked].  Corollary 1's
    noncurrency needs no index: {!Graph_state.noncurrent_completed}
    maintains it on every path, and a [Checked] index only
    cross-checks it ({!check_noncurrent}).  See [docs/gc.md] for the
    invalidation argument and the cost model. *)

exception Divergence of string
(** A [Checked] index caught the incremental answer disagreeing with the
    naive reference — always a bug, never a recoverable condition. *)

type mode = Naive | Incremental | Checked

val mode_name : mode -> string
val mode_of_string : string -> (mode, string) result
(** Accepts [naive | incremental (alias: incr) | checked]. *)

(** Which condition the index caches: [C1] (conflict-graph schedulers,
    the default) or [C4] (the predeclared model).  The multi-write C3 is
    deliberately {e not} indexable: its verdict depends on dependency
    closures whose changes are not bounded by any tight neighbourhood
    (see [docs/gc.md]). *)
type cond = C1 | C4

type t

val attach : ?cond:cond -> mode -> Graph_state.t -> t
(** Subscribe an index to the state's mutation feed.  [Naive] attaches
    nothing and delegates every query (a baseline spelling, so callers
    can thread one [t] uniformly); the first query of an
    [Incremental]/[Checked] index performs one full rebuild, after which
    only dirty regions are re-checked.  Attach at creation time: an
    index attached to a state with prior unobserved mutations would need
    its initial rebuild anyway (and gets one), but mutations concurrent
    with no subscription are only sound {e before} that first query.
    Note {!Graph_state.copy} drops subscriptions — re-attach to copies
    explicitly. *)

val mode : t -> mode
val cond : t -> cond

val eligible : t -> Dct_graph.Intset.t
(** The condition's eligible set, identical to
    {!Condition_c1.eligible}/{!Condition_c4.eligible} on the current
    state.  @raise Divergence in [Checked] mode on any mismatch. *)

val check_noncurrent : t -> unit
(** In [Checked] mode, compare {!Graph_state.noncurrent_completed} of
    the indexed state with its reference, the completed transactions
    for which {!Condition_c1.noncurrent} holds; a no-op in the other
    modes.  @raise Divergence on a mismatch. *)

val completed_tight_successors : t -> int -> Dct_graph.Intset.t
(** Cached discharger set of a predecessor, for
    {!Condition_c2.prepare}.  Identical to
    {!Tightness.completed_tight_successors}. *)

val stats : t -> (string * int) list
(** Work counters — [refreshes], [full_rebuilds], [rechecks],
    [region_nodes] — for benches and the curious. *)
