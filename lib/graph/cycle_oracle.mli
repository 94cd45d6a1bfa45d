(** Pluggable cycle-detection backends for the conflict-graph schedulers.

    Every accept/reject decision of the preventive schedulers is a
    "would this arc set close a cycle?" question, and every deletion of
    a completed transaction mutates the same structure.  This module
    fixes the contract those questions are asked through ({!S}) and
    packages three interchangeable implementations:

    - [Closure] — the reference: the bitset transitive {!Closure} of the
      §3 remark.  Queries are O(1) bitset probes; arc inserts touch
      [O(affected pairs)] words; aborts recompute the affected rows.
    - [Topo] — {!Topo_order}, Pearce–Kelly incremental topological
      order.  Inserts are [O(affected region)] (O(1) when already in
      order), removals of either flavour never trigger any rebuild, and
      queries are rank-clipped searches — the right trade for the sparse
      graphs the workload generator produces.
    - [Checked] — runs both and raises {!Disagreement} the moment any
      operation's observable result differs.  The differential harness
      in [test/test_oracle_diff.ml] and [dct simulate --oracle checked]
      are built on it.

    All backends are {e decision-equivalent}: on any legal operation
    sequence they answer every query identically (QCheck-tested), so
    schedulers, deletion policies and conditions C1/C2 behave
    byte-for-byte the same whichever backend is plugged in.

    To add a fourth backend, implement {!S} (see [docs/oracle.md]),
    extend {!backend} and the dispatch in [cycle_oracle.ml], and add the
    backend to {!all} — the differential suite picks it up from there. *)

(** The operations a backend must provide.  [add_arc] may assume
    [not (would_cycle t ~src ~dst)] — schedulers always test first —
    and should raise [Invalid_argument] when handed a cycle-closing
    arc.  [remove_node `Bypass] is the paper's reduction [D(G, T)]
    (bypass arcs preserve paths); [`Exact] is plain removal (abort). *)
module type S = sig
  type t

  val name : string
  val create : unit -> t
  val copy : t -> t

  val graph : t -> Digraph.t
  (** The arc set the backend maintains: every arc inserted, minus
      removed nodes, plus [`Bypass] arcs. *)

  val add_node : t -> int -> unit
  val mem_node : t -> int -> bool
  val nodes : t -> Intset.t
  val add_arc : t -> src:int -> dst:int -> unit
  val remove_node : t -> [ `Bypass | `Exact ] -> int -> unit
  val reaches : t -> src:int -> dst:int -> bool
  val reaches_any : t -> src:int -> dsts:Intset.t -> bool
  val would_cycle : t -> src:int -> dst:int -> bool

  val cycle_witness : t -> src:int -> dst:int -> int list option
  (** [Some (dst :: ... :: src)] — a real path [dst ⇝ src] ([[v]] when
      [src = dst]) proving the refused arc would close a cycle; [None]
      iff inserting [src -> dst] is safe. *)

  val iter_descendants : (int -> unit) -> t -> int -> unit
  (** Apply [f] to every node reachable from [v] by a non-empty path,
      without materialising a set.  Visit order is unspecified and may
      differ between backends; callers must fold order-insensitively. *)

  val iter_ancestors : (int -> unit) -> t -> int -> unit

  val bytes : t -> int
  (** Deterministic resident-size estimate of the whole structure. *)

  val check_against : t -> Digraph.t -> bool
  (** Structure agrees with ground-truth reachability on [g]. *)
end

module Closure_backend : S with type t = Closure.t
module Topo_backend : S with type t = Topo_order.t

(** {1 Backend selection} *)

type backend = Closure | Topo | Checked

val all : backend list
(** [[Closure; Topo; Checked]] — what the differential suite sweeps. *)

val backend_name : backend -> string
(** ["closure" | "topo" | "checked"] — the [--oracle] spellings. *)

val backend_of_string : string -> (backend, string) result
(** Inverse of {!backend_name}; case-insensitive. *)

exception Disagreement of string
(** Raised by a [Checked] oracle when the two backends' observable
    results diverge.  The message names the operation and both
    answers. *)

(** {1 Packed oracles} *)

type t
(** A live oracle instance of some backend, optionally carrying a
    {!Dct_telemetry.Probe} that times the hot operations ([add_arc],
    [remove_node], [reaches], [reaches_any], [would_cycle]).  Each
    timed operation emits one sample per underlying backend
    (["closure"]/["topo"]; a [Checked] oracle emits both), so latency
    histograms from a checked run decompose into the two
    single-backend runs.  No probe, no clock reads. *)

val create : ?probe:Dct_telemetry.Probe.t -> backend -> t
val backend : t -> backend
val name : t -> string

val probe : t -> Dct_telemetry.Probe.t option

val copy : t -> t
(** Deep copy.  The copy carries {e no} probe: copies are speculative
    (safety searches, audit replays, exact-max enumeration) and must
    not pollute the live oracle's latency record. *)

val graph : t -> Digraph.t
(** The conflict graph this oracle maintains — the only copy a
    {!Dct_deletion.Graph_state} keeps.  Under [Checked] it is the
    closure's graph; the topological order keeps its own, and
    {!check_against} compares the two.  Read-only: mutate through
    {!add_node}, {!add_arc} and {!remove_node}. *)

val add_node : t -> int -> unit
val mem_node : t -> int -> bool
val nodes : t -> Intset.t

val add_arc : t -> src:int -> dst:int -> unit
(** Pre-condition: the arc does not close a cycle (test {!would_cycle}
    first).  [Topo] refuses a cycle-closing arc with
    [Invalid_argument]; a [Checked] oracle verifies both backends agree
    the arc is safe before inserting and raises {!Disagreement}
    otherwise; [Closure] does not check.  A refused arc changes
    nothing. *)

val remove_node : t -> [ `Bypass | `Exact ] -> int -> unit
val reaches : t -> src:int -> dst:int -> bool
val reaches_any : t -> src:int -> dsts:Intset.t -> bool
val would_cycle : t -> src:int -> dst:int -> bool

val cycle_witness : t -> src:int -> dst:int -> int list option
(** See {!S.cycle_witness}.  A [Checked] oracle additionally validates
    each backend's witness against its own arc set and that the two
    agree on existence. *)

val iter_descendants : (int -> unit) -> t -> int -> unit
(** Allocation-free cone iteration (the audit/invariant hot path).  A
    [Checked] oracle collects both backends' cones, raises
    {!Disagreement} if they differ, and replays the closure's. *)

val iter_ancestors : (int -> unit) -> t -> int -> unit

val descendants : t -> int -> Intset.t
(** Thin {!Intset} wrappers over the iterators, for callers that want a
    set value. *)

val ancestors : t -> int -> Intset.t

val bytes : t -> int
(** Deterministic resident-size estimate in bytes of the backing
    structures ([Checked] sums both).  Capacity-derived: replicas built
    by identical operation sequences report identical values. *)

val check_against : t -> Digraph.t -> bool

val closure : t -> Closure.t option
(** The underlying bitset closure when this oracle maintains one
    ([Closure] and [Checked] backends) — read-only, for the invariant
    auditor and tests. *)

val topo : t -> Topo_order.t option
(** The underlying topological order, when maintained ([Topo] and
    [Checked] backends). *)
