(** Dynamic transitive closure.

    Maintains, for every node, the bitset of its descendants and
    ancestors under arc insertions.  This realises the paper's remark
    (§3) that when the scheduler keeps the transitive closure, the safe
    removal of a transaction amounts to deleting its node from the
    closure — the bypass arcs of the reduction [D(G, T)] are implicit.

    Arc insertion costs [O(affected pairs)] bitset words.  Node removal
    comes in two flavours:
    - [`Bypass] — the paper's reduction: paths through the node are kept,
      so the closure of the reduced graph is obtained by just erasing the
      node's row and column;
    - [`Exact] — plain removal (used when a transaction {e aborts}): paths
      through the node vanish, which forces a recomputation of the rows
      that mentioned the node (ancestors' descendant rows, descendants'
      ancestor rows — unrelated rows are untouched). *)

type t

val create : unit -> t

val graph : t -> Digraph.t
(** The closure's own arc graph (explicit arcs plus bypass arcs from
    [`Bypass] removals) — the reduced graph itself under the [Closure]
    and [Checked] oracles.  Callers must not mutate it directly. *)

val copy : t -> t
(** Independent deep copy. *)

val add_node : t -> int -> unit

val add_arc : t -> src:int -> dst:int -> unit
(** Inserts the arc and updates the closure.  Endpoints are created if
    missing.  Cycles are tolerated (the closure stays sound). *)

val remove_node : t -> [ `Bypass | `Exact ] -> int -> unit

val reaches : t -> src:int -> dst:int -> bool
(** [reaches t ~src ~dst] is [true] iff a non-empty path [src ⇝ dst]
    exists. *)

val would_cycle : t -> src:int -> dst:int -> bool
(** [true] iff inserting [src -> dst] would close a cycle
    ([src = dst] or [dst ⇝ src]). *)

val iter_descendants : (int -> unit) -> t -> int -> unit
(** [iter_descendants f t v] applies [f] to every descendant of [v]
    without materialising a set — the audit/invariant hot path.  Order
    is increasing slot order (an implementation detail; callers must not
    rely on it).  No-op when [v] is absent. *)

val iter_ancestors : (int -> unit) -> t -> int -> unit

val descendants : t -> int -> Intset.t
(** Thin wrapper over {!iter_descendants} for callers that want a set. *)

val ancestors : t -> int -> Intset.t

val nodes : t -> Intset.t

val mem_node : t -> int -> bool

val bytes : t -> int
(** Deterministic resident-size estimate in bytes (graph + both row
    matrices). *)

val check_against : t -> Digraph.t -> bool
(** For tests: the closure agrees with reachability recomputed from
    scratch on [g]. *)
