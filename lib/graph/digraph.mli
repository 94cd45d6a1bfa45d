(** Imperative directed graphs over integer node identifiers.

    Node identifiers are chosen by the caller (transaction ids in the
    scheduler) and may grow without bound; storage does not.  Internally
    every live id is mapped through a dense-slot {!Arena} and adjacency
    lives in slot-indexed hybrid {!Row}s whose bits are slots, so the
    resident footprint tracks the high-water {e live} population rather
    than the historical id space.

    The structure is deliberately small: reachability lives in
    {!Traversal}; incremental ordering and closure maintenance live in
    {!Topo_order} and {!Closure}, the two {!Cycle_oracle} backends. *)

type t

val create : unit -> t

val copy : t -> t
(** Independent deep copy. *)

(** {1 Nodes} *)

val add_node : t -> int -> unit
(** [add_node g v] adds isolated node [v]; a no-op if present. *)

val remove_node : t -> int -> unit
(** [remove_node g v] removes [v] and all incident arcs; a no-op if
    absent.  Note this is {e not} the paper's reduction [D(G, v)] — see
    {!remove_node_bypass}. *)

val remove_node_bypass : t -> int -> unit
(** The paper's reduction [D(G, v)] (§3): remove [v] and add an arc from
    each of its immediate predecessors to each of its immediate
    successors (self-loops skipped), so every path through [v]
    survives.  A no-op if absent.  The one implementation of [D(G, v)]:
    both {!Cycle_oracle} backends call it. *)

val mem_node : t -> int -> bool
val node_count : t -> int
val nodes : t -> Intset.t
val iter_nodes : (int -> unit) -> t -> unit

(** {1 Arcs} *)

val add_arc : t -> src:int -> dst:int -> unit
(** [add_arc g ~src ~dst] adds the arc; endpoints are created if missing.
    Idempotent.  Self-loops are allowed (the scheduler never creates
    them, but the graph does not forbid them). *)

val remove_arc : t -> src:int -> dst:int -> unit
val mem_arc : t -> src:int -> dst:int -> bool
val arc_count : t -> int

val succs : t -> int -> Intset.t
(** Immediate successors; empty set if the node is absent. *)

val preds : t -> int -> Intset.t
(** Immediate predecessors; empty set if the node is absent. *)

val out_degree : t -> int -> int
val in_degree : t -> int -> int

val iter_arcs : (src:int -> dst:int -> unit) -> t -> unit
val fold_arcs : (src:int -> dst:int -> 'a -> 'a) -> t -> 'a -> 'a

(** {1 Slot view}

    The closure and topological-order backends keep slot-indexed side
    tables (rows, ranks, visit marks) over this graph's arena rather
    than duplicating an id map.  Slots are recycled when nodes are
    removed: a slot observed here is valid only until the next
    [remove_node]/[add_node] pair. *)

val slot_of : t -> int -> int option
(** Dense slot of a live node, [None] if absent. *)

val id_of_slot : t -> int -> int
(** Node occupying a slot; [-1] when the slot is free or out of range. *)

val slot_capacity : t -> int
(** High-water slot count — the exact size needed by any slot-indexed
    side table.  Bounded by the peak resident population. *)

val iter_succ_slots : (int -> unit) -> t -> int -> unit
(** [iter_succ_slots f g s] applies [f] to the successor {e slots} of
    the node in slot [s], allocation-free.  No-op on a free slot. *)

val iter_pred_slots : (int -> unit) -> t -> int -> unit

val mem_arc_slots : t -> src:int -> dst:int -> bool
(** Arc test in slot space, querying the successor index; total (free
    or out-of-range slots give [false]). *)

val mem_pred_slot : t -> dst:int -> src:int -> bool
(** Membership in the {e predecessor} index specifically — only the
    invariant auditor wants to probe the two mirrors independently. *)

val bytes : t -> int
(** Deterministic resident-size estimate in bytes (arena + rows);
    capacity-derived, so replicas built by identical operation sequences
    agree. *)

(** {1 Comparison and printing} *)

val equal : t -> t -> bool
(** Same node set and same arc set. *)

val pp : Format.formatter -> t -> unit
