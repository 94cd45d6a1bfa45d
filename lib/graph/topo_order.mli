(** Incremental topological order — the sparse cycle-detection backend.

    Maintains a total order on the nodes of an owned {!Digraph.t} that is
    consistent with its arcs, using the Pearce–Kelly dynamic
    topological-sort algorithm (Pearce & Kelly, JEA 11, 2006).  Inserting
    an arc [u -> v] with [rank v < rank u] discovers the {e affected
    region} — the forward frontier of [v] and the backward frontier of
    [u], both clipped to the rank interval [[rank v, rank u]] — and
    permutes only those nodes' ranks, so an insertion costs
    [O(affected region)] instead of [O(V + E)]; insertions already in
    order cost [O(1)].

    It supports everything {!Cycle_oracle} needs: reachability queries
    clipped by rank, cycle witnesses, deep copies, and both flavours of
    node removal.  Removals never invalidate a topological order, which
    is why this backend wins on deletion-heavy workloads — the bitset
    {!Closure} must rebuild rows where this does nothing.  It is the
    default backend of every graph state and the Pearce–Kelly row of
    the EX11 ablation. *)

type t

val create : unit -> t

val copy : t -> t
(** Independent deep copy. *)

val graph : t -> Digraph.t
(** The underlying graph — the reduced graph itself under the [Topo]
    oracle.  Callers must not mutate it directly. *)

val add_node : t -> int -> unit
(** Appends the node at the end of the order; no-op if present. *)

val mem_node : t -> int -> bool
val nodes : t -> Intset.t

val add_arc : t -> src:int -> dst:int -> unit
(** Inserts the arc, permuting ranks inside the affected region if
    needed.  Endpoints are created if missing; re-inserting an existing
    arc is a no-op.
    @raise Invalid_argument if the arc would close a cycle — callers
    must test {!would_cycle} first, as every scheduler does. *)

val remove_node : t -> [ `Bypass | `Exact ] -> int -> unit
(** [`Bypass] is the paper's reduction [D(G, T)]
    ({!Digraph.remove_node_bypass}): predecessor×successor bypass arcs
    are inserted (each respects the existing order, so no reordering
    can occur) and the node is dropped.  [`Exact] simply drops the node
    and its incident arcs.  Both are [O(degree²)] resp.
    [O(degree)] — a topological order of a graph remains one of any
    subgraph, so, unlike {!Closure}, nothing is rebuilt. *)

val reaches : t -> src:int -> dst:int -> bool
(** [true] iff a non-empty directed path [src ⇝ dst] exists.  The search
    is clipped to nodes with rank in [(rank src, rank dst)]; in
    particular it is [O(1)] whenever [rank src >= rank dst]. *)

val reaches_any : t -> src:int -> dsts:Intset.t -> bool
(** Does [src] reach some member of [dsts] (by a non-empty path)?  One
    clipped search bounded by the largest rank in [dsts], not
    [|dsts|] separate queries. *)

val would_cycle : t -> src:int -> dst:int -> bool
(** [true] iff inserting [src -> dst] would close a cycle
    ([src = dst] or [dst ⇝ src]). *)

val cycle_witness : t -> src:int -> dst:int -> int list option
(** When [would_cycle t ~src ~dst], a witness for the refusal: nodes
    [dst; ...; src] forming a real path [dst ⇝ src] in the current
    graph (a single [[v]] when [src = dst]), such that adding the arc
    [src -> dst] would close the cycle.  [None] when the insertion is
    safe. *)

val iter_descendants : (int -> unit) -> t -> int -> unit
(** [iter_descendants f t v] applies [f] to every node reachable from
    [v] by a non-empty path, via a DFS that marks visited slots with a
    generation stamp — no per-query set is materialised.  No-op when [v]
    is absent.  Unlike {!reaches}, the search is not rank-clipped: it
    must enumerate the full cone. *)

val iter_ancestors : (int -> unit) -> t -> int -> unit

val rank : t -> int -> int
(** Current position of a node in the maintained order.
    @raise Not_found if the node is absent. *)

val bytes : t -> int
(** Deterministic resident-size estimate in bytes (graph + rank and
    visit-mark tables). *)

val check_invariant : t -> bool
(** For tests: every arc [u -> v] satisfies [rank u < rank v] and every
    node has a rank. *)

val check_against : t -> Digraph.t -> bool
(** For tests and the [Checked] oracle: same node and arc sets as [g],
    and the rank invariant holds. *)
