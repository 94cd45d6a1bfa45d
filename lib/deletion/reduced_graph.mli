(** The reduction [D(G, T)] — how a transaction is removed.

    §3: "the reduced conflict graph of [p] by [Ti] ... is [CG(p)] with
    node [Ti] deleted and arcs to and from it replaced by arcs from all
    its immediate predecessors to all its immediate successors", so that
    paths currently through [Ti] are not lost.

    Deleting a {e set} applies the single deletion repeatedly; §4 notes
    the order is immaterial — tested in the suite. *)

val delete : Graph_state.t -> int -> unit
(** [delete gs ti] applies [D(G, Ti)] and forgets the transaction's
    payload.  @raise Invalid_argument if [ti] is absent or not
    completed (the paper only ever deletes completed transactions). *)

val delete_set : Graph_state.t -> Dct_graph.Intset.t -> unit
(** [D(G, N)], one node at a time (ascending id; the result does not
    depend on the order). *)

val is_reduced_graph_of : Graph_state.t -> Dct_txn.Schedule.t -> (unit, string) result
(** Check the §4 definition of "a reduced graph of schedule [p]":
    (1) acyclic; (2) nodes ⊆ transactions of [p], including every
    non-aborted active one; (3) an arc between every pair of present
    transactions with conflicting steps, in execution order.  Extra arcs
    are allowed.  [gs] supplies the node set and arcs; [p] supplies the
    ground truth. *)
