(** One shard: the state for the entities a {!Partitioner} assigns it.

    A shard owns a local {!Dct_deletion.Graph_state} (the projection of
    the global conflict graph onto conflicts over its entities) and a
    {!Dct_kv.Storage} subscribed to it (a versioned store holding its
    entities' data and a {!Dct_kv.Wal} for its writes).  A transaction
    is {e hosted} here from its first access to a shard entity until GC
    forgets it.

    Shards never decide — the {!Coordinator} does (and its decisions are
    exactly the single-node scheduler's).  What a shard does own is its
    {e memory}: two garbage collectors bound it.

    - {e Local GC} ({!collect_garbage}) runs the configured deletion
      policy against the local graph.  The local graph has a subset of
      the global nodes and arcs, so conditions C1/C2 can hold here
      before they hold globally — a shard may forget a transaction
      {e earlier} than a single-node scheduler could.  This is safe
      because local state is bookkeeping, not decision input: every
      local arc also exists globally when added, bypass arcs preserve
      local path connectivity (Theorem 4's reduction applied to the
      projection), and the projection's connectivity stays a subset of
      the global graph's, so the local graph remains acyclic.
    - {e Broadcast GC} ({!apply_global_deletions}) force-applies the
      coordinator's deletions, so a shard never remembers a transaction
      the global policy has forgotten.  Together: per-shard residency
      <= single-node residency at every step, which the differential
      suite asserts. *)

type t

val create :
  id:int ->
  policy:Dct_deletion.Policy.t ->
  ?gc_index:Dct_deletion.Deletability_index.mode ->
  unit ->
  t
(** [gc_index] attaches a per-shard {!Dct_deletion.Deletability_index}
    to the local projection, serving local GC from the maintained cache.
    Projections are small, so dirty regions are too; broadcast deletions
    ({!apply_global_deletions}) go through the hooked removal path and
    keep the index consistent. *)

val id : t -> int
val graph_state : t -> Dct_deletion.Graph_state.t

val storage : t -> Dct_kv.Storage.t
val store : t -> Dct_kv.Store.t
val wal : t -> Dct_kv.Wal.t

val hosts : t -> int -> bool
(** Is the transaction currently present in the local graph? *)

val apply_read : t -> txn:int -> entity:int -> unit
(** Mirror an accepted read of a shard entity: host the transaction if
    new, add the local Rule 2 arcs (present local writers -> txn), record
    the access, read the store.  Returns nothing; the arcs added are
    reported through {!last_arcs}. *)

val apply_write : t -> txn:int -> entities:int list -> value:int -> unit
(** Mirror the shard's slice of an accepted final write: local Rule 3
    arcs (present local accessors -> txn), accesses, store writes (all
    installing [value]) and WAL records. *)

val last_arcs : t -> (int * int) list
(** The (src, dst) conflict arcs added by the most recent
    {!apply_read}/{!apply_write} — the engine classifies them as
    intra- or cross-shard. *)

val complete : t -> int -> unit
(** The transaction committed globally; mark the local copy committed
    (no-op when not hosted). *)

(** The removals below reach the store through the storage's
    subscription, and each call ends by truncating the WAL. *)

val abort : t -> int -> unit
(** The transaction was aborted globally: plain local removal. *)

val collect_garbage : t -> Dct_graph.Intset.t
(** Run the shard's own deletion policy on the local graph.  Returns
    the locally deleted set. *)

val apply_global_deletions : t -> Dct_graph.Intset.t -> Dct_graph.Intset.t
(** Force-delete (with bypass) every hosted member of the coordinator's
    deleted set that local GC has not already removed.  Returns the
    subset actually applied here. *)

(** {1 Accounting} *)

type stats = {
  resident_txns : int;
  resident_arcs : int;
  active_txns : int;
  resident_hwm : int;   (** high-water mark of [resident_txns] *)
  hosted_total : int;   (** transactions ever hosted *)
  committed : int;
  aborted : int;
  deleted_local : int;  (** forgotten by this shard's own policy *)
  deleted_forced : int; (** forgotten because the coordinator deleted them *)
  store_versions : int;
  wal_retained : int;
  wal_truncated : int;
  resident_bytes : int;
      (** deterministic byte estimate of this shard's graph substrate *)
}

val stats : t -> stats
