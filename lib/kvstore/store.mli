(** The database: a set of entities with versioned values.

    Entities spring into existence on first access with the store's
    default initial value.  The store is deliberately unsynchronised —
    schedulers serialize access to it; it supplies values, read-from
    lineage and current-accessor information. *)

type t

val create : ?default:int -> unit -> t
(** [default] (0 if omitted) is the initial value of every entity. *)

val read : t -> entity:int -> reader:int -> Version_log.version
(** Read the current version, recording the reader on it.  The returned
    version's [writer] is the transaction this read {e reads from}
    ([None] when reading the initial value). *)

val write : t -> entity:int -> writer:int -> value:int -> unit
(** Install a new current version. *)

val peek : t -> entity:int -> int
(** Current value, without recording an access. *)

val current_writer : t -> entity:int -> int option
(** Writer of the current version. *)

val current_readers : t -> entity:int -> Dct_graph.Intset.t
(** Readers recorded on the current version. *)

(** {1 Removal}

    {!Storage}, their one caller outside tests, keeps the footprint
    each takes, [~entities] (every entity the transaction read or wrote
    here): a removal costs O(footprint), however many entities the store
    holds.
    A chain left with nothing but its bare initial version (no write,
    no reader) is dropped, which a later access cannot tell from a
    fresh chain. *)

val undo_writes : t -> txn:int -> entities:Dct_graph.Intset.t -> unit
(** Abort: remove every version written by [txn] from the chains of
    [entities], and erase [txn] from their reader sets, so an aborted
    reader leaves no mark. *)

val forget_txn : t -> txn:int -> entities:Dct_graph.Intset.t -> unit
(** Deletion of a committed transaction: erase [txn] from the reader
    sets of [entities]'s chains, and drop every version older than
    [txn]'s newest version on each.  [txn] is committed, so no undo can
    remove its version, and nothing older can become current again
    ({!peek} is unchanged); undoing a later writer still restores
    [txn]'s value. *)

val entities : t -> Dct_graph.Intset.t
(** Entities holding a written version or a reader mark. *)

val version_count : t -> entity:int -> int

val total_versions : t -> int
(** Sum of all chain lengths — a memory-residency metric; a maintained
    count, O(1). *)
