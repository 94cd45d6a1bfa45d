(** An embedded key-value database with conflict-graph concurrency
    control — the façade a downstream user programs against.

    Under the hood: the preventive conflict-graph scheduler (Rules 1–3)
    with a deletion policy keeping the graph small (the paper's
    contribution), and a {!Dct_kv.Storage} (a versioned store supplying
    values and an optional WAL) subscribed to the scheduler's graph
    state, so the store and the log follow the resident set.

    The transaction model is the paper's basic model: a transaction
    reads any number of entities and then atomically writes a set of
    them at commit.  Reads can abort the transaction (the scheduler
    refuses steps that would close a cycle); {!with_txn} hides that
    behind automatic retry.

    Entities and values are [int]s; layering richer keys/values on top
    is orthogonal to the concurrency machinery this library is about. *)

type t

type config = {
  policy : Dct_deletion.Policy.t;  (** graph GC policy *)
  durable : bool;                  (** journal to a WAL *)
  max_retries : int;               (** for {!with_txn} *)
  default_value : int;             (** initial value of every entity *)
}

val default_config : config
(** greedy-c1, durable, 8 retries, default value 0. *)

val open_ : ?config:config -> unit -> t

(** {1 Explicit transactions}

    Fine-grained control; the caller handles aborts. *)

type txn

type error =
  | Aborted    (** the scheduler refused a step; the transaction is dead *)
  | Txn_done   (** the handle was already committed or aborted *)

val pp_error : Format.formatter -> error -> unit

val begin_txn : t -> txn

val read : txn -> int -> (int, error) result
(** Read an entity's current value.  [Error Aborted] kills the whole
    transaction (cycle prevention). *)

val commit : txn -> writes:(int * int) list -> (unit, error) result
(** Atomically write the listed (entity, value) pairs and commit.
    [commit ~writes:[]] commits a read-only transaction.  After any
    result the handle is dead.  The writes are installed and journaled
    before the step that decides the commit, as the deletion policy can
    forget the transaction inside it; a rejected commit leaves its
    [Write] records ahead of its [Abort]. *)

val abort : txn -> unit
(** Voluntarily abandon the transaction (drops it from the graph). *)

(** {1 Automatic retry} *)

val with_txn : t -> f:(read:(int -> int) -> (int * int) list) -> (unit, error) result
(** Run [f] with a read callback; commit its returned write set.  On
    abort (by a read or at commit) the transaction is retried from
    scratch, up to [config.max_retries] attempts.  [f] must be pure
    apart from its reads (it may run several times).
    @raise e if [f] raises — after the underlying transaction is
    aborted. *)

(** {1 Introspection} *)

type stats = {
  committed : int;
  aborted : int;            (** scheduler-initiated aborts *)
  graph_resident : int;     (** transactions the scheduler remembers *)
  graph_deleted : int;      (** forgotten by the deletion policy *)
  wal_retained : int;       (** 0 when not durable *)
  wal_truncated : int;
}

val stats : t -> stats

val peek : t -> int -> int
(** Current committed value, outside any transaction. *)

val recover : t -> checkpoint:Dct_kv.Store.t -> Dct_kv.Store.t
(** Crash-recovery: replay the retained WAL suffix onto a checkpoint
    image and return the rebuilt store.  @raise Invalid_argument when
    the database is not durable. *)

val check_invariants : t -> (unit, string) result
(** Structural self-check of the underlying graph state (used by the
    fuzz tests). *)

(**/**)

val storage : t -> Dct_kv.Storage.t
