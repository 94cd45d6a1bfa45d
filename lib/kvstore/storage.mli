(** A scheduler's storage effects in one place: a {!Store}, an optional
    {!Wal} and the footprint of every live transaction — the undo/redo
    log kept to the resident set.

    A caller applies only what it accepts ({!begin_}, {!read}, {!write},
    {!commit}).  Every departure of a transaction, an abort or a
    deletion, arrives at {!remove}: the scheduler layer subscribes the
    storage once to its graph state's removal notice, so no removal
    path can forget the store.  A footprint entry lives from the
    transaction's {!begin_} to its removal, so the table is bounded by
    the residents.

    Rules for callers:
    - A transaction's versions must be in the store before the step
      that can remove it: greedy-C1 may delete a transaction inside the
      step that commits it, and its removal prunes against the versions
      it finds.
    - {!truncate} is the last thing a step does, after the step's
      outcome record ({!Wal.truncate_to} says why). *)

type t

val create : ?default:int -> ?wal:Wal.t -> unit -> t
(** A fresh store ([default] as for {!Store.create}); with [wal], every
    effect and abort is journaled to it. *)

val store : t -> Store.t
val wal : t -> Wal.t option

val begin_ : t -> txn:int -> unit
(** Open [txn]'s footprint and journal its [Begin]. *)

val read : t -> txn:int -> entity:int -> Version_log.version
(** {!Store.read}, noting [entity] in [txn]'s footprint. *)

val write : t -> txn:int -> entity:int -> value:int -> unit
(** {!Store.write}, noting [entity] in [txn]'s footprint; journal the
    [Write]. *)

val commit : t -> txn:int -> unit
(** Journal [txn]'s [Commit]. *)

val remove : t -> txn:int -> aborted:bool -> unit
(** [txn] left its graph state; its footprint entry dies.  Aborted: undo
    its versions and reader marks ({!Store.undo_writes}) and journal its
    [Abort].  Deleted (committed): {!Store.forget_txn}. *)

val truncate : t -> unit
(** Drop the WAL's longest prefix of records whose transactions have
    left ({!Wal.truncate_to}); a no-op without a WAL. *)

val footprints : t -> int
(** Live transactions with a footprint entry; O(1). *)
