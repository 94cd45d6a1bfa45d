(** Per-entity version chain.

    Every write installs a new version on top; every read is recorded on
    the version it observed.  This gives the two facts the rest of the
    system needs:

    - who accessed the {e current} value (Corollary 1's "noncurrent
      transaction" test: a completed transaction none of whose accesses
      touched a current value can always be deleted);
    - which transaction a read {e read from} (the direct-dependency
      relation of the multi-write model, driving cascading aborts). *)

type version = {
  value : int;
  writer : int option;  (** [None] for the initial version *)
  seq : int;            (** global installation order *)
  mutable readers : Dct_graph.Intset.t;
}

type t

val create : initial:int -> t
(** A chain holding one initial version with sequence number 0. *)

val current : t -> version

val read_current : t -> reader:int -> version
(** Returns the current version and records [reader] on it. *)

val install : t -> writer:int -> value:int -> seq:int -> version

val remove_writer : t -> int -> unit
(** Splices out every version written by the given transaction (undo of
    an aborted transaction's writes).  Readers recorded on the removed
    versions are discarded with them — the scheduler is responsible for
    aborting those dependents first. *)

val forget_reader : t -> int -> unit
(** Erase a transaction from every version's reader set. *)

val prune_before : t -> int -> unit
(** Drop every version older than the newest one the given transaction
    wrote; a no-op when it wrote none here.  Sound once that writer is
    committed: no undo can remove its version, so nothing older can be
    current again. *)

val pristine : t -> bool
(** Is the chain back to its bare initial version, with no reader
    recorded on it?  Such a chain is indistinguishable from a fresh
    one. *)

val length : t -> int
