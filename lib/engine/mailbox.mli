(** A mutex-batched multi-producer queue — the message fabric of the
    engine's [Domains] executor.

    Two roles, one structure:
    - {e per-shard mailbox}: the coordinator is the single producer and
      the shard's domain the single consumer; {!push_batch} delivers a
      whole command batch atomically (contiguously, in order), so a
      shard's command stream is exactly the concatenation of the batches
      the coordinator sent it;
    - {e ack channel}: every shard domain produces, the coordinator
      consumes.

    FIFO overall; each producer's pushes appear in its own program
    order, and a {!push_batch} is never interleaved with anything else.
    {!drain_wait} blocks until something arrives or the box is closed —
    an empty return therefore means "closed and drained", the worker's
    shutdown signal. *)

type 'a t

val create : unit -> 'a t

val push : 'a t -> 'a -> unit
(** @raise Invalid_argument if the mailbox is closed. *)

val push_batch : 'a t -> 'a list -> unit
(** Atomic batch append: the elements land contiguously, in list order.
    [[]] is a no-op.  @raise Invalid_argument if closed. *)

val drain : 'a t -> 'a list
(** Take everything currently queued (possibly []), non-blocking. *)

val drain_wait : 'a t -> 'a list
(** Block until the mailbox is non-empty or closed; return everything
    queued.  [[]] iff the mailbox is closed {e and} empty. *)

val close : 'a t -> unit
(** Wake every blocked consumer; further pushes raise. *)

val is_closed : 'a t -> bool
val pending : 'a t -> int
val pushed : 'a t -> int
(** Total elements ever pushed. *)

val batches : 'a t -> int
(** Total {!push_batch} calls that delivered at least one element. *)
