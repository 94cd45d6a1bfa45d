(** The socket server: concurrent clients feeding one engine through
    the batched admission queue, per-step outcomes routed back to the
    issuing client.

    Threading model (see [docs/net.md]):

    - one accept thread, one handler thread per connection, and an
      optional group-commit ticker that flushes the pending partial
      admission batch every [flush_ms] milliseconds;
    - a single mutex serializes every engine access (the engine is not
      thread-safe; decisions stay coordinator-sequential by design —
      concurrency buys pipelining of parsing/IO, not of deciding);
    - outcomes are routed by a FIFO of issuing clients: each submit
      pushes the client under the lock, and the engine's per-decision
      callback pops one per decided step — admission preserves
      submission order, so the two queues stay aligned;
    - control requests ([Abort]/[Stats]) tick the engine before
      answering, so each client's responses arrive in issue order;
    - a disconnecting client's begun-but-incomplete transactions are
      aborted (they would otherwise pin deletability forever); a
      protocol violation gets a typed [Error_reply] and only that
      connection is dropped. *)

type t

val create : ?flush_ms:int -> engine:Dct_engine.Engine.t -> Addr.t -> t
(** Listen on [addr] (not yet accepting — see {!start}) and install the
    server's outcome router as the engine's per-decision callback.
    [flush_ms] (default 20) is the group-commit flush interval; [<= 0]
    disables the ticker — then batches flush only when full or on
    control requests, which is what the loopback differential uses to
    keep batch cadence deterministic. *)

val addr : t -> Addr.t
(** The address actually bound (with [Tcp (_, 0)] it carries the
    kernel-chosen port). *)

val engine : t -> Dct_engine.Engine.t
val connections : t -> int
val proto_errors : t -> int

val start : t -> unit
val stop : t -> unit
(** Stop accepting, wake and join every handler thread, remove a Unix
    socket path.  Idempotent. *)

val finish : t -> wall_seconds:float -> Dct_engine.Engine.report
(** Run the engine's end-of-input epilogue ({!Dct_engine.Engine.finish})
    and report.  Call once, after {!stop} or after all clients have
    drained.
    @raise Dct_engine.Engine.Shard_failure if a shard applier died. *)
