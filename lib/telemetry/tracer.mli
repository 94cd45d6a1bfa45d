(** The run-wide tracing handle threaded through schedulers, graph
    state, rules and deletion policies.

    A tracer has up to two outputs: a sink for events and a metrics
    registry.  It is {!active} when it has a sink, and {!enabled} when
    it has either.  Only an active tracer builds events: a tracer
    created with {!Sink.null} and a registry (the [--metrics] alone
    configuration) feeds counters, gauges and histograms and builds no
    event, no cycle witness and no [Oracle_query].

    Zero-cost when disabled: {!disabled} carries no sink, no metrics
    and no probe, {!event} takes a thunk so inactive runs never build
    the event, and components test {!enabled}/{!active}/[probe = None]
    before doing any tracing-only work (witness extraction, candidate
    classification, clock reads).  Enabling tracing must not change a
    single scheduler decision — pinned by the metamorphic suite in
    [test_telemetry.ml]. *)

type t

val disabled : t
(** The inert tracer: everything is a no-op. *)

val create : ?metrics:Metrics.t -> ?sink:Sink.t -> unit -> t
(** A tracer over [sink] (default {!Sink.null}) and [metrics].  With
    neither it behaves exactly as {!disabled}. *)

val active : t -> bool
(** A sink is attached: events are built and emitted. *)

val enabled : t -> bool
(** A sink or a registry is attached.  [false] exactly when the tracer
    behaves as {!disabled}. *)

val event : t -> (unit -> Event.t) -> unit
(** Emit to the sink; the thunk is evaluated only when {!active}. *)

val probe : t -> Probe.t option
(** The oracle timing probe: emits {!Event.Oracle_query} when
    {!active} and feeds the ["oracle.<backend>.<op>"] latency
    histograms when a registry is attached.  [None] when not
    {!enabled} — pass it straight to [Dct_graph.Cycle_oracle.create]. *)

val metrics : t -> Metrics.t option
val sink : t -> Sink.t

val incr : ?by:int -> t -> string -> unit
val gauge : t -> string -> int -> unit
val observe : t -> string -> float -> unit
(** Metric helpers; no-ops without a registry. *)

val residency : t -> txns:int -> arcs:int -> bytes:int -> unit
(** Set the residency gauges ["resident_txns"], ["resident_arcs"] and
    ["graph.resident_bytes"]; a no-op without a registry.  Called every
    step by [Dct_sim.Driver], so the high-water marks are per-step
    peaks. *)

val checkpoint : t -> (unit -> Event.stats_snapshot) -> unit
(** The one writer of [Checkpoint_stats]: when {!enabled}, take the
    snapshot, emit it (when {!active}) and set the {!residency} gauges
    from it.  The thunk is not evaluated otherwise. *)

val flush : t -> unit
