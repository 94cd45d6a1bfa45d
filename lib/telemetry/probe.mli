(** Timing probes: the hook a measured component (a cycle-detection
    backend) calls around each query so the tracer can attribute oracle
    time per operation and per backend.

    The probe is deliberately the thinnest possible interface — one
    callback — so [Dct_graph] can be probed without depending on the
    event or metrics machinery.  {!Tracer.probe} builds the standard
    probe that emits {!Event.Oracle_query} and feeds the
    ["oracle.<backend>.<op>"] latency histograms.

    Clock: {!now_ns} is [Unix.gettimeofday], i.e. wall-clock with
    microsecond resolution reported in nanoseconds.  Sub-microsecond
    queries therefore record as 0 ns and land in the lowest histogram
    bucket; percentiles remain meaningful for the expensive tail, which
    is what the oracle sweeps compare. *)

type t = { observe : op:string -> backend:string -> ns:float -> unit }

val make : (op:string -> backend:string -> ns:float -> unit) -> t
val observe : t -> op:string -> backend:string -> ns:float -> unit

val now_ns : unit -> float
(** Wall-clock timestamp in nanoseconds (microsecond resolution). *)

val obs : t option -> op:string -> backend:string -> (unit -> 'a) -> 'a
(** [obs probe ~op ~backend f] runs [f ()]; when a probe is present the
    call is timed and reported.  With [None] no clock is read. *)
