(** Timing probes: the hook a measured component (a cycle-detection
    backend) calls around each query so the tracer can attribute oracle
    time per operation and per backend.

    The probe is deliberately the thinnest possible interface — one
    callback — so [Dct_graph] can be probed without depending on the
    event or metrics machinery.  {!Tracer.probe} builds the standard
    probe that emits {!Event.Oracle_query} and feeds the
    ["oracle.<backend>.<op>"] latency histograms.

    Clock: {!now_ns} is the one clock of the libraries, the CLI and the
    bench sweeps — [clock_gettime(CLOCK_MONOTONIC)] read through
    [bechamel.monotonic_clock], in nanoseconds.  It never steps with
    wall-clock adjustments and does not stop while the process waits,
    so a duration is elapsed time, not CPU time.  Its resolution is the
    host's monotonic clock (nanoseconds on Linux), so sub-microsecond
    queries record their own latency rather than 0. *)

type t = { observe : op:string -> backend:string -> ns:float -> unit }

val make : (op:string -> backend:string -> ns:float -> unit) -> t
val observe : t -> op:string -> backend:string -> ns:float -> unit

val clock : string
(** The name of the clock {!now_ns} reads, for the headers of files
    that record timings. *)

val now_ns : unit -> float
(** Monotonic timestamp in nanoseconds; only differences are
    meaningful. *)

val obs : t option -> op:string -> backend:string -> (unit -> 'a) -> 'a
(** [obs probe ~op ~backend f] runs [f ()]; when a probe is present the
    call is timed and reported.  With [None] no clock is read. *)
