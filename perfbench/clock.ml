(* Every timing in the benchmark comes from here: the monotonic clock,
   never Sys.time (CPU time) or Unix.gettimeofday (wall time that can
   step). *)

let name = "clock_gettime(CLOCK_MONOTONIC) via bechamel.monotonic_clock"
let now_ns () = Int64.to_int (Monotonic_clock.now ())
let host_cores = Domain.recommended_domain_count ()
