type t = { observe : op:string -> backend:string -> ns:float -> unit }

let clock = "clock_gettime(CLOCK_MONOTONIC) via bechamel.monotonic_clock"
let now_ns () = Int64.to_float (Monotonic_clock.now ())

let observe t ~op ~backend ~ns = t.observe ~op ~backend ~ns

let make observe = { observe }

let obs probe ~op ~backend f =
  match probe with
  | None -> f ()
  | Some p ->
      let t0 = now_ns () in
      let r = f () in
      p.observe ~op ~backend ~ns:(now_ns () -. t0);
      r
