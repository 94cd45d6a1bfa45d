module Si = Dct_sched.Scheduler_intf

type sample = {
  at_step : int;
  resident_txns : int;
  resident_arcs : int;
  active_txns : int;
}

type result = {
  name : string;
  steps : int;
  accepted : int;
  rejected : int;
  delayed : int;
  ignored : int;
  final : Si.stats;
  peak_resident : int;
  peak_arcs : int;
  mean_resident : float;
  samples : sample list;
  wall_seconds : float;
}

module Tracer = Dct_telemetry.Tracer
module Probe = Dct_telemetry.Probe

let checkpoint tracer at_step (st : Si.stats) =
  Tracer.checkpoint tracer (fun () ->
      {
        Dct_telemetry.Event.at_step;
        resident_txns = st.Si.resident_txns;
        resident_arcs = st.Si.resident_arcs;
        active_txns = st.Si.active_txns;
        committed = st.Si.committed_total;
        aborted = st.Si.aborted_total;
        deleted = st.Si.deleted_total;
        delayed = st.Si.delayed_now;
        resident_bytes = st.Si.resident_bytes;
      })

let run ?(sample_every = 16) ?observe ?(tracer = Tracer.disabled)
    (handle : Si.handle) schedule =
  let accepted = ref 0
  and rejected = ref 0
  and delayed = ref 0
  and ignored = ref 0 in
  let steps = ref 0 in
  let peak_resident = ref 0
  and peak_arcs = ref 0 in
  let resident_sum = ref 0 in
  let samples = ref [] in
  let t0 = Probe.now_ns () in
  List.iter
    (fun step ->
      incr steps;
      let outcome = handle.Si.step step in
      (match outcome with
      | Si.Accepted -> incr accepted
      | Si.Rejected -> incr rejected
      | Si.Delayed -> incr delayed
      | Si.Ignored -> incr ignored);
      (match observe with
      | Some f -> f !steps step outcome
      | None -> ());
      let st = handle.Si.stats () in
      peak_resident := max !peak_resident st.Si.resident_txns;
      peak_arcs := max !peak_arcs st.Si.resident_arcs;
      resident_sum := !resident_sum + st.Si.resident_txns;
      (* Gauges follow every step so their high-water marks equal the
         true residency peaks; checkpoint events follow the sampling
         cadence. *)
      Tracer.residency tracer ~txns:st.Si.resident_txns
        ~arcs:st.Si.resident_arcs ~bytes:st.Si.resident_bytes;
      if !steps mod sample_every = 0 then begin
        checkpoint tracer !steps st;
        samples :=
          {
            at_step = !steps;
            resident_txns = st.Si.resident_txns;
            resident_arcs = st.Si.resident_arcs;
            active_txns = st.Si.active_txns;
          }
          :: !samples
      end)
    schedule;
  ignore (handle.Si.drain ());
  let wall_seconds = (Probe.now_ns () -. t0) /. 1e9 in
  let final = handle.Si.stats () in
  checkpoint tracer !steps final;
  Tracer.flush tracer;
  {
    name = handle.Si.name;
    steps = !steps;
    accepted = !accepted;
    rejected = !rejected;
    delayed = !delayed;
    ignored = !ignored;
    final;
    peak_resident = !peak_resident;
    peak_arcs = !peak_arcs;
    mean_resident =
      (if !steps = 0 then 0.0
       else float_of_int !resident_sum /. float_of_int !steps);
    samples = List.rev !samples;
    wall_seconds;
  }

let run_fresh ?sample_every makers schedule =
  List.map (fun make -> run ?sample_every (make ()) schedule) makers
