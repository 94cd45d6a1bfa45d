type t = {
  active : bool;
  sink : Sink.t;
  metrics : Metrics.t option;
  probe : Probe.t option;
}

let disabled = { active = false; sink = Sink.Null; metrics = None; probe = None }

let create ?metrics ?(sink = Sink.Null) () =
  let active = match sink with Sink.Null -> false | _ -> true in
  let probe =
    if (not active) && metrics = None then None
    else
      Some
        (Probe.make (fun ~op ~backend ~ns ->
             if active then Sink.emit sink (Event.Oracle_query { op; backend; ns });
             match metrics with
             | Some m -> Metrics.observe m (Printf.sprintf "oracle.%s.%s" backend op) ns
             | None -> ()))
  in
  { active; sink; metrics; probe }

let active t = t.active
let enabled t = t.active || t.metrics <> None
let metrics t = t.metrics
let probe t = t.probe
let sink t = t.sink

let event t f = if t.active then Sink.emit t.sink (f ())

let incr ?by t name =
  match t.metrics with Some m -> Metrics.incr ?by m name | None -> ()

let gauge t name v =
  match t.metrics with Some m -> Metrics.gauge m name v | None -> ()

let observe t name v =
  match t.metrics with Some m -> Metrics.observe m name v | None -> ()

let residency t ~txns ~arcs ~bytes =
  match t.metrics with
  | Some m ->
      Metrics.gauge m "resident_txns" txns;
      Metrics.gauge m "resident_arcs" arcs;
      Metrics.gauge m "graph.resident_bytes" bytes
  | None -> ()

let checkpoint t snapshot =
  if enabled t then begin
    let (s : Event.stats_snapshot) = snapshot () in
    event t (fun () -> Event.Checkpoint_stats s);
    residency t ~txns:s.resident_txns ~arcs:s.resident_arcs ~bytes:s.resident_bytes
  end

let flush t = Sink.flush t.sink
