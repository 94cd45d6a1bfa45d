(* The graph-substrate sweep: the arena + bitset residency claim.

   Each configuration drives a cycle-detection backend through a
   {e churn} workload: a sliding window of [resident] live nodes while
   the id stream issues [churn x resident] total ids — ids cycle far
   past the resident population, the regime the slot arena exists for.
   Per id: add the node, attempt [avg_degree] arcs against random
   residents (cycle-closing attempts stay as negative [would_cycle]
   probes, the scheduler shape), one [reaches] query, and once the
   window is full one removal of the oldest resident (mostly the
   paper's `Bypass` reduction, a slice of `Exact` aborts).

   Reported per backend: wall seconds, ops/s, per-op latency
   histograms (through the oracle's telemetry probe), and the byte
   gauge sampled when the window first fills and again at end of
   stream.  A substrate that leaked slot capacity with the historical
   id space would show [bytes_final >> bytes_first_full]; the run fails
   if the ratio exceeds [flatness_bound].

   Results land in BENCH_graph.json (BENCH_graph.smoke.json for the
   [make bench-graph-smoke] gate), re-read and validated by Bench_io. *)

module Intset = Dct_graph.Intset
module Oracle = Dct_graph.Cycle_oracle
module Prng = Dct_workload.Prng
module Json = Dct_telemetry.Json

type config = {
  resident : int; (* target live-window size n *)
  churn : int; (* total ids issued = churn * resident *)
  avg_degree : int;
  backends : Oracle.backend list;
  seed : int;
}

(* The closure keeps O(resident^2) reachability bits, so it only runs
   where that is affordable; the topo backend sweeps the full range —
   the 10^6 row is the tentpole claim. *)
let full_configs =
  [
    {
      resident = 2_000;
      churn = 5;
      avg_degree = 2;
      backends = [ Oracle.Closure; Oracle.Topo ];
      seed = 7;
    };
    {
      resident = 10_000;
      churn = 20;
      avg_degree = 2;
      backends = [ Oracle.Topo ];
      seed = 7;
    };
    {
      resident = 100_000;
      churn = 5;
      avg_degree = 2;
      backends = [ Oracle.Topo ];
      seed = 7;
    };
    {
      resident = 1_000_000;
      churn = 3;
      avg_degree = 2;
      backends = [ Oracle.Topo ];
      seed = 7;
    };
  ]

(* Sized for a 1-core CI lane: seconds, not minutes, same shape. *)
let smoke_configs =
  [
    {
      resident = 300;
      churn = 5;
      avg_degree = 2;
      backends = [ Oracle.Closure; Oracle.Topo ];
      seed = 7;
    };
    {
      resident = 5_000;
      churn = 3;
      avg_degree = 2;
      backends = [ Oracle.Topo ];
      seed = 11;
    };
  ]

let flatness_bound = 1.5

type row = {
  backend : Oracle.backend;
  wall : float;
  ops : int;
  bytes_first_full : int;
  bytes_final : int;
  latency : Json.t;
}

(* One deterministic replay.  The PRNG is re-seeded per backend so every
   backend sees the identical operation sequence; the window is a
   circular buffer (O(1) random access for arc/query endpoints, FIFO
   eviction = completed transactions retiring in submission order). *)
let replay cfg backend =
  let m = Dct_telemetry.Metrics.create () in
  let o = Oracle.create ~probe:(Oracle_sweep.probe_into m) backend in
  let rng = Prng.create ~seed:cfg.seed in
  let total = cfg.resident * cfg.churn in
  let window = Array.make cfg.resident (-1) in
  let head = ref 0 (* oldest resident's position *)
  and live = ref 0 in
  let pick () = window.((!head + Prng.int rng !live) mod cfg.resident) in
  let recent = 64 in
  let pick_recent () =
    let back = 1 + Prng.int rng (min recent !live) in
    window.((!head + !live - back + cfg.resident) mod cfg.resident)
  in
  let ops = ref 0 in
  let bytes_first_full = ref 0 in
  let step id =
    Oracle.add_node o id;
    incr ops;
    if !live > 0 then begin
      for _ = 1 to cfg.avg_degree do
        (* The Rules 2/3 shape: a conflict arc from an older resident
           into the newest node.  The would_cycle probe is the point —
           on the topo backend rank clipping answers it in O(1), which
           is the whole case for that backend at this scale. *)
        let src = pick () in
        incr ops;
        if src <> id && not (Oracle.would_cycle o ~src ~dst:id) then
          Oracle.add_arc o ~src ~dst:id
      done;
      (* Reachability between recent residents (the certifier probing
         freshly conflicting transactions): rank-local, so the clipped
         search touches a bounded region. *)
      incr ops;
      ignore (Oracle.reaches o ~src:(pick_recent ()) ~dst:(pick_recent ()));
      (* A 1-in-64 slice of arbitrary-pair traffic keeps the
         whole-region search path honest in the latency histograms
         without letting an O(resident) walk dominate the rate. *)
      if id land 63 = 0 then begin
        incr ops;
        ignore (Oracle.reaches o ~src:(pick ()) ~dst:(pick ()));
        let src = pick () and dst = pick () in
        incr ops;
        if src <> dst && not (Oracle.would_cycle o ~src ~dst) then
          Oracle.add_arc o ~src ~dst
      end
    end;
    if !live = cfg.resident then begin
      (* Window full: evict the oldest.  1 in 8 evictions is the
         paper's bypass reduction; the rest are exact removals — the
         mix a policy-driven run produces, where most of a retiring
         transaction's neighbourhood has already left the graph and
         bypass-arc densification stays a boundary effect rather than
         the steady state. *)
      let victim = window.(!head) in
      let mode = if Prng.int rng 8 = 0 then `Bypass else `Exact in
      Oracle.remove_node o mode victim;
      incr ops;
      window.(!head) <- id;
      head := (!head + 1) mod cfg.resident;
      if !bytes_first_full = 0 then bytes_first_full := Oracle.bytes o
    end
    else begin
      window.((!head + !live) mod cfg.resident) <- id;
      incr live
    end
  in
  let wall, () =
    Bench_io.time (fun () ->
        for id = 0 to total - 1 do
          step id
        done)
  in
  {
    backend;
    wall;
    ops = !ops;
    bytes_first_full =
      (if !bytes_first_full = 0 then Oracle.bytes o else !bytes_first_full);
    bytes_final = Oracle.bytes o;
    latency = Oracle_sweep.latency_json m;
  }

let ops_per_sec r = if r.wall > 0.0 then float_of_int r.ops /. r.wall else nan

let json_of_row cfg r =
  Json.Obj
    ([
       ("backend", Json.String (Oracle.backend_name r.backend));
       ("wall_seconds", Json.Float r.wall);
       ("ops", Json.Int r.ops);
     ]
    (* no member when the run was too fast for the clock to see *)
    @ (if r.wall > 0.0 then [ ("ops_per_sec", Json.Float (ops_per_sec r)) ]
       else [])
    @ [
        ("bytes_first_full", Json.Int r.bytes_first_full);
        ("bytes_final", Json.Int r.bytes_final);
        ( "bytes_per_resident",
          Json.Float (float_of_int r.bytes_final /. float_of_int cfg.resident) );
        ("latency", r.latency);
      ])

let json_of_config cfg rows =
  Json.Obj
    [
      ("resident", Json.Int cfg.resident);
      ("churn", Json.Int cfg.churn);
      ("avg_degree", Json.Int cfg.avg_degree);
      ("total_ids", Json.Int (cfg.resident * cfg.churn));
      ("seed", Json.Int cfg.seed);
      ("results", Json.List (List.map (json_of_row cfg) rows));
    ]

let checks =
  Bench_io.
    [
      ( "one bytes_per_resident per result",
        each (fun c ->
            List.for_all
              (fun r -> Json.float "bytes_per_resident" r >= 0.0)
              (Json.list "results" c)) );
    ]

let run ~smoke () =
  let configs = if smoke then smoke_configs else full_configs in
  Printf.printf "graph sweep (%d configs)%s\n" (List.length configs)
    (if smoke then " [smoke]" else "");
  Printf.printf "%9s %6s %4s %8s %10s %12s %14s %10s\n" "resident" "churn"
    "deg" "backend" "ops/s" "bytes/node" "flatness" "wall (s)";
  let failures = ref 0 in
  let rows =
    List.map
      (fun cfg ->
        let results = List.map (replay cfg) cfg.backends in
        List.iter
          (fun r ->
            let flat =
              float_of_int r.bytes_final /. float_of_int r.bytes_first_full
            in
            (* The residency claim: capacity tracks the resident window,
               not the (churn x larger) historical id space. *)
            if flat > flatness_bound then begin
              Printf.eprintf
                "graph sweep: %s at n=%d NOT FLAT: %d bytes at first full \
                 window, %d at end (x%.2f > x%.2f)\n"
                (Oracle.backend_name r.backend)
                cfg.resident r.bytes_first_full r.bytes_final flat
                flatness_bound;
              incr failures
            end;
            Printf.printf "%9d %6d %4d %8s %10.0f %12.1f %13.2fx %10.2f\n"
              cfg.resident cfg.churn cfg.avg_degree
              (Oracle.backend_name r.backend)
              (ops_per_sec r)
              (float_of_int r.bytes_final /. float_of_int cfg.resident)
              flat r.wall)
          results;
        json_of_config cfg results)
      configs
  in
  Bench_io.emit ~sweep:"graph" ~smoke ~checks ~failures:!failures rows
