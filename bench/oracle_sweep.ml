(* The oracle sweep: one synthetic operation trace per configuration
   (graph size x density x deletion rate), replayed against each
   cycle-detection backend.

   The trace is generated once from the seed, so every backend sees
   the identical operation sequence — arc attempts that
   would close a cycle are replayed as (negative) would_cycle probes
   followed by the insert, exactly the scheduler's access pattern.
   Results land in BENCH_oracle.json (BENCH_oracle.smoke.json for the
   smoke run, BENCH_oracle_latency.smoke.json with per-query latency),
   re-read and validated by Bench_io before exiting (the
   [make bench-smoke] gate). *)

module Intset = Dct_graph.Intset
module Oracle = Dct_graph.Cycle_oracle
module Prng = Dct_workload.Prng
module Json = Dct_telemetry.Json

type op =
  | Add_node of int
  | Arc_attempt of int * int (* replay: would_cycle, insert when safe *)
  | Query of int * int (* replay: reaches *)
  | Query_any of int * Intset.t (* replay: reaches_any *)
  | Remove of [ `Bypass | `Exact ] * int

type config = {
  n : int;
  avg_degree : int;
  delete_rate : float;
  abort_rate : float;
  seed : int;
}

let pick rng live = live.(Prng.int rng (Array.length live))

let chance rng p = Prng.int rng 10_000 < int_of_float (p *. 10_000.0)

let make_trace { n; avg_degree; delete_rate; abort_rate; seed } =
  let rng = Prng.create ~seed in
  let live = ref [||] in
  let add_live v = live := Array.append !live [| v |] in
  let drop_live v = live := Array.of_list (List.filter (( <> ) v) (Array.to_list !live)) in
  let ops = ref [] in
  let emit op = ops := op :: !ops in
  for v = 0 to n - 1 do
    add_live v;
    emit (Add_node v);
    (* Arc attempts: half point into the newest node (the schedulers'
       Rules 2/3 shape), half join two arbitrary live nodes (bypass /
       certification shape).  Cycle-closing attempts stay in the trace
       as negative probes. *)
    for k = 1 to avg_degree do
      let src, dst =
        if k mod 2 = 0 && Array.length !live > 1 then (pick rng !live, v)
        else (pick rng !live, pick rng !live)
      in
      emit (Arc_attempt (src, dst))
    done;
    emit (Query (pick rng !live, pick rng !live));
    if Array.length !live >= 4 then begin
      let dsts =
        Intset.of_list [ pick rng !live; pick rng !live; pick rng !live ]
      in
      emit (Query_any (pick rng !live, dsts))
    end;
    if Array.length !live > 2 && chance rng delete_rate then begin
      let w = pick rng !live in
      if w <> v then begin
        emit (Remove (`Bypass, w));
        drop_live w
      end
    end;
    if Array.length !live > 2 && chance rng abort_rate then begin
      let w = pick rng !live in
      if w <> v then begin
        emit (Remove (`Exact, w));
        drop_live w
      end
    end
  done;
  List.rev !ops

let apply o = function
  | Add_node v -> Oracle.add_node o v
  | Arc_attempt (src, dst) ->
      if not (Oracle.would_cycle o ~src ~dst) then Oracle.add_arc o ~src ~dst
  | Query (src, dst) -> ignore (Oracle.reaches o ~src ~dst)
  | Query_any (src, dsts) -> ignore (Oracle.reaches_any o ~src ~dsts)
  | Remove (mode, v) -> Oracle.remove_node o mode v

let replay ?probe backend trace =
  let o = Oracle.create ?probe backend in
  Bench_io.time (fun () -> List.iter (apply o) trace; o)

(* Per-query latency recording ([main.exe oracle-latency]): a telemetry
   probe feeds the shared fixed-bucket histograms, serialized next to
   wall_seconds. *)
let probe_into m =
  Dct_telemetry.Probe.make (fun ~op ~backend ~ns ->
      Dct_telemetry.Metrics.observe m
        (Printf.sprintf "oracle.%s.%s" backend op)
        ns)

(* Every histogram of a registry [probe_into] fed, by name. *)
let latency_json m =
  let module M = Dct_telemetry.Metrics in
  Json.Obj (List.map (fun name -> (name, M.histo_json m name)) (M.histos m))

(* Replays under [Checked] raise on the first divergence; a clean run
   counts zero disagreements. *)
let count_disagreements trace =
  match replay Oracle.Checked trace with
  | _, _ -> 0
  | exception Oracle.Disagreement msg ->
      Printf.eprintf "oracle sweep: DISAGREEMENT: %s\n" msg;
      1

let full_configs =
  (* The sparse n>=1000 rows back the "topo beats closure at scale"
     claim; dense and deletion-heavy rows chart where the trade flips. *)
  List.concat_map
    (fun n ->
      List.concat_map
        (fun avg_degree ->
          List.map
            (fun delete_rate ->
              { n; avg_degree; delete_rate; abort_rate = 0.05; seed = 7 })
            [ 0.0; 0.2 ])
        [ 2; 8 ])
    [ 200; 1000; 2000 ]

let smoke_configs =
  [
    { n = 30; avg_degree = 2; delete_rate = 0.2; abort_rate = 0.05; seed = 7 };
    { n = 60; avg_degree = 3; delete_rate = 0.1; abort_rate = 0.05; seed = 11 };
  ]

let json_of_result (backend, wall, latency) =
  Json.Obj
    ([
       ("backend", Json.String (Oracle.backend_name backend));
       ("wall_seconds", Json.Float wall);
     ]
    @ match latency with None -> [] | Some l -> [ ("latency", l) ])

let json_of_config c ~ops ~results ~disagreements =
  Json.Obj
    [
      ("n", Json.Int c.n);
      ("avg_degree", Json.Int c.avg_degree);
      ("delete_rate", Json.Float c.delete_rate);
      ("abort_rate", Json.Float c.abort_rate);
      ("seed", Json.Int c.seed);
      ("ops", Json.Int ops);
      ("results", Json.List (List.map json_of_result results));
      ("disagreements", Json.Int disagreements);
    ]

let checks =
  Bench_io.
    [
      ( "zero disagreements per config",
        each (fun r -> Json.int "disagreements" r = 0) );
      ( "two non-negative wall_seconds per config",
        each (fun r ->
            let results = Json.list "results" r in
            List.length results = 2
            && List.for_all (fun x -> Json.float "wall_seconds" x >= 0.0) results)
      );
    ]

let run ~smoke ?(latency = false) () =
  let configs = if smoke then smoke_configs else full_configs in
  Printf.printf "oracle sweep (%d configs)%s%s\n"
    (List.length configs)
    (if smoke then " [smoke]" else "")
    (if latency then " [per-query latency]" else "");
  Printf.printf "%6s %4s %6s %6s %8s %12s %12s %8s\n" "n" "deg" "del" "abort"
    "ops" "closure (s)" "topo (s)" "speedup";
  let failures = ref 0 in
  let timed backend trace =
    if not latency then
      let t, _ = replay backend trace in
      (t, None)
    else begin
      let m = Dct_telemetry.Metrics.create () in
      let t, _ = replay ~probe:(probe_into m) backend trace in
      (t, Some (latency_json m))
    end
  in
  let rows =
    List.map
      (fun c ->
        let trace = make_trace c in
        let ops = List.length trace in
        let t_closure, lat_closure = timed Oracle.Closure trace in
        let t_topo, lat_topo = timed Oracle.Topo trace in
        let disagreements = count_disagreements trace in
        if disagreements > 0 then incr failures;
        Printf.printf "%6d %4d %6.2f %6.2f %8d %12.4f %12.4f %7.1fx\n" c.n
          c.avg_degree c.delete_rate c.abort_rate ops t_closure t_topo
          (if t_topo > 0.0 then t_closure /. t_topo else nan);
        json_of_config c ~ops
          ~results:
            [
              (Oracle.Closure, t_closure, lat_closure);
              (Oracle.Topo, t_topo, lat_topo);
            ]
          ~disagreements)
      configs
  in
  Bench_io.emit
    ~sweep:(if latency then "oracle_latency" else "oracle")
    ~smoke ~checks ~failures:!failures rows
