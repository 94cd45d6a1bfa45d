(* The oracle sweep: one synthetic operation trace per configuration
   (graph size x density x deletion rate), replayed against each
   cycle-detection backend.

   The trace is generated once from the seed, so every backend sees
   the identical operation sequence — arc attempts that
   would close a cycle are replayed as (negative) would_cycle probes
   followed by the insert, exactly the scheduler's access pattern.
   Results land in BENCH_oracle.json, which is re-read and validated
   before exiting (the [make bench-smoke] gate). *)

module Intset = Dct_graph.Intset
module Oracle = Dct_graph.Cycle_oracle
module Prng = Dct_workload.Prng

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
  let t0 = Sys.time () in
  List.iter (apply o) trace;
  (Sys.time () -. t0, o)

(* Per-query latency recording ([main.exe oracle-latency]): a telemetry
   probe feeds the shared fixed-bucket histograms, serialized next to
   wall_seconds.  The extra keys never collide with the substrings
   [validate] counts. *)
let probe_into m =
  Dct_telemetry.Probe.make (fun ~op ~backend ~ns ->
      Dct_telemetry.Metrics.observe m
        (Printf.sprintf "oracle.%s.%s" backend op)
        ns)

let json_of_latency m backend =
  let module M = Dct_telemetry.Metrics in
  let prefix = "oracle." ^ Oracle.backend_name backend ^ "." in
  let plen = String.length prefix in
  List.filter_map
    (fun name ->
      if String.length name > plen && String.sub name 0 plen = prefix then
        let op = String.sub name plen (String.length name - plen) in
        let buckets =
          M.histo_buckets m name
          |> List.filter (fun (_, c) -> c > 0)
          |> List.map (fun (b, c) ->
                 Printf.sprintf "[%s, %d]"
                   (if b = infinity then "\"inf\"" else Printf.sprintf "%.0f" b)
                   c)
        in
        Some
          (Printf.sprintf
             "%S: {\"count\": %d, \"mean_ns\": %.1f, \"p50_ns\": %.1f, \
              \"p99_ns\": %.1f, \"buckets\": [%s]}"
             op (M.histo_count m name) (M.histo_mean m name)
             (M.histo_percentile m name 50.0)
             (M.histo_percentile m name 99.0)
             (String.concat ", " buckets))
      else None)
    (M.histos m)
  |> String.concat ", "

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
  Printf.sprintf "{\"backend\": %S, \"wall_seconds\": %.6f%s}"
    (Oracle.backend_name backend)
    wall
    (match latency with
    | None -> ""
    | Some l -> Printf.sprintf ", \"latency\": {%s}" l)

let json_of_config c ~ops ~results ~disagreements =
  Printf.sprintf
    "    {\"n\": %d, \"avg_degree\": %d, \"delete_rate\": %.2f, \
     \"abort_rate\": %.2f, \"seed\": %d, \"ops\": %d,\n\
    \     \"results\": [%s], \"disagreements\": %d}"
    c.n c.avg_degree c.delete_rate c.abort_rate c.seed ops
    (String.concat ", " (List.map json_of_result results))
    disagreements

let output_file = "BENCH_oracle.json"

let write_json ~smoke rows =
  let oc = open_out output_file in
  Printf.fprintf oc
    "{\"bench\": \"oracle_sweep\", \"version\": 1, \"smoke\": %b,\n\
    \  \"configs\": [\n%s\n  ]}\n"
    smoke
    (String.concat ",\n" rows);
  close_out oc

(* Crude but dependency-free validation of what we just wrote: the
   header key is present, every config reports zero disagreements, and
   every wall_seconds value parses as a float. *)
let validate ~n_configs () =
  let ic = open_in output_file in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  let count_substring sub =
    let m = String.length sub and l = String.length s in
    let rec go i acc =
      if i + m > l then acc
      else if String.sub s i m = sub then go (i + m) (acc + 1)
      else go (i + 1) acc
    in
    go 0 0
  in
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun m -> errors := m :: !errors) fmt in
  if count_substring "\"bench\": \"oracle_sweep\"" <> 1 then
    err "missing bench header";
  if count_substring "\"disagreements\": 0" <> n_configs then
    err "expected %d clean configs" n_configs;
  let wall_key = "\"wall_seconds\": " in
  let rec walls i acc =
    match String.index_from_opt s i 'w' with
    | None -> acc
    | Some j ->
        if
          j >= 1
          && j + String.length wall_key - 1 <= String.length s
          && String.sub s (j - 1) (String.length wall_key) = wall_key
        then begin
          let k = j - 1 + String.length wall_key in
          let stop = ref k in
          while
            !stop < String.length s
            && (match s.[!stop] with '0' .. '9' | '.' | '-' | 'e' -> true | _ -> false)
          do
            incr stop
          done;
          let tok = String.sub s k (!stop - k) in
          (match float_of_string_opt tok with
          | Some f when f >= 0.0 -> ()
          | _ -> err "unparseable wall_seconds %S" tok);
          walls !stop (acc + 1)
        end
        else walls (j + 1) acc
  in
  let n_walls = walls 0 0 in
  if n_walls <> n_configs * 2 then
    err "expected %d wall_seconds entries, found %d" (n_configs * 2) n_walls;
  !errors

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
      (t, Some (json_of_latency m backend))
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
  write_json ~smoke rows;
  (match validate ~n_configs:(List.length configs) () with
  | [] -> Printf.printf "wrote %s (validated)\n" output_file
  | errs ->
      List.iter (Printf.eprintf "oracle sweep: %s malformed: %s\n" output_file) errs;
      incr failures);
  if !failures > 0 then exit 1
