(* The metric catalogue, the result of one run, and its two renderings:
   one line per metric for people, then one JSON object as the last line
   of standard output.  BENCHMARK.json is the catalogue: each section's
   metric names, their order and units are read from it at start-up. *)

(* The end-to-end metric and workload each per-layer metric should move.
   BENCHMARK.json has no key for this; [check_catalogue] holds the two
   lists of names to each other. *)
let targets =
  [
    ("graph.oracle.query_ns", "step_p99_us on sched-gc-noncurrent");
    ("graph.oracle.queries_per_step", "step_p99_us on sched-gc-noncurrent");
    ("deletion.rules.apply_ns", "steps_per_s, step_growth on sched-churn");
    ("deletion.policy.run_ns", "steps_per_s on sched-gc-noncurrent");
    ("deletion.policy.yield", "steps_per_s on sched-gc-noncurrent");
    ("deletion.graph_state.entities_retained", "retained_mb, step_growth on sched-churn");
    ("deletion.graph_state.tombstones", "retained_mb, step_growth on sched-churn");
    ("deletion.graph_state.resident_bytes_end", "retained_mb, step_growth on sched-churn");
    ("deletion.graph_state.resident_txns_mean", "none: decisions must not change");
    ("deletion.graph_state.resident_txns_peak", "none: decisions must not change");
    ("scheduler.stats_ns", "steps_per_s on sched-churn");
    ("engine.submit_ns", "steps_per_s on engine-tpcc");
    ("engine.coordinator.decide_ns", "steps_per_s on engine-tpcc");
    ("engine.coordinator.gc_ns", "steps_per_s on engine-tpcc");
    ("engine.shards_ns", "steps_per_s on engine-tpcc");
    ("engine.coordinator.resident_hwm", "none: must not change");
    ("engine.shard.resident_hwm", "none: must not change");
    ("engine.cross_shard_arcs", "none: must not change");
    ("engine.distributed_txns", "none: must not change");
    ("engine.shard.wal_retained", "retained_mb on engine-tpcc");
    ("engine.shard.store_versions", "retained_mb on engine-tpcc");
    ("engine.admission.full_batch_frac", "step_p50_us on serve-ycsb-b");
    ("net.wire.codec_ns", "step_p50_us on serve-ycsb-b");
    ("net.engine_share_us", "step_p50_us on serve-ycsb-b");
    ("net.server.unattributed_us", "step_p50_us, steps_per_s on serve-ycsb-b");
    ("ledger.traced_step_ns", "the traced total the ledger splits, per step");
    ("unattributed_ns", "ledger gap per step: traced total - layers");
    ("telemetry.trace_overhead", "traced / untraced steps_per_s");
  ]

(* Just enough JSON to read BENCHMARK.json. *)
type json = Str of string | Arr of json list | Obj of (string * json) list | Other

let parse_json s =
  let n = String.length s and i = ref 0 in
  let fail () = failwith (Printf.sprintf "BENCHMARK.json: unexpected input at byte %d" !i) in
  let peek () = if !i < n then s.[!i] else fail () in
  let rec ws () = if !i < n && String.contains " \t\r\n" s.[!i] then (incr i; ws ()) in
  let eat c = ws (); if peek () = c then incr i else fail () in
  let str () =
    eat '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | '"' -> incr i
      | '\\' -> incr i; Buffer.add_char b (peek ()); incr i; go ()
      | c -> Buffer.add_char b c; incr i; go ()
    in
    go ();
    Buffer.contents b
  in
  (* [item] repeatedly until [close], separated by commas *)
  let seq close item =
    ws ();
    if peek () = close then (incr i; [])
    else
      let rec go acc =
        let acc = item () :: acc in
        ws ();
        match peek () with
        | ',' -> incr i; go acc
        | c when c = close -> incr i; List.rev acc
        | _ -> fail ()
      in
      go []
  in
  let rec value () =
    ws ();
    match peek () with
    | '{' -> incr i; Obj (seq '}' (fun () -> let k = str () in eat ':'; (k, value ())))
    | '[' -> incr i; Arr (seq ']' value)
    | '"' -> Str (str ())
    | _ ->
        while !i < n && not (String.contains ",]} \t\r\n" s.[!i]) do incr i done;
        Other
  in
  value ()

(* (name, unit) of every metric in one section of BENCHMARK.json. *)
let section json key =
  let field k = function Obj kv -> List.assoc_opt k kv | _ -> None in
  match field key json with
  | Some (Arr ms) ->
      List.map
        (fun m ->
          match (field "name" m, field "unit" m) with
          | Some (Str name), Some (Str u) -> (name, u)
          | _ -> failwith ("BENCHMARK.json: a " ^ key ^ " metric lacks a name or a unit"))
        ms
  | _ -> failwith ("BENCHMARK.json: no " ^ key ^ " list")

(* Read from the working directory, the root of the checkout. *)
let benchmark =
  lazy
    (let json = parse_json (In_channel.with_open_bin "BENCHMARK.json" In_channel.input_all) in
     (section json "end_to_end", section json "per_layer"))

(* Every per-layer metric of BENCHMARK.json has a target here, and no
   other. *)
let check_catalogue () =
  match Lazy.force benchmark with
  | exception (Failure e | Sys_error e) -> [ e ]
  | _, per_layer ->
      let names = List.sort compare in
      if names (List.map fst per_layer) = names (List.map fst targets) then []
      else [ "the per-layer targets do not name the per-layer metrics of BENCHMARK.json" ]

type metric = { name : string; value : float; note : string }

let metric ?(note = "") name value = { name; value; note }

type t = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : metric list;
  ledger : (string * float) list;
      (** traced run: (row, total ns) — the layers, then the
          benchmark's own bookkeeping and [unattributed] *)
  problems : string list;  (** why [correct] is false *)
}

let catalogue ~trace =
  let end_to_end, per_layer = Lazy.force benchmark in
  if trace then per_layer else end_to_end

let unit_of ~trace name =
  match List.assoc_opt name (catalogue ~trace) with
  | Some u -> u
  | None -> invalid_arg ("Report: metric not in BENCHMARK.json: " ^ name)

(* Every catalogue metric, in catalogue order; a per-layer metric the
   workload does not exercise reads 0 ("n/a" for people). *)
let complete ~trace r =
  List.iter (fun m -> ignore (unit_of ~trace m.name)) r.metrics;
  List.map
    (fun (name, _) ->
      match List.find_opt (fun m -> m.name = name) r.metrics with
      | Some m -> (m, true)
      | None -> (metric name 0., false))
    (catalogue ~trace)

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else "0"

let print ~workload ~seed ~trace r =
  Printf.printf "workload %s, seed %d, %s run; clock %s; host_cores %d\n" workload seed
    (if trace then "traced" else "timed")
    Clock.name Clock.host_cores;
  let rows = complete ~trace r in
  List.iter
    (fun (m, present) ->
      let u = unit_of ~trace m.name in
      (* a per-layer row names the end-to-end metric it should move *)
      let target = if trace then "  -> " ^ List.assoc m.name targets else "" in
      if present then
        Printf.printf "  %-40s %14.4f %-6s%s%s\n" m.name m.value u
          (if m.note = "" then "" else "  (" ^ m.note ^ ")")
          target
      else Printf.printf "  %-40s %14s %-6s%s\n" m.name "n/a" u target)
    rows;
  if r.ledger <> [] then begin
    let total = List.fold_left (fun acc (_, ns) -> acc +. ns) 0. r.ledger in
    Printf.printf "  ledger (traced total %.3f ms = the rows below):\n" (total /. 1e6);
    List.iter
      (fun (row, ns) ->
        Printf.printf "    %-30s %12.3f ms %6.2f%%\n" row (ns /. 1e6)
          (if total > 0. then 100. *. ns /. total else 0.))
      r.ledger
  end;
  List.iter (Printf.printf "  FAILED: %s\n") r.problems;
  let metrics =
    List.map
      (fun (m, _) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name (json_number m.value)
          (unit_of ~trace m.name))
      rows
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    r.correct (max 1 r.attempted) r.failed (String.concat ", " metrics)
