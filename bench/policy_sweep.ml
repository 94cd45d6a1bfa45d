(* The policy sweep: GC cost with and without the deletability index.

   Each configuration builds the index's worst-case-for-naive shape: a
   long reader pins [pinned] committed writers forever (its read of
   [x_i] precedes T_i's sole write, so the obligation (x_i, Write)
   needs a second writer in cts(reader) that never arrives — the
   transactions are permanently ineligible), then a churn phase commits
   and immediately GCs short fresh-entity transactions.  A naive GC
   round re-derives every resident verdict — O(resident) with the
   resident set held at ~[pinned] — while the incremental index only
   re-checks the churn transaction's tight neighbourhood, so the gap
   grows linearly with n.  This is the low-deletion-rate regime the
   index exists for (docs/gc.md).

   Per-GC-call latencies are recorded through the telemetry [Probe]
   (op = "gc", backend = the index mode), exactly the instrumentation
   [dct simulate --gc-index ... --metrics] and the [dct trace] gc
   section use.  Results land in BENCH_policy.json
   (BENCH_policy.smoke.json for the [make bench-policy-smoke] gate),
   re-read and validated by Bench_io before exiting; full runs
   additionally enforce the >= 5x incremental speedup on the
   n >= 1000 high-pin configurations and zero checked-mode
   divergences everywhere. *)

module Intset = Dct_graph.Intset
module Gs = Dct_deletion.Graph_state
module Rules = Dct_deletion.Rules
module Policy = Dct_deletion.Policy
module Dindex = Dct_deletion.Deletability_index
module Step = Dct_txn.Step
module Metrics = Dct_telemetry.Metrics
module Tracer = Dct_telemetry.Tracer
module Json = Dct_telemetry.Json

type config = {
  n : int;  (** transactions in the pinned prefix + churn *)
  pinned_frac : float;  (** fraction of [n] held permanently ineligible *)
  churn : int;  (** short transactions committed (and GCed) after the pin *)
  policy : Policy.t;
  seed : int;
}

let pinned_of c = int_of_float (float_of_int c.n *. c.pinned_frac)

(* Phase 1: the reader (txn 0) reads x_1..x_pinned, then T_i commits its
   sole write of x_i — arc reader -> T_i, reader stays active.  Phase 2:
   churn transactions write fresh entities and commit; the caller runs
   GC after each commit. *)
let build_prefix c gs =
  let pinned = pinned_of c in
  ignore (Rules.apply gs (Step.Begin 0));
  for i = 1 to pinned do
    ignore (Rules.apply gs (Step.Read (0, i)))
  done;
  for i = 1 to pinned do
    ignore (Rules.apply gs (Step.Begin i));
    ignore (Rules.apply gs (Step.Write (i, [ i ])))
  done

let churn_steps c =
  let pinned = pinned_of c in
  List.concat
    (List.init c.churn (fun j ->
         let txn = pinned + 1 + j and entity = pinned + 1 + j in
         [ Step.Begin txn; Step.Write (txn, [ entity ]) ]))

(* One full run: returns (gc_wall_seconds, gc_calls, final_resident). *)
let run_config c ~metrics index_mode =
  let tracer =
    match metrics with
    | None -> Tracer.disabled
    | Some m -> Tracer.create ~metrics:m ~sink:Dct_telemetry.Sink.null ()
  in
  let gs = Gs.create ~tracer () in
  let index = Option.map (fun mode -> Dindex.attach mode gs) index_mode in
  build_prefix c gs;
  let gc_wall = ref 0.0 and gc_calls = ref 0 in
  List.iter
    (fun s ->
      ignore (Rules.apply gs s);
      match s with
      | Step.Write _ ->
          let dt, _ = Bench_io.time (fun () -> Policy.run ?index c.policy gs) in
          gc_wall := !gc_wall +. dt;
          incr gc_calls
      | _ -> ())
    (churn_steps c);
  (!gc_wall, !gc_calls, Gs.txn_count gs)

(* Checked mode raises on the first divergence; a clean run counts
   zero. *)
let count_divergences c =
  match run_config c ~metrics:None (Some Dindex.Checked) with
  | _ -> 0
  | exception Dindex.Divergence msg ->
      Printf.eprintf "policy sweep: DIVERGENCE: %s\n" msg;
      1

let json_of_result ~backend ~wall ~calls ~latency =
  Json.Obj
    ([
       ("backend", Json.String backend);
       ("gc_wall_seconds", Json.Float wall);
       ("gc_calls", Json.Int calls);
     ]
    @ match latency with None -> [] | Some l -> [ ("latency", l) ])

(* An infinite [speedup] (the incremental run too fast for the clock to
   see) leaves the member out. *)
let json_of_config c ~results ~speedup ~divergences =
  Json.Obj
    ([
       ("n", Json.Int c.n);
       ("pinned_frac", Json.Float c.pinned_frac);
       ("churn", Json.Int c.churn);
       ("policy", Json.String (Policy.name c.policy));
       ("seed", Json.Int c.seed);
       ("results", Json.List results);
     ]
    @ (if Float.is_finite speedup then [ ("speedup", Json.Float speedup) ]
       else [])
    @ [ ("divergences", Json.Int divergences) ])

let checks =
  Bench_io.
    [
      ("zero divergences per config", each (fun r -> Json.int "divergences" r = 0));
      ( "two gc_wall_seconds per config",
        each (fun r ->
            let results = Json.list "results" r in
            List.length results = 2
            && List.for_all (fun x -> Json.float "gc_wall_seconds" x >= 0.0) results)
      );
    ]

let full_configs =
  (* n >= 1000 x high pin = the paper's long-running-reader regime, the
     rows backing the >= 5x claim; the low-pin and small-n rows chart
     where maintaining the index stops paying. *)
  List.concat_map
    (fun n ->
      List.concat_map
        (fun pinned_frac ->
          List.map
            (fun policy -> { n; pinned_frac; churn = 300; policy; seed = 7 })
            [ Policy.Greedy_c1; Policy.Noncurrent ])
        [ 0.5; 0.95 ])
    [ 200; 1000; 2000 ]

let smoke_configs =
  [
    { n = 60; pinned_frac = 0.9; churn = 40; policy = Policy.Greedy_c1; seed = 7 };
    { n = 80; pinned_frac = 0.5; churn = 30; policy = Policy.Noncurrent; seed = 11 };
  ]

let run ~smoke ?(latency = true) () =
  let configs = if smoke then smoke_configs else full_configs in
  Printf.printf "policy sweep (%d configs)%s\n"
    (List.length configs)
    (if smoke then " [smoke]" else "");
  Printf.printf "%6s %6s %6s %12s %12s %12s %8s\n" "n" "pin" "churn" "policy"
    "naive (s)" "incr (s)" "speedup";
  let failures = ref 0 in
  let timed c mode =
    if not latency then
      let wall, calls, _ = run_config c ~metrics:None mode in
      (wall, calls, None)
    else begin
      let m = Metrics.create () in
      let wall, calls, _ = run_config c ~metrics:(Some m) mode in
      let backend =
        match mode with None -> "naive" | Some md -> Dindex.mode_name md
      in
      let gc = Printf.sprintf "oracle.%s.gc" backend in
      ( wall,
        calls,
        if Metrics.histo_count m gc = 0 then None
        else Some (Metrics.histo_json m gc) )
    end
  in
  let rows =
    List.map
      (fun c ->
        let w_n, calls_n, lat_n = timed c None in
        let w_i, calls_i, lat_i = timed c (Some Dindex.Incremental) in
        let divergences = count_divergences c in
        if divergences > 0 then incr failures;
        let speedup = if w_i > 0.0 then w_n /. w_i else infinity in
        Printf.printf "%6d %6.2f %6d %12s %12.4f %12.4f %7.1fx\n" c.n
          c.pinned_frac c.churn (Policy.name c.policy) w_n w_i speedup;
        (* The acceptance bar: on the n >= 1000 high-pin greedy rows the
           index must win by at least 5x (asymptotically it wins by
           O(n); 5x leaves room for timer noise). *)
        if
          (not smoke)
          && c.n >= 1000
          && c.pinned_frac >= 0.9
          && c.policy = Policy.Greedy_c1
          && speedup < 5.0
        then begin
          Printf.eprintf
            "policy sweep: n=%d pin=%.2f %s: speedup %.1fx < 5x\n" c.n
            c.pinned_frac (Policy.name c.policy) speedup;
          incr failures
        end;
        json_of_config c
          ~results:
            [
              json_of_result ~backend:"naive" ~wall:w_n ~calls:calls_n
                ~latency:lat_n;
              json_of_result ~backend:"incremental" ~wall:w_i ~calls:calls_i
                ~latency:lat_i;
            ]
          ~speedup ~divergences)
      configs
  in
  Bench_io.emit ~sweep:"policy" ~smoke ~checks ~failures:!failures rows
