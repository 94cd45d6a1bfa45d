(* The history-checker sweep: streaming throughput by level and trace
   size (writes BENCH_check.json, or BENCH_check.smoke.json).

   The workload is a synthetic round-robin history: [mpl] transaction
   slots, each cycling begin / read / read / write / commit over a
   small entity space, fresh transaction ids forever — the shape a
   long-lived scheduler trace has, with the live set pinned at [mpl]
   however long the stream runs.  Rows record events/s plus the
   checker's own residency gauges ([max_live], [max_resident]), which
   is the constant-memory evidence: they must not grow with n.

   Two kinds of rows:

   - in-memory rows feed synthesized operations straight to
     [Checker.feed], isolating the analysis cost per level (the
     atomicity row runs >= 10^6 events in the full sweep);
   - the [jsonl] row is end-to-end: a 10^6-event telemetry JSONL file
     is written to disk and checked through [Checker.check_file] —
     parse, adapt, analyze — the exact [dct check trace.jsonl] path.

   The smoke run is the CI gate: tiny sizes, exits non-zero when
   its file fails Bench_io's validation or a residency gauge grew past the
   workload's structural bound.  The full run additionally enforces
   the acceptance bar: >= 100k events/s at the atomicity level on the
   10^6-event rows, both in-memory and end-to-end. *)

module H = Dct_check.History
module C = Dct_check.Checker
module V = Dct_check.Violation
module Prng = Dct_workload.Prng
module Json = Dct_telemetry.Json

let mpl = 8
let entities = 64

(* Feed [n] synthetic operations; [f] sees each located op in order. *)
let synthesize ~n ~seed f =
  let rng = Prng.create ~seed in
  let slot_txn = Array.init mpl (fun i -> i) in
  let slot_stage = Array.make mpl 0 in
  let next = ref mpl in
  for i = 1 to n do
    let s = i mod mpl in
    let t = slot_txn.(s) in
    let op =
      match slot_stage.(s) with
      | 0 -> H.Begin t
      | 1 | 2 -> H.Read (t, Prng.int rng entities)
      | 3 -> H.Write (t, Prng.int rng entities)
      | _ -> H.Commit t
    in
    slot_stage.(s) <- (slot_stage.(s) + 1) mod 5;
    if slot_stage.(s) = 0 then begin
      slot_txn.(s) <- !next;
      incr next
    end;
    f { H.index = i; line = 0; op }
  done

let feed_row ~level ~n ~seed =
  let chk = C.create ~level () in
  let wall, () = Bench_io.time (fun () -> synthesize ~n ~seed (C.feed chk)) in
  (wall, C.finalize chk)

(* The same synthetic history as telemetry JSONL: every operation is a
   submitted step followed by an accepted decision, in the basic-model
   dialect ([write] carries the final write and commits, so the
   commit stage is folded into the write stage: 4 steps per cycle). *)
let write_jsonl path ~events ~seed =
  let module E = Dct_telemetry.Event in
  let oc = open_out path in
  let sink = Dct_telemetry.Sink.channel oc in
  let rng = Prng.create ~seed in
  let slot_txn = Array.init mpl (fun i -> i) in
  let slot_stage = Array.make mpl 0 in
  let next = ref mpl in
  let emitted = ref 0 in
  let i = ref 0 in
  while !emitted < events do
    incr i;
    let s = !i mod mpl in
    let txn = slot_txn.(s) in
    let kind, reads, writes =
      match slot_stage.(s) with
      | 0 -> ("begin", [], [])
      | 1 | 2 -> ("read", [ Prng.int rng entities ], [])
      | _ -> ("write", [], [ Prng.int rng entities ])
    in
    slot_stage.(s) <- (slot_stage.(s) + 1) mod 4;
    if slot_stage.(s) = 0 then begin
      slot_txn.(s) <- !next;
      incr next
    end;
    Dct_telemetry.Sink.emit sink
      (E.Step_submitted { index = !i; step = { E.kind; txn; reads; writes } });
    Dct_telemetry.Sink.emit sink
      (E.Decision { index = !i; txn; outcome = "accepted"; reason = "" });
    emitted := !emitted + 2
  done;
  close_out oc

let jsonl_row ~level ~events ~seed =
  let path = Filename.temp_file "dct_check_bench" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      write_jsonl path ~events ~seed;
      let wall, result = Bench_io.time (fun () -> C.check_file ~level path) in
      match result with
      | Error e -> failwith ("check_file failed: " ^ e)
      | Ok (report, stats) -> (wall, report, stats))

let json_of_row ~mode ~level ~n ~wall (r : C.report) =
  Json.Obj
    [
      ("mode", Json.String mode);
      ("level", Json.String (V.level_name level));
      ("events", Json.Int n);
      ("wall_seconds", Json.Float wall);
      ("events_per_sec", Json.Float (float_of_int n /. wall));
      ("max_live", Json.Int r.C.max_live);
      ("max_resident", Json.Int r.C.max_resident);
      ("violations", Json.Int r.C.total);
    ]

let checks =
  Bench_io.
    [
      ( "one events_per_sec per row",
        each (fun r -> Json.float "events_per_sec" r >= 0.0) );
      ( "exactly one jsonl row",
        fun rows ->
          List.length (List.filter (fun r -> Json.string "mode" r = "jsonl") rows)
          = 1 );
    ]

let run ~smoke () =
  let base = if smoke then 20_000 else 100_000 in
  let feed_sizes =
    if smoke then List.map (fun l -> (l, [ base ])) V.all_levels
    else
      List.map
        (fun l ->
          (l, if l = V.Atomicity then [ base; 1_000_000 ] else [ base; 300_000 ]))
        V.all_levels
  in
  let jsonl_events = if smoke then base else 1_000_000 in
  Printf.printf "check sweep%s\n" (if smoke then " [smoke]" else "");
  Printf.printf "%8s %10s %10s %12s %9s %12s %10s\n" "mode" "level" "events"
    "events/s" "max_live" "max_resident" "violations";
  let failures = ref 0 in
  let fail fmt =
    Printf.ksprintf
      (fun m ->
        incr failures;
        Printf.printf "FAIL %s\n" m)
      fmt
  in
  (* The workload keeps exactly [mpl] slots live.  The structural
     residency bounds are per level: atomicity/rc retain only live
     transactions; ra/causal additionally pin committed writers while
     an entity's current version or a live reader's slot references
     them (<= entities + live read slots); ser's entity slots
     accumulate committed readers until the next write of that entity
     (O(entities x write interval), still independent of n).  Anything
     past these means the checker is accumulating state with n. *)
  let resident_bound = function
    | V.Atomicity | V.Read_committed -> 4 * mpl
    | V.Read_atomic | V.Causal -> (4 * mpl) + entities
    | V.Serializable -> 8 * entities
  in
  let row ~mode ~level ~n ~wall (r : C.report) =
    let rate = float_of_int n /. wall in
    Printf.printf "%8s %10s %10d %12.0f %9d %12d %10d\n" mode
      (V.level_name level) n rate r.C.max_live r.C.max_resident r.C.total;
    let bound = resident_bound level in
    if r.C.max_resident > bound then
      fail "%s/%s residency grew: max_resident %d > bound %d" mode
        (V.level_name level) r.C.max_resident bound;
    if r.C.divergence <> None then
      fail "%s/%s checked-mode divergence" mode (V.level_name level);
    if (not smoke) && level = V.Atomicity && n >= 1_000_000 && rate < 100_000.
    then
      fail "%s/atomicity below the 100k events/s bar: %.0f" mode rate;
    json_of_row ~mode ~level ~n ~wall r
  in
  let rows =
    List.concat_map
      (fun (level, sizes) ->
        List.map
          (fun n ->
            let wall, r = feed_row ~level ~n ~seed:11 in
            row ~mode:"feed" ~level ~n ~wall r)
          sizes)
      feed_sizes
  in
  let wall, r, stats = jsonl_row ~level:V.Atomicity ~events:jsonl_events ~seed:11 in
  if stats.H.bad_lines > 0 then fail "jsonl row had %d bad lines" stats.H.bad_lines;
  let rows =
    rows
    @ [ row ~mode:"jsonl" ~level:V.Atomicity ~n:jsonl_events ~wall r ]
  in
  Bench_io.emit ~sweep:"check" ~smoke ~checks ~failures:!failures rows
