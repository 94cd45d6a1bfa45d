(* The serving layer's contracts:

   - WIRE ROUND TRIPS (QCheck): every request/response frame survives
     encode/decode in both dialects, consuming exactly the frame's
     bytes, including back-to-back frames in one buffer.

   - TYPED REJECTIONS: truncated, oversized, negative-length, bad-tag,
     trailing-byte and garbage-line inputs each map to their typed
     {!Dct_net.Wire.error} — decoding never raises, and [Truncated]
     is reserved for valid-prefix-needs-more-bytes.

   - SERVER ROBUSTNESS: a mid-frame disconnect or an oversized frame
     costs only that connection (counted in [protocol_errors]); other
     clients keep being served.  A dying client's begun-but-incomplete
     transactions are aborted.  Response streams stay in issue order
     across mixed step/control requests.

   - LOOPBACK DIFFERENTIAL (the tentpole guarantee): a workload-mix
     schedule fed through socket + server + admission into the engine,
     under each of its three executors, produces the exact outcome
     sequence and a byte-identical JSONL trace (decisions, deletion
     rounds, checkpoints) as the same engine fed in-process — the
     network layer adds transport, never behavior.

   - DRIVER: the closed-loop multi-client driver accounts for every
     transaction and lands every op latency in the merged histograms.

   - MIX DISTRIBUTIONS: the workload catalog's samplers have the
     shapes on the label (read/update ratios, scan lengths, hotspot
     concentration, TPC-C plan shapes, schedule completeness). *)

module Wire = Dct_net.Wire
module Addr = Dct_net.Addr
module Server = Dct_net.Server
module Client = Dct_net.Client
module Driver = Dct_net.Driver
module Mix = Dct_workload.Mix
module Step = Dct_txn.Step
module Sched = Dct_sched.Scheduler_intf
module Eng = Dct_engine.Engine
module Policy = Dct_deletion.Policy
module Tracer = Dct_telemetry.Tracer
module Sink = Dct_telemetry.Sink
module Metrics = Dct_telemetry.Metrics

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let sock_path name =
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "dct-test-net-%d-%s.sock" (Unix.getpid ()) name)

(* --- QCheck: frame round trips in both dialects --- *)

(* Stats keys and error messages ride in the line dialect's last field
   with only spaces escaped, so the generator sticks to the vocabulary
   the server actually emits: identifier characters plus spaces. *)
let gen_label =
  QCheck.Gen.(
    string_size (int_range 1 12)
      ~gen:(oneofl [ 'a'; 'z'; 'q'; '0'; '9'; '.'; '_'; '-'; ' ' ]))

let gen_request =
  QCheck.Gen.(
    oneof
      [
        map (fun t -> Wire.Begin t) nat;
        map2 (fun t e -> Wire.Read (t, e)) nat nat;
        map2 (fun t es -> Wire.Write (t, es)) nat (list_size (int_range 0 5) nat);
        map (fun t -> Wire.Complete t) nat;
        map (fun t -> Wire.Abort t) nat;
        return Wire.Stats;
      ])

let gen_outcome =
  QCheck.Gen.oneofl
    [ Sched.Accepted; Sched.Rejected; Sched.Delayed; Sched.Ignored ]

let gen_response =
  QCheck.Gen.(
    oneof
      [
        map2
          (fun step outcome -> Wire.Outcome { step; outcome })
          nat gen_outcome;
        map (fun b -> Wire.Abort_reply b) bool;
        map
          (fun kvs -> Wire.Stats_reply kvs)
          (list_size (int_range 0 6) (pair gen_label nat));
        map (fun m -> Wire.Error_reply m) gen_label;
      ])

let request_print r = Wire.encode_request Wire.Line r

let dialects = [ Wire.Binary; Wire.Line ]

let roundtrip_prop ~encode ~decode v =
  List.for_all
    (fun d ->
      let frame = encode d v in
      match decode d frame ~pos:0 with
      | Ok (v', consumed) -> v' = v && consumed = String.length frame
      | Error e ->
          QCheck.Test.fail_reportf "%s frame %S rejected: %s"
            (Wire.dialect_name d) frame (Wire.error_to_string e))
    dialects

let prop_request_roundtrip =
  QCheck.Test.make ~count:300 ~name:"request round trip, both dialects"
    (QCheck.make ~print:request_print gen_request)
    (roundtrip_prop ~encode:Wire.encode_request ~decode:Wire.decode_request)

let prop_response_roundtrip =
  QCheck.Test.make ~count:300 ~name:"response round trip, both dialects"
    (QCheck.make
       ~print:(fun r -> Wire.encode_response Wire.Line r)
       gen_response)
    (roundtrip_prop ~encode:Wire.encode_response ~decode:Wire.decode_response)

(* Back-to-back frames in one buffer decode in sequence: the stream
   reader's invariant. *)
let prop_request_stream =
  QCheck.Test.make ~count:100 ~name:"concatenated frames decode in sequence"
    (QCheck.make
       QCheck.Gen.(pair (oneofl dialects) (list_size (int_range 1 8) gen_request)))
    (fun (d, reqs) ->
      let buf = String.concat "" (List.map (Wire.encode_request d) reqs) in
      let rec go pos acc =
        if pos >= String.length buf then List.rev acc
        else
          match Wire.decode_request d buf ~pos with
          | Ok (r, next) -> go next (r :: acc)
          | Error e ->
              QCheck.Test.fail_reportf "stream rejected at %d: %s" pos
                (Wire.error_to_string e)
      in
      go 0 [] = reqs)

(* --- typed rejections --- *)

let expect_error what expected actual =
  match actual with
  | Ok _ -> Alcotest.failf "%s: decoded instead of failing" what
  | Error e ->
      if e <> expected then
        Alcotest.failf "%s: expected %s, got %s" what
          (Wire.error_to_string expected)
          (Wire.error_to_string e)

let frame_of payload =
  let b = Buffer.create 16 in
  let len = Bytes.create 4 in
  Bytes.set_int32_be len 0 (Int32.of_int (String.length payload));
  Buffer.add_bytes b len;
  Buffer.add_string b payload;
  Buffer.contents b

let test_binary_errors () =
  let dec s = Wire.decode_request Wire.Binary s ~pos:0 in
  expect_error "short length prefix" Wire.Truncated (dec "\x00\x00\x00");
  expect_error "payload shorter than declared" Wire.Truncated
    (dec "\x00\x00\x00\x09\x01\x00\x00");
  expect_error "negative length" (Wire.Malformed "negative frame length")
    (dec "\xff\xff\xff\xff");
  (match dec "\x00\x20\x00\x00" with
  | Error (Wire.Oversized n) -> check_int "declared size reported" 0x200000 n
  | _ -> Alcotest.fail "oversized frame accepted");
  expect_error "unknown tag" (Wire.Bad_tag 0x7f) (dec (frame_of "\x7f"));
  expect_error "trailing payload bytes" (Wire.Malformed "trailing payload bytes")
    (dec (frame_of "\x06\x00"));
  expect_error "short payload field" (Wire.Malformed "short payload")
    (dec (frame_of "\x01\x00\x00"));
  (* a Write whose entity count promises more than the payload holds *)
  expect_error "lying entity count" (Wire.Malformed "short payload")
    (dec
       (frame_of
          ("\x03" ^ String.make 8 '\x00' ^ "\x00\x00\x00\x05" ^ String.make 8 '\x00')));
  match
    Wire.decode_response Wire.Binary (frame_of ("\x10" ^ String.make 8 '\x00' ^ "\x09")) ~pos:0
  with
  | Error (Wire.Malformed _) -> ()
  | _ -> Alcotest.fail "bad outcome code accepted"

let test_line_errors () =
  let dec s = Wire.decode_request Wire.Line s ~pos:0 in
  expect_error "unknown verb" (Wire.Malformed "unknown request verb flarp")
    (dec "flarp 1\n");
  (match dec "read x 3\n" with
  | Error (Wire.Malformed _) -> ()
  | _ -> Alcotest.fail "non-numeric field accepted");
  expect_error "no newline yet" Wire.Truncated (dec "begin 4");
  (match dec (String.make (Wire.max_frame + 8) 'a') with
  | Error (Wire.Oversized _) -> ()
  | _ -> Alcotest.fail "unterminated megabyte line accepted");
  match Wire.decode_response Wire.Line "outcome 3 maybe\n" ~pos:0 with
  | Error (Wire.Malformed _) -> ()
  | _ -> Alcotest.fail "bad outcome name accepted"

(* --- address parsing --- *)

let test_addr_parsing () =
  (match Addr.of_string "unix:/tmp/x.sock" with
  | Ok (Addr.Unix_path "/tmp/x.sock") -> ()
  | _ -> Alcotest.fail "unix path");
  (match Addr.of_string "tcp:localhost:7777" with
  | Ok (Addr.Tcp ("localhost", 7777)) -> ()
  | _ -> Alcotest.fail "tcp host:port");
  (match Addr.of_string "127.0.0.1:9" with
  | Ok (Addr.Tcp ("127.0.0.1", 9)) -> ()
  | _ -> Alcotest.fail "bare host:port");
  (match Addr.of_string "tcp::7070" with
  | Ok (Addr.Tcp ("127.0.0.1", 7070)) -> ()
  | _ -> Alcotest.fail "empty tcp host defaults to loopback");
  match Addr.of_string "no-port-here" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "junk accepted"

(* --- server fixtures --- *)

let with_server ?(flush_ms = 0) ?(shards = 2) ?(batch = 1) ~name f =
  let cfg = Eng.config ~policy:Policy.Greedy_c1 ~shards ~batch () in
  let srv =
    Server.create ~flush_ms
      ~engine:(Eng.create cfg)
      (Addr.Unix_path (sock_path name))
  in
  Server.start srv;
  Fun.protect ~finally:(fun () -> Server.stop srv) (fun () -> f srv)

let expect_outcome what resp =
  match resp with
  | Ok (Wire.Outcome { outcome; _ }) -> outcome
  | Ok _ -> Alcotest.failf "%s: non-outcome response" what
  | Error e -> Alcotest.failf "%s: %s" what (Wire.error_to_string e)

(* Issue order survives mixing steps with control requests: earlier
   step outcomes must land before an Abort_reply/Stats_reply. *)
let test_response_issue_order () =
  with_server ~batch:8 ~name:"order" (fun srv ->
      let cl = Client.connect (Server.addr srv) in
      Client.send cl (Wire.Begin 1);
      Client.send cl (Wire.Read (1, 3));
      Client.send cl (Wire.Abort 1);
      (match expect_outcome "begin" (Client.recv cl) with
      | Sched.Accepted -> ()
      | o -> Alcotest.failf "begin: %s" (Sched.outcome_name o));
      ignore (expect_outcome "read" (Client.recv cl));
      (match Client.recv cl with
      | Ok (Wire.Abort_reply true) -> ()
      | _ -> Alcotest.fail "active transaction not aborted");
      (match Client.call cl (Wire.Abort 1) with
      | Ok (Wire.Abort_reply false) -> ()
      | _ -> Alcotest.fail "double abort not a no-op");
      (match Client.call cl Wire.Stats with
      | Ok (Wire.Stats_reply kvs) ->
          check "stats carries connections" true
            (List.mem_assoc "connections" kvs);
          check "stats carries protocol_errors" true
            (List.mem_assoc "protocol_errors" kvs)
      | _ -> Alcotest.fail "no stats reply");
      Client.close cl)

(* A client that dies mid-frame (or mid-transaction) costs only its own
   connection: the typed error is counted, its begun transaction is
   aborted, and a concurrently connected client keeps being served. *)
let test_midframe_disconnect () =
  with_server ~name:"midframe" (fun srv ->
      let survivor = Client.connect (Server.addr srv) in
      ignore (expect_outcome "survivor begin" (Client.call survivor (Wire.Begin 1)));
      (* half a frame: a 32-byte payload announced, 3 bytes delivered *)
      let dying = Addr.connect (Server.addr srv) in
      let junk = "\x00\x00\x00\x20\x01\x02\x03" in
      ignore (Unix.write_substring dying junk 0 (String.length junk));
      Unix.close dying;
      (* and a whole client that vanishes with a transaction open *)
      let deserter = Client.connect (Server.addr srv) in
      ignore (expect_outcome "deserter begin" (Client.call deserter (Wire.Begin 7)));
      Client.close deserter;
      let deadline = Unix.gettimeofday () +. 5.0 in
      while Server.proto_errors srv < 1 && Unix.gettimeofday () < deadline do
        Thread.delay 0.01
      done;
      check_int "mid-frame disconnect counted" 1 (Server.proto_errors srv);
      (* the survivor still gets decisions *)
      ignore (expect_outcome "survivor read" (Client.call survivor (Wire.Read (1, 5))));
      ignore (expect_outcome "survivor complete" (Client.call survivor (Wire.Complete 1)));
      Client.close survivor;
      Server.stop srv;
      let r = Server.finish srv ~wall_seconds:0.0 in
      check_int "three connections served" 3 (Server.connections srv);
      (* the deserter's orphan was aborted, the survivor committed *)
      check_int "survivor committed" 1 r.Eng.committed;
      check "orphan aborted" true (r.Eng.aborted >= 1))

(* An oversized or garbage first frame gets the typed error reply in
   the right dialect, then the connection closes. *)
let test_oversized_gets_error_reply () =
  with_server ~name:"oversized" (fun srv ->
      let fd = Addr.connect (Server.addr srv) in
      let io = Wire.Io.of_fd fd in
      Wire.Io.write io "\x00\x20\x00\x00";
      (match Wire.Io.read_response io Wire.Binary with
      | Ok (Wire.Error_reply m) ->
          check "names the oversize" true
            (String.length m >= 9 && String.sub m 0 9 = "oversized")
      | r ->
          Alcotest.failf "expected error reply, got %s"
            (match r with
            | Ok _ -> "another response"
            | Error e -> Wire.error_to_string e));
      (match Wire.Io.read_response io Wire.Binary with
      | Error Wire.Closed -> ()
      | _ -> Alcotest.fail "connection not closed after protocol error");
      Unix.close fd)

let test_line_garbage_gets_error_reply () =
  with_server ~name:"garbage" (fun srv ->
      let fd = Addr.connect (Server.addr srv) in
      let io = Wire.Io.of_fd fd in
      Wire.Io.write io "bogus 1\n";
      (match Wire.Io.read_response io Wire.Line with
      | Ok (Wire.Error_reply _) -> ()
      | _ -> Alcotest.fail "expected a line-dialect error reply");
      Unix.close fd)

(* Both dialects drive the same server: a line-speaking client and a
   binary one interleave against one engine. *)
let test_mixed_dialects () =
  with_server ~name:"dialects" (fun srv ->
      let bin = Client.connect ~dialect:Wire.Binary (Server.addr srv) in
      let lin = Client.connect ~dialect:Wire.Line (Server.addr srv) in
      ignore (expect_outcome "bin begin" (Client.call bin (Wire.Begin 1)));
      ignore (expect_outcome "line begin" (Client.call lin (Wire.Begin 2)));
      ignore (expect_outcome "bin read" (Client.call bin (Wire.Read (1, 4))));
      ignore (expect_outcome "line read" (Client.call lin (Wire.Read (2, 4))));
      ignore (expect_outcome "bin complete" (Client.call bin (Wire.Complete 1)));
      ignore
        (expect_outcome "line complete" (Client.call lin (Wire.Write (2, [ 4 ]))));
      Client.close bin;
      Client.close lin;
      Server.stop srv;
      let r = Server.finish srv ~wall_seconds:0.0 in
      check_int "both committed" 2 r.Eng.committed)

(* A TCP endpoint with a kernel-chosen port works end to end. *)
let test_tcp_endpoint () =
  let cfg = Eng.config ~policy:Policy.Greedy_c1 ~shards:1 ~batch:1 () in
  let srv =
    Server.create ~flush_ms:0
      ~engine:(Eng.create cfg)
      (Addr.Tcp ("127.0.0.1", 0))
  in
  Server.start srv;
  (match Server.addr srv with
  | Addr.Tcp (_, port) -> check "kernel port learned" true (port > 0)
  | _ -> Alcotest.fail "tcp address expected");
  let cl = Client.connect (Server.addr srv) in
  ignore (expect_outcome "tcp begin" (Client.call cl (Wire.Begin 1)));
  ignore (expect_outcome "tcp complete" (Client.call cl (Wire.Complete 1)));
  Client.close cl;
  Server.stop srv

(* --- the loopback differential --- *)

type side = {
  s_outcomes : (int * Sched.outcome) list;
  s_trace : string;
  s_report : Eng.report;
}

let shards = 4
let batch = 8

let traced_config executor =
  let buf = Buffer.create 8192 in
  let tracer = Tracer.create ~sink:(Sink.memory buf) () in
  (Eng.config ~policy:Policy.Greedy_c1 ~tracer ~executor ~shards ~batch (), buf)

(* The in-process reference: the same engine fed directly. *)
let run_reference executor steps =
  let cfg, buf = traced_config executor in
  let outcomes = ref [] in
  let on_step idx _step o = outcomes := (idx, o) :: !outcomes in
  let report = Eng.run ~on_step (Eng.create cfg) steps in
  { s_outcomes = List.rev !outcomes; s_trace = Buffer.contents buf;
    s_report = report }

(* The same schedule through socket + server: one pipelined client
   sends every step, then a Stats request — the server flushes the
   trailing partial batch before answering it, exactly where the
   in-process run's end-of-input tick happens, so the batch cadence
   (and with it every checkpoint and GC round) matches.  [flush_ms:0]
   keeps the group-commit timer out of the schedule. *)
let run_via_server ~name executor steps =
  let cfg, buf = traced_config executor in
  let srv =
    Server.create ~flush_ms:0 ~engine:(Eng.create cfg) (Addr.Unix_path (sock_path name))
  in
  Server.start srv;
  let cl = Client.connect (Server.addr srv) in
  List.iter (fun s -> Client.send cl (Client.request_of_step s)) steps;
  Client.send cl Wire.Stats;
  let outcomes = ref [] in
  List.iteri
    (fun i _ ->
      match Client.recv cl with
      | Ok (Wire.Outcome { step; outcome }) ->
          outcomes := (step, outcome) :: !outcomes
      | Ok _ -> Alcotest.failf "step %d: non-outcome response" (i + 1)
      | Error e -> Alcotest.failf "step %d: %s" (i + 1) (Wire.error_to_string e))
    steps;
  (match Client.recv cl with
  | Ok (Wire.Stats_reply _) -> ()
  | _ -> Alcotest.fail "missing trailing stats reply");
  Client.close cl;
  Server.stop srv;
  let report = Server.finish srv ~wall_seconds:0.0 in
  { s_outcomes = List.rev !outcomes; s_trace = Buffer.contents buf;
    s_report = report }

let aggregate (r : Eng.report) =
  ( r.Eng.steps,
    r.Eng.accepted,
    r.Eng.rejected,
    r.Eng.ignored,
    r.Eng.committed,
    r.Eng.aborted,
    r.Eng.shard_resident_hwm,
    r.Eng.coordinator.Dct_engine.Coordinator.deleted_total,
    r.Eng.coordinator.Dct_engine.Coordinator.resident_hwm )

let loopback_differential ~label ~mix executor =
  let steps = Mix.schedule mix ~n_txns:48 ~keys:128 ~mpl:6 ~seed:11 in
  let net = run_via_server ~name:label executor steps in
  let reference = run_reference executor steps in
  check_int
    (label ^ ": one outcome per step")
    (List.length steps)
    (List.length net.s_outcomes);
  List.iteri
    (fun i ((ni, no), (ri, ro)) ->
      if ni <> ri || no <> ro then
        Alcotest.failf "%s: outcome %d diverged: net (%d, %s) vs ref (%d, %s)"
          label i ni (Sched.outcome_name no) ri (Sched.outcome_name ro))
    (List.combine net.s_outcomes reference.s_outcomes);
  (* deletion rounds, checkpoints and decisions all ride in the trace:
     byte equality (timings scrubbed) pins every one of them *)
  (match Eng.first_trace_divergence net.s_trace reference.s_trace with
  | None -> ()
  | Some d -> Alcotest.failf "%s: trace diverged: %s" label d);
  check (label ^ ": trace non-empty") true (String.length net.s_trace > 0);
  if aggregate net.s_report <> aggregate reference.s_report then
    Alcotest.failf "%s: report aggregates diverged" label

let test_differential_inline_ycsb_b () =
  loopback_differential ~label:"inline-ycsb-b" ~mix:Mix.Ycsb_b Eng.Inline

let test_differential_inline_long_reader () =
  loopback_differential ~label:"inline-long-reader" ~mix:Mix.Long_reader_pin
    Eng.Inline

let test_differential_replay_ycsb_b () =
  loopback_differential ~label:"replay-ycsb-b" ~mix:Mix.Ycsb_b (Eng.Replay 3)

let test_differential_replay_long_reader () =
  loopback_differential ~label:"replay-long-reader" ~mix:Mix.Long_reader_pin
    (Eng.Replay 3)

(* Real applier domains behind the server: the replay runs above pin
   byte equality; this pins that actual [Domain.spawn] appliers behave
   identically (the determinism contract makes the replay reference
   valid for a domains run). *)
let test_differential_domains () =
  let steps = Mix.schedule Mix.Ycsb_b ~n_txns:48 ~keys:128 ~mpl:6 ~seed:11 in
  let net = run_via_server ~name:"domains" Eng.Domains steps in
  let reference = run_reference (Eng.Replay 5) steps in
  check "domains outcomes == replay reference" true
    (net.s_outcomes = reference.s_outcomes);
  (match Eng.first_trace_divergence net.s_trace reference.s_trace with
  | None -> ()
  | Some d -> Alcotest.failf "domains trace diverged: %s" d);
  check "domains aggregates == replay reference" true
    (aggregate net.s_report = aggregate reference.s_report)

(* --- the closed-loop driver --- *)

let run_driver ~name ~mix ~dialect ~clients ~txns =
  let cfg = Eng.config ~policy:Policy.Greedy_c1 ~shards:2 ~batch:4 () in
  let srv =
    Server.create ~flush_ms:2
      ~engine:(Eng.create cfg)
      (Addr.Unix_path (sock_path name))
  in
  Server.start srv;
  let res =
    Driver.run
      { Driver.clients; txns_per_client = txns; mix; keys = 64; seed = 7; dialect }
      (Server.addr srv)
  in
  Server.stop srv;
  let report = Server.finish srv ~wall_seconds:res.Driver.wall_seconds in
  (res, report)

let test_driver_accounts_for_everything () =
  let res, report =
    run_driver ~name:"driver-bin" ~mix:Mix.Ycsb_b ~dialect:Wire.Binary
      ~clients:3 ~txns:10
  in
  check_int "every transaction issued" 30 res.Driver.txns;
  check_int "every transaction resolved" 30
    (res.Driver.completed + res.Driver.aborted);
  check "ops flowed" true (res.Driver.ops > 0);
  check_int "every op latency recorded" res.Driver.ops
    (Metrics.histo_count res.Driver.metrics "net.latency.all");
  check_int "engine agrees on commits" res.Driver.completed report.Eng.committed

let test_driver_line_dialect () =
  let res, _report =
    run_driver ~name:"driver-line" ~mix:Mix.Tpcc ~dialect:Wire.Line ~clients:2
      ~txns:6
  in
  check_int "line dialect resolves everything" 12
    (res.Driver.completed + res.Driver.aborted)

(* --- mix distributions: the catalog's labels are true --- *)

let plans mix n =
  let s = Mix.sampler mix ~keys:256 ~seed:5 in
  List.init n (fun _ -> Mix.next_plan s)

let test_mix_ycsb_shapes () =
  List.iter
    (fun (p : Mix.plan) ->
      check "ycsb-c read-only" true (p.Mix.writes = []);
      check_int "ycsb-c single read" 1 (List.length p.Mix.reads))
    (plans Mix.Ycsb_c 500);
  let updates =
    List.length (List.filter (fun (p : Mix.plan) -> p.Mix.writes <> []) (plans Mix.Ycsb_a 2000))
  in
  check
    (Printf.sprintf "ycsb-a ~50%% updates (%d/2000)" updates)
    true
    (updates > 850 && updates < 1150);
  let b_updates =
    List.length (List.filter (fun (p : Mix.plan) -> p.Mix.writes <> []) (plans Mix.Ycsb_b 2000))
  in
  check
    (Printf.sprintf "ycsb-b ~5%% updates (%d/2000)" b_updates)
    true
    (b_updates > 40 && b_updates < 180);
  List.iter
    (fun (p : Mix.plan) ->
      match (p.Mix.reads, p.Mix.writes) with
      | reads, [] ->
          let n = List.length reads in
          check "ycsb-e scan length 1-16" true (n >= 1 && n <= 16);
          (* scans are contiguous ranges *)
          (match reads with
          | first :: _ ->
              check "ycsb-e scan contiguous" true
                (reads = List.init n (fun i -> first + i))
          | [] -> ())
      | [], [ k ] -> check "ycsb-e insert allocates past keyspace" true (k >= 256)
      | _ -> Alcotest.fail "ycsb-e: neither scan nor insert")
    (plans Mix.Ycsb_e 500);
  List.iter
    (fun (p : Mix.plan) ->
      match p.Mix.writes with
      | [] -> ()
      | [ k ] -> check "ycsb-f RMW writes what it read" true (p.Mix.reads = [ k ])
      | _ -> Alcotest.fail "ycsb-f multi-write")
    (plans Mix.Ycsb_f 500)

let test_mix_hot_key_concentration () =
  let keys = 256 in
  let hot_cut = keys * 5 / 100 in
  let s = Mix.sampler Mix.Hot_key ~keys ~seed:9 in
  (* every hot-key plan draws exactly one key (an RMW rewrites the key
     it read), so the per-draw hot probability is what the label
     promises: ~90% *)
  let total = 4000 and hot = ref 0 in
  for _ = 1 to total do
    let p = Mix.next_plan s in
    List.iter (fun k -> if k < hot_cut then incr hot) p.Mix.reads
  done;
  let frac = float_of_int !hot /. float_of_int total in
  check
    (Printf.sprintf "hot 5%% of keys draw ~90%% of ops (%.2f)" frac)
    true
    (frac > 0.85 && frac < 0.95)

let test_mix_tpcc_shapes () =
  let seen_neworder = ref false and seen_payment = ref false
  and seen_stock = ref false in
  List.iter
    (fun (p : Mix.plan) ->
      match (p.Mix.reads, p.Mix.writes) with
      | reads, [] ->
          seen_stock := true;
          check "stock-level reads item rows" true
            (reads <> [] && List.length reads <= 21)
      | reads, writes when List.exists (fun k -> k >= 256) writes ->
          seen_neworder := true;
          (* reads = district :: items, writes = fresh order row ::
             the same items' stock rows *)
          check "new-order stock writes mirror the item reads" true
            (List.tl writes = List.tl reads);
          check "new-order order row is freshly inserted" true
            (List.hd writes >= 256 && List.hd reads < 64)
      | reads, writes ->
          seen_payment := true;
          check "payment rewrites the meta rows it read" true (reads = writes);
          check "payment touches 1-2 rows" true (List.length writes <= 2))
    (plans Mix.Tpcc 500);
  check "all three TPC-C flavors drawn" true
    (!seen_neworder && !seen_payment && !seen_stock)

let test_mix_long_reader_cadence () =
  let s = Mix.sampler Mix.Long_reader_pin ~keys:256 ~seed:3 in
  List.iteri
    (fun i (p : Mix.plan) ->
      if i mod 8 = 0 then begin
        check "pinned reader is read-only" true (p.Mix.writes = []);
        check "pinned reader reads dozens of keys" true
          (List.length p.Mix.reads >= 24)
      end
      else
        check "filler is ycsb-b-sized" true (List.length p.Mix.reads <= 1))
    (List.init 64 (fun _ -> Mix.next_plan s))

let schedule_covers mix =
  let n_txns = 40 in
  let steps = Mix.schedule mix ~n_txns ~keys:128 ~mpl:5 ~seed:2 in
  let begun = Hashtbl.create 64 and completed = Hashtbl.create 64 in
  List.iter
    (function
      | Step.Begin t -> Hashtbl.replace begun t ()
      | Step.Write (t, _) -> Hashtbl.replace completed t ()
      | Step.Read _ -> ()
      | _ -> Alcotest.fail "non-basic step in rendered schedule")
    steps;
  check_int (Mix.name mix ^ ": every transaction begun") n_txns
    (Hashtbl.length begun);
  check_int (Mix.name mix ^ ": every transaction completed") n_txns
    (Hashtbl.length completed);
  check (Mix.name mix ^ ": deterministic") true
    (steps = Mix.schedule mix ~n_txns ~keys:128 ~mpl:5 ~seed:2)

let test_mix_schedules_complete () = List.iter schedule_covers Mix.all

let test_mix_names_roundtrip () =
  List.iter
    (fun m ->
      match Mix.of_string (Mix.name m) with
      | Ok m' -> check (Mix.name m ^ " round trips") true (m = m')
      | Error e -> Alcotest.fail e)
    Mix.all;
  match Mix.of_string "ycsb-z" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown mix accepted"

let () =
  Alcotest.run "net"
    [
      ( "wire",
        [
          QCheck_alcotest.to_alcotest prop_request_roundtrip;
          QCheck_alcotest.to_alcotest prop_response_roundtrip;
          QCheck_alcotest.to_alcotest prop_request_stream;
          Alcotest.test_case "binary typed rejections" `Quick test_binary_errors;
          Alcotest.test_case "line typed rejections" `Quick test_line_errors;
          Alcotest.test_case "address parsing" `Quick test_addr_parsing;
        ] );
      ( "server",
        [
          Alcotest.test_case "responses stay in issue order" `Quick
            test_response_issue_order;
          Alcotest.test_case "mid-frame disconnect spares other clients" `Quick
            test_midframe_disconnect;
          Alcotest.test_case "oversized frame answered with typed error" `Quick
            test_oversized_gets_error_reply;
          Alcotest.test_case "garbage line answered with typed error" `Quick
            test_line_garbage_gets_error_reply;
          Alcotest.test_case "both dialects share one engine" `Quick
            test_mixed_dialects;
          Alcotest.test_case "tcp endpoint with kernel port" `Quick
            test_tcp_endpoint;
        ] );
      ( "loopback-differential",
        [
          Alcotest.test_case "inline, ycsb-b" `Quick
            test_differential_inline_ycsb_b;
          Alcotest.test_case "inline, long-reader-pin" `Quick
            test_differential_inline_long_reader;
          Alcotest.test_case "parallel engine (replay), ycsb-b" `Quick
            test_differential_replay_ycsb_b;
          Alcotest.test_case "parallel engine (replay), long-reader-pin" `Quick
            test_differential_replay_long_reader;
          Alcotest.test_case "parallel engine (domains)" `Quick
            test_differential_domains;
        ] );
      ( "driver",
        [
          Alcotest.test_case "closed loop accounts for everything" `Quick
            test_driver_accounts_for_everything;
          Alcotest.test_case "line dialect end to end" `Quick
            test_driver_line_dialect;
        ] );
      ( "mixes",
        [
          Alcotest.test_case "ycsb shapes" `Quick test_mix_ycsb_shapes;
          Alcotest.test_case "hot-key concentration" `Quick
            test_mix_hot_key_concentration;
          Alcotest.test_case "tpcc plan shapes" `Quick test_mix_tpcc_shapes;
          Alcotest.test_case "long-reader cadence" `Quick
            test_mix_long_reader_cadence;
          Alcotest.test_case "schedules complete and deterministic" `Quick
            test_mix_schedules_complete;
          Alcotest.test_case "names round trip" `Quick test_mix_names_roundtrip;
        ] );
    ]
