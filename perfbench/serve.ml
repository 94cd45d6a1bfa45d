(* The served workload: [dct serve --listen unix:...] as a child
   process, driven by closed-loop [Dct_net.Client] connections from
   threads of this process, never more of them than the host has
   cores.  Each connection sends YCSB-B plans one op at a time and waits
   for the outcome before sending the next. *)

module Wire = Dct_net.Wire
module Client = Dct_net.Client
module Addr = Dct_net.Addr
module Mix = Dct_workload.Mix
module Si = Dct_sched.Scheduler_intf

let keys = 1024
let shards = 4
let batch = 8
let flush_ms = 2
let clients = max 1 (min 2 Clock.host_cores)
let deadline_ns = 2_000_000_000
let warmup_txns = 40
let setups = 3

(* ---- the server process ---- *)

type server = { pid : int; out : Unix.file_descr; addr : Addr.t }

let live_children = ref []

let () =
  (* a server that died must surface as a failed op, not kill us *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !live_children)

let forget pid = live_children := List.filter (( <> ) pid) !live_children

let spawn ?(flush_ms = flush_ms) ~dct ~workdir ~tag () =
  let path = Filename.concat workdir (Printf.sprintf "serve-%d-%d.sock" (Unix.getpid ()) tag) in
  let addr = Addr.Unix_path path in
  let r, w = Unix.pipe ~cloexec:true () in
  let args =
    [| dct; "serve"; "--listen"; Addr.to_string addr; "--shards"; string_of_int shards;
       "-b"; string_of_int batch; "-p"; "greedy"; "--oracle"; "topo";
       "--flush-ms"; string_of_int flush_ms; "--json" |]
  in
  let pid = Unix.create_process dct args Unix.stdin w Unix.stderr in
  Unix.close w;
  live_children := pid :: !live_children;
  let srv = { pid; out = r; addr } in
  let give_up = Clock.now_ns () + 10_000_000_000 in
  let rec wait_ready () =
    match Addr.connect addr with
    | fd -> Unix.close fd
    | exception Unix.Unix_error ((ENOENT | ECONNREFUSED), _, _) ->
        if Clock.now_ns () > give_up then failwith "dct serve did not start listening";
        (match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ -> ()
        | _ -> forget pid; failwith "dct serve exited before listening");
        Thread.delay 0.005;
        wait_ready ()
  in
  wait_ready ();
  srv

let rss_bytes srv =
  let ic = open_in (Printf.sprintf "/proc/%d/status" srv.pid) in
  let rec find () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmRSS:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb -> kb * 1024)
    | _ -> find ()
    | exception End_of_file -> 0
  in
  Fun.protect ~finally:(fun () -> close_in ic) find

(* SIGTERM, then read the report the server prints on its way out.
   A server that does not exit in time is killed. *)
let stop srv =
  (try Unix.kill srv.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let b = Buffer.create 4096 in
  let chunk = Bytes.create 4096 in
  let give_up = Clock.now_ns () + 20_000_000_000 in
  let rec drain () =
    let left = float_of_int (give_up - Clock.now_ns ()) /. 1e9 in
    if left <= 0. then (try Unix.kill srv.pid Sys.sigkill with Unix.Unix_error _ -> ())
    else
      match Unix.select [ srv.out ] [] [] left with
      | [], _, _ -> drain ()
      | _ -> (
          match Unix.read srv.out chunk 0 (Bytes.length chunk) with
          | 0 -> ()
          | n -> Buffer.add_subbytes b chunk 0 n; drain ())
      | exception Unix.Unix_error (EINTR, _, _) -> drain ()
  in
  drain ();
  Unix.close srv.out;
  let _, status = Unix.waitpid [] srv.pid in
  forget srv.pid;
  (* a killed server leaves its socket behind *)
  Addr.cleanup srv.addr;
  (Buffer.contents b, status)

(* [key] of the server's one-line JSON report, or of its plain
   "N protocol error(s)" line. *)
let report_int output key =
  let find_after pat s =
    let lp = String.length pat and ls = String.length s in
    let rec go i = if i + lp > ls then None else if String.sub s i lp = pat then Some (i + lp) else go (i + 1) in
    go 0
  in
  let digits_from s i =
    let j = ref i in
    while !j < String.length s && s.[!j] >= '0' && s.[!j] <= '9' do incr j done;
    int_of_string_opt (String.sub s i (!j - i))
  in
  match key with
  | `Json k -> Option.bind (find_after (Printf.sprintf "%S:" k) output) (digits_from output)
  | `Proto_errors ->
      Option.bind (find_after "connection(s) served, " output) (digits_from output)

(* ---- closed-loop clients ---- *)

(* growable int buffer *)
type vec = { mutable a : int array; mutable len : int }

let vec () = { a = Array.make 4096 0; len = 0 }

let push v x =
  if v.len = Array.length v.a then begin
    let a = Array.make (2 * v.len) 0 in
    Array.blit v.a 0 a 0 v.len;
    v.a <- a
  end;
  v.a.(v.len) <- x;
  v.len <- v.len + 1

type client = {
  id : int;
  conn : Client.t;
  sampler : Mix.sampler;
  mutable next_txn : int;
  mutable op_started : int;  (** 0 when idle; read by the watchdog *)
  mutable alive : bool;
  mutable ops : int;
  mutable completed : int;
  mutable failures : string list;
  mutable codec : Common.timer;
  starts : vec;
  durs : vec;
}

let connect srv ~seed id =
  {
    id;
    conn = Client.connect ~dialect:Wire.Binary srv.addr;
    sampler = Mix.sampler Mix.Ycsb_b ~keys ~seed:(seed + (7919 * id));
    next_txn = 0;
    op_started = 0;
    alive = true;
    ops = 0;
    completed = 0;
    failures = [];
    codec = Common.timer ();
    starts = vec ();
    durs = vec ();
  }

let fail c why =
  c.alive <- false;
  c.failures <- why :: c.failures

(* Round-trip the request and the response through the wire codecs
   (the traced run's [net.wire.codec_ns]). *)
let codec_round_trip c req resp =
  Common.time_call c.codec (fun () ->
      let q = Wire.encode_request Wire.Binary req in
      ignore (Sys.opaque_identity (Wire.decode_request Wire.Binary q ~pos:0));
      let s = Wire.encode_response Wire.Binary resp in
      ignore (Sys.opaque_identity (Wire.decode_response Wire.Binary s ~pos:0)))

let op c ~record ~trace req =
  let a = Clock.now_ns () in
  c.op_started <- a;
  let r = try Client.call c.conn req with e -> Error (Wire.Malformed (Printexc.to_string e)) in
  let dt = Clock.now_ns () - a in
  c.op_started <- 0;
  if record then begin
    c.ops <- c.ops + 1;
    push c.starts a;
    push c.durs dt
  end;
  match r with
  | Ok (Wire.Outcome { outcome; _ } as resp) ->
      if trace then codec_round_trip c req resp;
      Some outcome
  | Ok (Wire.Error_reply m) -> fail c ("protocol error: " ^ m); None
  | Ok _ -> fail c "unexpected reply"; None
  | Error e -> fail c ("no reply: " ^ Wire.error_to_string e); None

(* One transaction of the mix: begin, the reads one at a time, then the
   final write (or read-only completion).  A rejected op ends it. *)
let run_txn c ~record ~trace =
  let id = 1 + c.id + (clients * c.next_txn) in
  c.next_txn <- c.next_txn + 1;
  let plan = Mix.next_plan c.sampler in
  let step req = c.alive && op c ~record ~trace req = Some Si.Accepted in
  let ok =
    step (Wire.Begin id)
    && List.for_all (fun k -> step (Wire.Read (id, k))) plan.Mix.reads
    && step (match plan.Mix.writes with [] -> Wire.Complete id | es -> Wire.Write (id, es))
  in
  if ok then c.completed <- c.completed + 1

(* Run every client until [until_ns] (or for [txns] transactions each),
   one thread per client.  A watchdog kills the server when an op
   outlives the deadline, so a stalled server fails the run (its
   blocked reads see the connection drop) instead of hanging it.  With
   [rss], the watchdog also samples the server's RSS every 200 ms. *)
let phase srv cs ?txns ?rss ~until_ns ~record ~trace () =
  let timed_out = ref false in
  let finished = ref false in
  let watchdog =
    Thread.create
      (fun () ->
        let tick = ref 0 in
        while not !finished do
          Thread.delay 0.05;
          incr tick;
          let now = Clock.now_ns () in
          (match rss with
          | Some samples when !tick mod 4 = 0 -> (
              try samples := rss_bytes srv :: !samples with Sys_error _ -> ())
          | _ -> ());
          if (not !timed_out)
             && List.exists (fun c -> c.op_started > 0 && now - c.op_started > deadline_ns) cs
          then begin
            timed_out := true;
            try Unix.kill srv.pid Sys.sigkill with Unix.Unix_error _ -> ()
          end
        done)
      ()
  in
  let threads =
    List.map
      (fun c ->
        Thread.create
          (fun () ->
            let n = ref 0 in
            while
              c.alive && Clock.now_ns () < until_ns
              && match txns with Some t -> !n < t | None -> true
            do
              run_txn c ~record ~trace;
              incr n
            done)
          ())
      cs
  in
  List.iter Thread.join threads;
  finished := true;
  Thread.join watchdog;
  if !timed_out then [ Printf.sprintf "an op got no reply within %d ms" (deadline_ns / 1_000_000) ]
  else []

(* Exact p50 and p99 of the served ops, taken over consecutive slices
   of [slice_ops] of them in send order, enough for 10 samples beyond
   p99, and reported for the fastest slice: the program's own latency
   rather than the host's.  An op that the host holds up for a flush
   period misses its tick and waits for the next; this happens to
   0.2-4% of the ops of a slice, in bursts, right where p99 reads, so
   even the 10th percentile over slices flips between one and two
   flush periods from run to run.  A server that is slower for every
   op moves the fastest slice too. *)
let slice_ops = 1000

let latency_metrics durs =
  let n = Array.length durs in
  let k = max 1 (n / slice_ops) in
  let slices = List.init k (fun i -> Array.sub durs (i * n / k) (((i + 1) * n / k) - (i * n / k))) in
  let over_slices p =
    List.fold_left Float.min infinity
      (List.map
         (fun a -> float_of_int (Samples.percentile ~min_beyond:10 (Samples.sorted a) p).Samples.value /. 1e3)
         slices)
  in
  let note = Printf.sprintf "fastest of %d slices of %d samples" k n in
  [ Report.metric "step_p50_us" (over_slices 50.) ~note; Report.metric "step_p99_us" (over_slices 99.) ~note ]

(* Server memory growth over the measured phase, from RSS samples taken
   at a steady cadence: the Theil-Sen trend (the median of the slopes
   between every two samples) times the phase's length.  Single samples
   swing and step with the garbage awaiting collection at that instant;
   the median slope does not follow those steps. *)
let rss_growth samples =
  let a = Array.of_list (List.rev samples) in
  let n = Array.length a in
  let slopes = ref [] in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      slopes := (float_of_int (a.(j) - a.(i)) /. float_of_int (j - i)) :: !slopes
    done
  done;
  if n < 2 then 0. else Samples.median !slopes *. float_of_int (n - 1) /. 1e6

let sum cs f = List.fold_left (fun acc c -> acc + f c) 0 cs
let close_all cs = List.iter (fun c -> Client.close c.conn) cs

(* Start a server, connect the clients and warm up: the set-up a user
   of the served system pays before the first measured op. *)
let setup ~dct ~workdir ~seed ~tag =
  let t0 = Clock.now_ns () in
  let srv = spawn ~dct ~workdir ~tag () in
  let cs = List.init clients (connect srv ~seed) in
  let problems =
    phase srv cs ~txns:warmup_txns ~until_ns:max_int ~record:false ~trace:false ()
  in
  (srv, cs, Clock.now_ns () - t0, problems)

(* Stop the server and hold it to its account: no protocol errors, a
   clean exit, and as many commits as the clients saw complete. *)
let finish srv cs ~commits =
  close_all cs;
  let output, status = stop srv in
  let failures = List.concat_map (fun c -> List.rev c.failures) cs in
  let checks =
    (match status with Unix.WEXITED 0 -> [] | _ -> [ "dct serve did not exit cleanly" ])
    @ (match report_int output `Proto_errors with
      | Some 0 -> []
      | Some n -> [ Printf.sprintf "server counted %d protocol errors" n ]
      | None -> [ "server report lacks the protocol error count" ])
    @
    match report_int output (`Json "committed") with
    | Some n when n = commits -> []
    | Some n -> [ Printf.sprintf "server committed %d, clients saw %d complete" n commits ]
    | None -> [ "server report lacks committed" ]
  in
  (output, failures @ checks)

(* Samples of all clients, merged in send order. *)
let merged cs =
  let all =
    List.concat_map (fun c -> List.init c.durs.len (fun i -> (c.starts.a.(i), c.durs.a.(i)))) cs
  in
  Array.of_list (List.map snd (List.sort compare all))

let reset cs =
  List.iter
    (fun c ->
      c.ops <- 0;
      c.completed <- 0;
      c.starts.len <- 0;
      c.durs.len <- 0;
      c.codec <- Common.timer ())
    cs

let timed ~dct ~workdir ~seed ~seconds =
  (* set up several times, holding each earlier server to its account,
     and keep the last server for the run *)
  let rec setups_from k acc earlier =
    let srv, cs, ns, problems = setup ~dct ~workdir ~seed ~tag:k in
    if k = setups || problems <> [] then (srv, cs, ns :: acc, earlier @ problems)
    else begin
      let _, checks = finish srv cs ~commits:(sum cs (fun c -> c.completed)) in
      setups_from (k + 1) (ns :: acc) (earlier @ checks)
    end
  in
  let srv, cs, setup_ns, setup_problems = setups_from 1 [] [] in
  let warm_completed = sum cs (fun c -> c.completed) in
  reset cs;
  let rss = ref [ rss_bytes srv ] in
  let t0 = Clock.now_ns () in
  let phase_problems =
    if setup_problems <> [] then []
    else
      phase srv cs ~rss ~until_ns:(t0 + (seconds * 1_000_000_000)) ~record:true ~trace:false ()
  in
  let run_s = float_of_int (Clock.now_ns () - t0) /. 1e9 in
  let ops = sum cs (fun c -> c.ops) and completed = sum cs (fun c -> c.completed) in
  (* the server's commit count covers the warm-up too *)
  let _, checks = finish srv cs ~commits:(warm_completed + completed) in
  let problems = setup_problems @ phase_problems @ checks in
  let durs = merged cs in
  let m = Report.metric in
  let metrics =
    if Array.length durs < 10 then []
    else
      [
        m "steps_per_s" (float_of_int ops /. run_s) ~note:(Printf.sprintf "%d ops, %d clients" ops clients);
        m "goodput_txn_per_s" (float_of_int completed /. run_s)
          ~note:(Printf.sprintf "%d commits" completed);
      ]
      @ latency_metrics durs
      @ [
          m "step_growth" (Samples.step_growth durs);
          m "retained_mb" (rss_growth !rss)
            ~note:(Printf.sprintf "server RSS, %d samples" (List.length !rss));
          m "setup_s" (Samples.median (List.map (fun ns -> float_of_int ns /. 1e9) setup_ns))
            ~note:(Printf.sprintf "median of %d" (List.length setup_ns));
        ]
  in
  { Report.correct = problems = [] && metrics <> []; attempted = ops;
    failed = List.length problems; metrics; ledger = []; problems }

(* Per-step cost of the engine alone, in-process, on the same mix with
   the served configuration: what a served op would cost if the
   network, the flush timer and the threads were free. *)
let engine_share ~seed =
  let module Engine = Dct_engine.Engine in
  let steps = Mix.schedule Mix.Ycsb_b ~n_txns:4000 ~keys ~mpl:clients ~seed in
  let eng =
    Engine.create
      (Engine.config ~policy:Dct_deletion.Policy.Greedy_c1 ~oracle:Dct_graph.Cycle_oracle.Topo
         ~shards ~batch ())
  in
  let submit = Common.timer () in
  List.iter (fun s -> Common.time_call submit (fun () -> Engine.submit eng s)) steps;
  Common.time_call submit (fun () -> Engine.tick eng);
  float_of_int submit.ns /. float_of_int (List.length steps)

let traced ~dct ~workdir ~seed ~seconds =
  let srv, cs, _, setup_problems = setup ~dct ~workdir ~seed ~tag:0 in
  let warm_completed = sum cs (fun c -> c.completed) in
  let half = seconds * 500_000_000 in
  let run ~trace =
    reset cs;
    let t0 = Clock.now_ns () in
    let p = phase srv cs ~until_ns:(t0 + half) ~record:true ~trace () in
    let ops = sum cs (fun c -> c.ops) in
    let rate = float_of_int ops /. (float_of_int (Clock.now_ns () - t0) /. 1e9) in
    (p, rate, ops, sum cs (fun c -> c.completed), merged cs)
  in
  let p1, untraced_rate, ops, completed1, durs =
    if setup_problems <> [] then ([], 1., 0, 0, [||]) else run ~trace:false
  in
  let p2, traced_rate, traced_ops, completed2, _ =
    if setup_problems <> [] || p1 <> [] then ([], 1., 0, 0, [||]) else run ~trace:true
  in
  let codec = List.fold_left (fun acc c -> acc + c.codec.Common.ns) 0 cs in
  let output, checks = finish srv cs ~commits:(warm_completed + completed1 + completed2) in
  let problems = setup_problems @ p1 @ p2 @ checks in
  if Array.length durs < 10 || traced_ops = 0 then
    { Report.correct = false; attempted = max 1 ops; failed = max 1 (List.length problems);
      metrics = []; ledger = []; problems }
  else begin
    let full = Option.value ~default:0 (report_int output (`Json "full_batches")) in
    let ticks = Option.value ~default:0 (report_int output (`Json "ticks")) in
    let codec_ns = float_of_int codec /. float_of_int traced_ops in
    let engine_ns = engine_share ~seed in
    let p50_ns = float_of_int (Samples.percentile (Samples.sorted durs) 50.).Samples.value in
    let total = Array.fold_left ( + ) 0 durs in
    let mean_ns = float_of_int total /. float_of_int ops in
    let m = Report.metric in
    let metrics =
      [
        m "engine.submit_ns" engine_ns ~note:"in-process engine, served configuration";
        m "engine.admission.full_batch_frac"
          (if full + ticks = 0 then 0. else float_of_int full /. float_of_int (full + ticks))
          ~note:(Printf.sprintf "%d full batches, %d timer flushes" full ticks);
        m "net.wire.codec_ns" codec_ns ~note:"request + response, encode + decode";
        m "net.engine_share_us" (engine_ns /. 1e3);
        m "net.server.unattributed_us" ((p50_ns -. engine_ns -. codec_ns) /. 1e3)
          ~note:"step_p50 - engine share - codec share";
        m "ledger.traced_step_ns" mean_ns ~note:"mean op round trip";
        m "unattributed_ns" (mean_ns -. engine_ns -. codec_ns);
        m "telemetry.trace_overhead" (traced_rate /. untraced_rate);
      ]
    in
    let n = float_of_int ops in
    let ledger =
      [
        ("engine (in-process share)", engine_ns *. n);
        ("net.wire (codec share)", codec_ns *. n);
        ("unattributed", float_of_int total -. ((engine_ns +. codec_ns) *. n));
      ]
    in
    { Report.correct = problems = []; attempted = ops + traced_ops;
      failed = List.length problems; metrics; ledger; problems }
  end

let need dct = if not (Sys.file_exists dct) then failwith ("no dct binary at " ^ dct)

let run ~seed ~seconds ~trace ~dct ~workdir =
  need dct;
  if trace then traced ~dct ~workdir ~seed ~seconds else timed ~dct ~workdir ~seed ~seconds

(* The deadline has teeth: a server with no flush timer never fills a
   lone client's batch of [batch], so the first op must miss its
   deadline and fail instead of hanging. *)
let deadline_self_test ~dct ~workdir =
  need dct;
  let srv = spawn ~flush_ms:0 ~dct ~workdir ~tag:0 () in
  let cs = [ connect srv ~seed:1 0 ] in
  let problems = phase srv cs ~txns:1 ~until_ns:max_int ~record:false ~trace:false () in
  close_all cs;
  ignore (stop srv);
  if problems = [] then [ "a server that never flushes did not miss the op deadline" ] else []
