module Step = Dct_txn.Step
module Engine = Dct_engine.Engine

type client = {
  c_io : Wire.Io.t;
  mutable c_dialect : Wire.dialect;
  c_wlock : Mutex.t;
  mutable c_alive : bool;
  c_txns : (int, unit) Hashtbl.t;  (** begun, not yet completed/aborted *)
}

type t = {
  listen_fd : Unix.file_descr;
  addr : Addr.t;
  engine : Engine.t;
  lock : Mutex.t;  (** serializes every engine access *)
  waiters : client Queue.t;
      (** issuing client of each submitted-but-undecided step, in
          submission order; pushed and popped under [lock] (outcomes
          fire during submit/tick, which hold it) *)
  flush_ms : int;
  mutable running : bool;
  mutable accept_thread : Thread.t option;
  mutable ticker_thread : Thread.t option;
  threads_lock : Mutex.t;
  mutable client_threads : Thread.t list;
  mutable live_clients : client list;
  mutable connections : int;
  mutable proto_errors : int;
}

let addr t = t.addr
let engine t = t.engine
let connections t = t.connections
let proto_errors t = t.proto_errors

(* Outcomes can be routed by whichever handler thread's submit filled
   the batch, concurrently with the target's own handler writing an
   abort/stats reply — hence the per-client write lock.  A client that
   vanished mid-run just has its responses dropped. *)
let send_to c resp =
  if c.c_alive then begin
    Mutex.lock c.c_wlock;
    (try Wire.Io.write c.c_io (Wire.encode_response c.c_dialect resp)
     with _ -> c.c_alive <- false);
    Mutex.unlock c.c_wlock
  end

let create ?(flush_ms = 20) ~engine addr =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  let listen_fd, bound = Addr.listen addr in
  let waiters = Queue.create () in
  Engine.set_on_step engine
    (Some
       (fun idx _step outcome ->
         match Queue.take_opt waiters with
         | Some c -> send_to c (Wire.Outcome { step = idx; outcome })
         | None -> ()));
  {
    listen_fd;
    addr = bound;
    engine;
    lock = Mutex.create ();
    waiters;
    flush_ms;
    running = false;
    accept_thread = None;
    ticker_thread = None;
    threads_lock = Mutex.create ();
    client_threads = [];
    live_clients = [];
    connections = 0;
    proto_errors = 0;
  }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

(* Coordinator-side counters only: shard state is off limits mid-run
   under the Domains executor. *)
let stats e =
  [
    ("steps", Engine.steps_processed e);
    ("pending", Engine.pending e);
    ("shards", Engine.shard_count e);
    ( "resident",
      Dct_deletion.Graph_state.txn_count
        (Dct_engine.Coordinator.graph_state (Engine.coordinator e)) );
  ]

let step_of_request = function
  | Wire.Begin txn -> Some (Step.Begin txn)
  | Wire.Read (txn, e) -> Some (Step.Read (txn, e))
  | Wire.Write (txn, es) -> Some (Step.Write (txn, es))
  | Wire.Complete txn -> Some (Step.Write (txn, []))
  | Wire.Abort _ | Wire.Stats -> None

let handle_request t c req =
  match step_of_request req with
  | Some step ->
      (match req with
      | Wire.Begin txn -> Hashtbl.replace c.c_txns txn ()
      | Wire.Write (txn, _) | Wire.Complete txn -> Hashtbl.remove c.c_txns txn
      | _ -> ());
      locked t (fun () ->
          (* push before submit: a full batch decides this step — and
             routes its outcome — before submit returns *)
          Queue.push c t.waiters;
          Engine.submit t.engine step)
  | None -> (
      match req with
      | Wire.Abort txn ->
          (* flush first so the client's earlier outcomes precede the
             reply, keeping its response stream in issue order *)
          let b =
            locked t (fun () ->
                Engine.tick t.engine;
                Engine.abort t.engine txn)
          in
          Hashtbl.remove c.c_txns txn;
          send_to c (Wire.Abort_reply b)
      | Wire.Stats ->
          let stats =
            locked t (fun () ->
                Engine.tick t.engine;
                stats t.engine)
          in
          send_to c
            (Wire.Stats_reply
               (stats
               @ [
                   ("connections", t.connections);
                   ("protocol_errors", t.proto_errors);
                 ]))
      | _ -> assert false)

(* A dying client's begun-but-incomplete transactions are aborted so
   they cannot pin deletability forever (the engine treats any later
   queued steps of theirs as [Ignored]). *)
let cleanup_client t c =
  c.c_alive <- false;
  let orphans = Hashtbl.fold (fun txn () acc -> txn :: acc) c.c_txns [] in
  if orphans <> [] then
    locked t (fun () ->
        List.iter (fun txn -> ignore (Engine.abort t.engine txn)) orphans);
  Hashtbl.reset c.c_txns;
  (try Unix.close (Wire.Io.fd c.c_io) with Unix.Unix_error _ -> ());
  Mutex.lock t.threads_lock;
  t.live_clients <- List.filter (fun c' -> c' != c) t.live_clients;
  Mutex.unlock t.threads_lock

let client_loop t c =
  match Wire.Io.sniff_dialect c.c_io with
  | Error _ -> cleanup_client t c
  | Ok dialect ->
      c.c_dialect <- dialect;
      let rec loop () =
        match Wire.Io.read_request c.c_io dialect with
        | Ok req ->
            handle_request t c req;
            loop ()
        | Error Wire.Closed -> ()
        | Error e ->
            (* protocol violation: answer with the typed error, then
               drop this connection — others keep being served *)
            t.proto_errors <- t.proto_errors + 1;
            send_to c (Wire.Error_reply (Wire.error_to_string e))
      in
      (try loop () with _ -> t.proto_errors <- t.proto_errors + 1);
      cleanup_client t c

let accept_loop t =
  while t.running do
    match Unix.accept t.listen_fd with
    | fd, _ ->
        let c =
          {
            c_io = Wire.Io.of_fd fd;
            c_dialect = Wire.Binary;
            c_wlock = Mutex.create ();
            c_alive = true;
            c_txns = Hashtbl.create 8;
          }
        in
        Mutex.lock t.threads_lock;
        t.connections <- t.connections + 1;
        t.live_clients <- c :: t.live_clients;
        t.client_threads <-
          Thread.create (fun () -> client_loop t c) () :: t.client_threads;
        Mutex.unlock t.threads_lock
    | exception Unix.Unix_error ((EBADF | EINVAL | ECONNABORTED), _, _) -> ()
    | exception Unix.Unix_error (EINTR, _, _) -> ()
  done

let ticker_loop t =
  let delay = float_of_int t.flush_ms /. 1000. in
  while t.running do
    Thread.delay delay;
    if t.running then
      locked t (fun () ->
          if Engine.pending t.engine > 0 then Engine.tick t.engine)
  done

let start t =
  if t.running then invalid_arg "Server.start: already running";
  t.running <- true;
  t.accept_thread <- Some (Thread.create accept_loop t);
  if t.flush_ms > 0 then t.ticker_thread <- Some (Thread.create ticker_loop t)

let stop t =
  if t.running then begin
    t.running <- false;
    (* wake the accept loop *)
    (try Unix.shutdown t.listen_fd Unix.SHUTDOWN_ALL
     with Unix.Unix_error _ -> ());
    (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
    Option.iter Thread.join t.accept_thread;
    Option.iter Thread.join t.ticker_thread;
    t.accept_thread <- None;
    t.ticker_thread <- None;
    (* wake handler threads blocked in read, then wait for them *)
    Mutex.lock t.threads_lock;
    let live = t.live_clients and threads = t.client_threads in
    t.client_threads <- [];
    Mutex.unlock t.threads_lock;
    List.iter
      (fun c ->
        try Unix.shutdown (Wire.Io.fd c.c_io) Unix.SHUTDOWN_ALL
        with Unix.Unix_error _ -> ())
      live;
    List.iter Thread.join threads;
    Addr.cleanup t.addr
  end

let finish t ~wall_seconds =
  locked t (fun () -> Engine.finish t.engine ~wall_seconds)
