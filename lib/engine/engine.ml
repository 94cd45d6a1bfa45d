module Intset = Dct_graph.Intset
module Gs = Dct_deletion.Graph_state
module Policy = Dct_deletion.Policy
module Rules = Dct_deletion.Rules
module Step = Dct_txn.Step
module Store = Dct_kv.Store
module Wal = Dct_kv.Wal
module Si = Dct_sched.Scheduler_intf
module Cs = Dct_sched.Conflict_scheduler
module Tracer = Dct_telemetry.Tracer
module Event = Dct_telemetry.Event
module Metrics = Dct_telemetry.Metrics
module Sink = Dct_telemetry.Sink

exception Shard_failure of int * string

let available_domains () = Domain.recommended_domain_count ()

type executor = Inline | Domains | Replay of int

let executor_name = function
  | Inline -> "inline"
  | Domains -> "domains"
  | Replay seed -> Printf.sprintf "replay:%d" seed

type config = {
  shards : int;
  batch : int;
  policy : Policy.t;
  partitioner : Partitioner.t;
  oracle : Dct_graph.Cycle_oracle.backend option;
  tracer : Tracer.t;
  gc_index : Dct_deletion.Deletability_index.mode option;
  executor : executor;
}

let config ?(policy = Policy.Greedy_c1) ?partitioner ?oracle
    ?(tracer = Tracer.disabled) ?gc_index ?(executor = Inline) ~shards ~batch
    () =
  if shards <= 0 then invalid_arg "Dct_engine.config: shards must be positive";
  if batch <= 0 then invalid_arg "Dct_engine.config: batch must be positive";
  let partitioner =
    match partitioner with
    | Some p ->
        if Partitioner.shards p <> shards then
          invalid_arg "Dct_engine.config: partitioner shard count mismatch";
        p
    | None -> Partitioner.hash ~shards
  in
  { shards; batch; policy; partitioner; oracle; tracer; gc_index; executor }

(* ------------------------------------------------------------------ *)
(* The coordinator -> shard protocol                                   *)

type cmd =
  | Read of { txn : int; entity : int }
  | Write of { txn : int; entities : int list; value : int }
  | Complete of { txn : int }
  | Abort of { txn : int }
  | Delete of { txns : Intset.t }  (* broadcast GC batch *)
  | Collect  (* the shard-local deletion policy round *)
  | Barrier of { id : int }
  | Crash  (* test-only: the applier raises on receipt (Fault.crash_cmd) *)

exception Crashed

(* A shard's answer to a barrier: the conflict arcs it recorded since
   the previous barrier, in application order, and its resident count
   after the batch's local GC — an O(1) read; full [Shard.stats] are
   only taken for a report. *)
type ack = {
  shard_id : int;
  barrier : int;
  arcs : (int * int) list;
  resident : int;
}

type reply = Ack of ack | Failed of { shard_id : int; error : string }

module Fault = struct
  type t = {
    mutable drop_broadcast : (int * int) option;
    mutable reorder_batch : (int * int) option;
    mutable crash_cmd : (int * int) option;
    mutable broadcasts : int;
    mutable dropped : int;
    mutable reordered : int;
    mutable crashes : int;
  }

  let create () =
    {
      drop_broadcast = None;
      reorder_batch = None;
      crash_cmd = None;
      broadcasts = 0;
      dropped = 0;
      reordered = 0;
      crashes = 0;
    }
end

(* ------------------------------------------------------------------ *)
(* The shard worker: one per shard, under every executor               *)

type worker = {
  sh : Shard.t;
  mutable w_arcs : (int * int) list; (* reversed; since the last barrier *)
  wm : Metrics.t option; (* worker-local; merged into the run's at finish *)
}

let worker_incr w name =
  match w.wm with Some m -> Metrics.incr m name | None -> ()

let apply_cmd w ~emit = function
  | Read { txn; entity } ->
      Shard.apply_read w.sh ~txn ~entity;
      w.w_arcs <- List.rev_append (Shard.last_arcs w.sh) w.w_arcs;
      worker_incr w "par.cmds"
  | Write { txn; entities; value } ->
      Shard.apply_write w.sh ~txn ~entities ~value;
      w.w_arcs <- List.rev_append (Shard.last_arcs w.sh) w.w_arcs;
      worker_incr w "par.cmds"
  | Complete { txn } ->
      Shard.complete w.sh txn;
      worker_incr w "par.cmds"
  | Abort { txn } ->
      Shard.abort w.sh txn;
      worker_incr w "par.cmds"
  | Delete { txns } ->
      ignore (Shard.apply_global_deletions w.sh txns);
      worker_incr w "par.cmds"
  | Collect ->
      ignore (Shard.collect_garbage w.sh);
      worker_incr w "par.gc_runs"
  | Crash -> raise Crashed
  | Barrier { id } ->
      let resident = Gs.txn_count (Shard.graph_state w.sh) in
      (match w.wm with
      | Some m -> Metrics.gauge m "par.shard.resident" resident
      | None -> ());
      emit
        (Ack
           { shard_id = Shard.id w.sh; barrier = id; arcs = List.rev w.w_arcs; resident });
      w.w_arcs <- []

(* Apply [cmds] in order, turning an applier exception into a [Failed]
   reply so the coordinator sees [Shard_failure] under every executor. *)
let apply_all w ~emit cmds =
  try List.iter (apply_cmd w ~emit) cmds
  with exn -> emit (Failed { shard_id = Shard.id w.sh; error = Printexc.to_string exn })

(* ------------------------------------------------------------------ *)
(* Executors                                                           *)

type exec = {
  send : int -> cmd list -> unit;
  await : int -> ack list; (* exactly one ack per shard, any order *)
  shutdown : unit -> unit; (* after this, shard state is safely readable *)
}

(* Bucket acks by barrier id; raise on a worker failure. *)
let make_awaiter ~shards ~(pump : unit -> reply list) =
  let buffered : (int, ack list) Hashtbl.t = Hashtbl.create 8 in
  let bucket = function
    | Failed { shard_id; error } -> raise (Shard_failure (shard_id, error))
    | Ack a ->
        let prev = Option.value ~default:[] (Hashtbl.find_opt buffered a.barrier) in
        Hashtbl.replace buffered a.barrier (a :: prev)
  in
  let rec await id =
    match Hashtbl.find_opt buffered id with
    | Some acks when List.length acks = shards ->
        Hashtbl.remove buffered id;
        acks
    | _ ->
        (match pump () with
        | [] -> raise (Shard_failure (-1, "ack channel closed early"))
        | replies -> List.iter bucket replies);
        await id
  in
  await

let drain_queue q =
  let out = List.of_seq (Queue.to_seq q) in
  Queue.clear q;
  out

(* A reply nobody awaited — an applier that died after its last awaited
   barrier — must still fail the run. *)
let raise_failures replies =
  List.iter
    (function
      | Failed { shard_id; error } -> raise (Shard_failure (shard_id, error))
      | Ack _ -> ())
    replies

(* Inline: every command is applied on the calling domain when it is
   sent, and the coordinator sends Inline commands one at a time, as it
   emits them. *)
let inline_executor (workers : worker array) =
  let replies : reply Queue.t = Queue.create () in
  let emit r = Queue.push r replies in
  {
    send = (fun i cmds -> apply_all workers.(i) ~emit cmds);
    await =
      make_awaiter ~shards:(Array.length workers) ~pump:(fun () -> drain_queue replies);
    shutdown = (fun () -> raise_failures (drain_queue replies));
  }

(* Domains: one [Domain.t] per shard, fed batch by batch through its
   mailbox; acks come back on one shared mailbox. *)
let domains_executor (workers : worker array) =
  let n = Array.length workers in
  let inboxes = Array.init n (fun _ -> Mailbox.create ()) in
  let replies : reply Mailbox.t = Mailbox.create () in
  let domains =
    Array.mapi
      (fun i w ->
        Domain.spawn (fun () ->
            let emit r = Mailbox.push replies r in
            let rec loop () =
              match Mailbox.drain_wait inboxes.(i) with
              | [] -> ()
              | cmds ->
                  apply_all w ~emit cmds;
                  loop ()
            in
            loop ()))
      workers
  in
  let shutdown () =
    Array.iter Mailbox.close inboxes;
    Array.iter Domain.join domains;
    let late = Mailbox.drain replies in
    Mailbox.close replies;
    raise_failures late
  in
  {
    send = (fun i cmds -> Mailbox.push_batch inboxes.(i) cmds);
    await = make_awaiter ~shards:n ~pump:(fun () -> Mailbox.drain_wait replies);
    shutdown;
  }

(* Replay: the Domains protocol on the calling domain, with a seeded
   PRNG choosing which shard advances between coordinator actions.
   Shard state is a pure function of the shard's command stream and the
   coordinator reads acks only at barriers, so every seed must produce
   byte-identical results — which the test suite asserts, making runs
   replayable and checkable without multi-core hardware. *)
let replay_executor ~seed (workers : worker array) =
  let n = Array.length workers in
  let rng = Random.State.make [| 0x9e3779b9; seed |] in
  let queues = Array.init n (fun _ -> Queue.create ()) in
  let replies : reply Queue.t = Queue.create () in
  let emit r = Queue.push r replies in
  let advance i =
    if Queue.is_empty queues.(i) then false
    else begin
      (* a failed applier drops what it has queued; the coordinator
         raises [Shard_failure] at its next await *)
      (try apply_cmd workers.(i) ~emit (Queue.pop queues.(i))
       with exn ->
         Queue.clear queues.(i);
         emit (Failed { shard_id = i; error = Printexc.to_string exn }));
      true
    end
  in
  (* Scheduling noise: after each send, advance a few random shards a
     few random commands — the simulated preemption. *)
  let jitter () =
    for _ = 1 to Random.State.int rng 4 do
      let i = Random.State.int rng n in
      for _ = 1 to 1 + Random.State.int rng 3 do
        ignore (advance i)
      done
    done
  in
  let send i cmds =
    List.iter (fun c -> Queue.push c queues.(i)) cmds;
    jitter ()
  in
  (* Drain ready replies; if none, run randomly chosen shards with work
     until one appears. *)
  let rec pump () =
    match drain_queue replies with
    | [] -> (
        match List.filter (fun i -> not (Queue.is_empty queues.(i))) (List.init n Fun.id) with
        | [] -> [] (* nothing queued anywhere: protocol bug, surfaced by the awaiter *)
        | movable ->
            ignore (advance (List.nth movable (Random.State.int rng (List.length movable))));
            pump ())
    | rs -> rs
  in
  let shutdown () =
    Array.iteri (fun i _ -> while advance i do () done) queues;
    raise_failures (drain_queue replies)
  in
  { send; await = make_awaiter ~shards:n ~pump; shutdown }

(* ------------------------------------------------------------------ *)
(* The coordinator                                                     *)

type t = {
  cfg : config;
  coordinator : Coordinator.t;
  shards : Shard.t array;
  workers : worker array;
  exec : exec;
  fault : Fault.t option;
  admission : Admission.t;
  (* txn -> shards it has ever been hosted on; entries die with the
     transaction (abort or global deletion), so the table's size is
     bounded by the coordinator's residency. *)
  hosting : (int, Intset.t) Hashtbl.t;
  buffers : cmd list array; (* Domains/Replay: per shard, reversed *)
  sends : int array; (* batches flushed per shard, for the fault hooks *)
  barrier_steps : int Queue.t; (* step count at each unreaped barrier *)
  shard_gauges : string array; (* per shard: its resident-count gauge *)
  mutable barrier_id : int;
  mutable reaped : int;
  mutable steps : int;
  mutable accepted : int;
  mutable rejected : int;
  mutable ignored : int;
  mutable committed : int;
  mutable aborted : int;
  mutable cross_shard_arcs : int;
  mutable local_arcs : int;
  mutable distributed_txns : int;
  mutable on_step : (int -> Step.t -> Si.outcome -> unit) option;
  mutable on_barrier : (step:int -> shard:int -> resident:int -> unit) option;
  mutable on_deletion : (int -> Intset.t -> unit) option;
}

let create ?fault cfg =
  let tr = cfg.tracer in
  let metrics_on = Tracer.metrics tr <> None in
  let shards =
    Array.init cfg.shards (fun id ->
        Shard.create ~id ~policy:cfg.policy ?gc_index:cfg.gc_index ())
  in
  let workers =
    Array.map
      (fun sh -> { sh; w_arcs = []; wm = (if metrics_on then Some (Metrics.create ()) else None) })
      shards
  in
  {
    cfg;
    coordinator =
      Coordinator.create ~policy:cfg.policy ?oracle:cfg.oracle ~tracer:tr
        ?gc_index:cfg.gc_index ();
    shards;
    workers;
    exec =
      (match cfg.executor with
      | Inline -> inline_executor workers
      | Domains -> domains_executor workers
      | Replay seed -> replay_executor ~seed workers);
    fault;
    admission = Admission.create ~batch:cfg.batch;
    hosting = Hashtbl.create 64;
    buffers = Array.make cfg.shards [];
    sends = Array.make cfg.shards 0;
    barrier_steps = Queue.create ();
    shard_gauges = Array.init cfg.shards (Printf.sprintf "engine.shard%d.resident_txns");
    barrier_id = 0;
    reaped = 0;
    steps = 0;
    accepted = 0;
    rejected = 0;
    ignored = 0;
    committed = 0;
    aborted = 0;
    cross_shard_arcs = 0;
    local_arcs = 0;
    distributed_txns = 0;
    on_step = None;
    on_barrier = None;
    on_deletion = None;
  }

let steps_processed t = t.steps
let shard_count t = Array.length t.shards
let shard t i = t.shards.(i)
let coordinator t = t.coordinator
let pending t = Admission.pending t.admission
let set_on_step t f = t.on_step <- f

(* Inline applies a command as it is emitted; the other executors get
   the shard's commands as one batch at the next barrier. *)
let emit t i c =
  match t.cfg.executor with
  | Inline -> t.exec.send i [ c ]
  | Domains | Replay _ -> t.buffers.(i) <- c :: t.buffers.(i)

let hosting_of t txn =
  try Hashtbl.find t.hosting txn with Not_found -> Intset.empty

let note_hosting t txn shard_id =
  let prev = hosting_of t txn in
  if not (Intset.mem shard_id prev) then begin
    let now = Intset.add shard_id prev in
    Hashtbl.replace t.hosting txn now;
    if Intset.cardinal now = 2 then t.distributed_txns <- t.distributed_txns + 1
  end

(* An arc is cross-shard when one of its endpoints is hosted on more
   than one shard: the conflict it records is then only one slice of
   that transaction's footprint, and no single shard graph carries the
   transaction's full in/out neighbourhood — the reason decisions
   belong to the coordinator.  Arcs are classified when their barrier
   ack is reaped, against the hosting table as of then. *)
let classify_arcs t arcs =
  List.iter
    (fun (src, dst) ->
      let spread = Intset.union (hosting_of t src) (hosting_of t dst) in
      if Intset.cardinal spread > 1 then t.cross_shard_arcs <- t.cross_shard_arcs + 1
      else t.local_arcs <- t.local_arcs + 1)
    arcs

let reap t id =
  let step = Queue.pop t.barrier_steps in
  let acks = List.sort (fun a b -> compare a.shard_id b.shard_id) (t.exec.await id) in
  List.iter
    (fun a ->
      classify_arcs t a.arcs;
      Tracer.gauge t.cfg.tracer t.shard_gauges.(a.shard_id) a.resident;
      match t.on_barrier with
      | Some f -> f ~step ~shard:a.shard_id ~resident:a.resident
      | None -> ())
    acks;
  t.reaped <- id

let reap_through t id =
  while t.reaped < id do
    reap t (t.reaped + 1)
  done

(* Close the current batch on every shard with a numbered barrier.  The
   armed fault hooks act here, on the [n]-th batch flushed to a shard;
   under Inline the batch was already applied, so only a crash can be
   injected. *)
let flush t =
  t.barrier_id <- t.barrier_id + 1;
  let id = t.barrier_id in
  Queue.push t.steps t.barrier_steps;
  Array.iteri
    (fun i buffered ->
      t.buffers.(i) <- [];
      let n = t.sends.(i) in
      t.sends.(i) <- n + 1;
      let cmds =
        match t.fault with
        | Some f when buffered <> [] && f.Fault.reorder_batch = Some (n, i) ->
            f.Fault.reordered <- f.Fault.reordered + 1;
            buffered
        | _ -> List.rev buffered
      in
      let tail =
        match t.fault with
        | Some f when f.Fault.crash_cmd = Some (n, i) ->
            f.Fault.crashes <- f.Fault.crashes + 1;
            [ Crash; Barrier { id } ]
        | _ -> [ Barrier { id } ]
      in
      t.exec.send i (cmds @ tail))
    t.buffers;
  id

let broadcast_deletions t deleted =
  if not (Intset.is_empty deleted) then begin
    let ordinal =
      match t.fault with
      | Some f ->
          f.Fault.broadcasts <- f.Fault.broadcasts + 1;
          f.Fault.broadcasts - 1
      | None -> 0
    in
    for i = 0 to Array.length t.shards - 1 do
      match t.fault with
      | Some f when f.Fault.drop_broadcast = Some (ordinal, i) ->
          f.Fault.dropped <- f.Fault.dropped + 1
      | _ -> emit t i (Delete { txns = deleted })
    done;
    Intset.iter (fun txn -> Hashtbl.remove t.hosting txn) deleted;
    match t.on_deletion with Some f -> f t.steps deleted | None -> ()
  end

let owner t entity = Partitioner.shard_of t.cfg.partitioner entity

let route_accepted t ~index step =
  match step with
  | Step.Begin _ | Step.Begin_declared _ ->
      (* Hosting is lazy: a shard learns of a transaction on its first
         access to one of the shard's entities. *)
      ()
  | Step.Read (txn, entity) ->
      let s = owner t entity in
      emit t s (Read { txn; entity });
      note_hosting t txn s
  | Step.Write (txn, entities) ->
      (* Group the write set by owning shard, preserving entity order
         within each shard.  The slices are disjoint, so cross-shard
         application order is irrelevant to the data. *)
      let by_shard = Hashtbl.create 8 in
      let order = ref [] in
      List.iter
        (fun e ->
          let s = owner t e in
          match Hashtbl.find_opt by_shard s with
          | Some slice -> slice := e :: !slice
          | None ->
              Hashtbl.add by_shard s (ref [ e ]);
              order := s :: !order)
        entities;
      List.iter
        (fun s ->
          emit t s (Write { txn; entities = List.rev !(Hashtbl.find by_shard s); value = index });
          note_hosting t txn s)
        (List.rev !order);
      (* The final write commits the transaction globally; every shard
         that ever hosted it (e.g. for reads alone) must mark its copy
         committed, or local GC could never touch it. *)
      t.committed <- t.committed + 1;
      Intset.iter (fun s -> emit t s (Complete { txn })) (hosting_of t txn)
  | Step.Write_one _ | Step.Finish _ ->
      invalid_arg "Dct_engine: basic-model steps only (Begin/Read/final Write)"

let abort_everywhere t txn =
  t.aborted <- t.aborted + 1;
  Intset.iter (fun s -> emit t s (Abort { txn })) (hosting_of t txn);
  Hashtbl.remove t.hosting txn

let process_step t step =
  t.steps <- t.steps + 1;
  let index = t.steps in
  let outcome =
    Si.traced_decision t.cfg.tracer ~index step (fun () ->
        match Coordinator.decide t.coordinator step with
        | Rules.Accepted -> Si.Accepted
        | Rules.Rejected -> Si.Rejected
        | Rules.Ignored -> Si.Ignored)
  in
  (match outcome with
  | Si.Accepted ->
      t.accepted <- t.accepted + 1;
      route_accepted t ~index step;
      broadcast_deletions t (Coordinator.collect_garbage t.coordinator)
  | Si.Rejected ->
      t.rejected <- t.rejected + 1;
      abort_everywhere t (Step.txn step);
      broadcast_deletions t (Coordinator.collect_garbage t.coordinator)
  | Si.Ignored | Si.Delayed (* the coordinator never delays *) ->
      t.ignored <- t.ignored + 1);
  match t.on_step with Some f -> f index step outcome | None -> ()

(* The coordinator's residency at a batch boundary; shard gauges are
   set as each ack is reaped. *)
let checkpoint t =
  Tracer.checkpoint t.cfg.tracer (fun () ->
      let c : Coordinator.stats = Coordinator.stats t.coordinator in
      {
        Event.at_step = t.steps;
        resident_txns = c.resident_txns;
        resident_arcs = c.resident_arcs;
        active_txns = c.active_txns;
        committed = t.committed;
        aborted = t.aborted;
        deleted = c.deleted_total;
        delayed = 0;
        resident_bytes = c.resident_bytes;
      })

(* Batch boundary = the group-commit point: each shard runs its own
   deletion policy against its (smaller) local graph, then answers the
   barrier. *)
let close_batch t =
  for i = 0 to Array.length t.shards - 1 do
    emit t i Collect
  done;
  flush t

(* Barrier b is reaped only after batch b+1 has been decided, so
   shards run one batch behind the coordinator, traced or not. *)
let process_batch t batch =
  List.iter (process_step t) batch;
  let id = close_batch t in
  reap_through t (id - 1);
  checkpoint t

let submit t step =
  match Admission.submit t.admission step with
  | None -> ()
  | Some batch -> process_batch t batch

let tick t =
  match Admission.tick t.admission with
  | [] -> ()
  | batch -> process_batch t batch

(* A client-initiated abort of a still-active transaction.  The
   coordinator graph goes through [abort_txn] (the hooked mutation
   path, so an attached deletability index stays consistent) and every
   hosting shard undoes its copy — the same teardown as a rejection,
   minus the rejected step.  Steps of the transaction still sitting in
   the admission queue will be decided [Ignored] when their batch
   flushes, exactly as post-rejection steps are.  No step decision
   records this abort, so a traced run writes it as its own event,
   ahead of the GC round it triggers: replaying the trace must abort
   the transaction before that round's deletions. *)
let abort t txn =
  let gs = Coordinator.graph_state t.coordinator in
  if Gs.is_active gs txn then begin
    Tracer.event t.cfg.tracer (fun () ->
        Event.Txn_aborted { txn; reason = "client" });
    Gs.abort_txn gs txn;
    abort_everywhere t txn;
    broadcast_deletions t (Coordinator.collect_garbage t.coordinator);
    true
  end
  else false

type report = {
  name : string;
  executor : string;
  domains : int;
  barriers : int;
  shards : int;
  batch : int;
  steps : int;
  accepted : int;
  rejected : int;
  ignored : int;
  committed : int;
  aborted : int;
  submitted : int;
  full_batches : int;
  ticks : int;
  coordinator : Coordinator.stats;
  shard_stats : Shard.stats array;
  shard_resident_hwm : int;
  cross_shard_arcs : int;
  local_arcs : int;
  distributed_txns : int;
  wall_seconds : float;
}

(* Reaping every outstanding barrier first makes shard state safe to
   read under Domains: each applier has acked its last command. *)
let report (t : t) ~wall_seconds =
  reap_through t t.barrier_id;
  let shard_stats = Array.map Shard.stats t.shards in
  let shard_resident_hwm =
    Array.fold_left (fun acc (s : Shard.stats) -> max acc s.resident_hwm) 0 shard_stats
  in
  let executor = executor_name t.cfg.executor in
  {
    name =
      Printf.sprintf "engine/%s/%s/%s/s%d-b%d" executor (Policy.name t.cfg.policy)
        (Partitioner.spec t.cfg.partitioner)
        t.cfg.shards t.cfg.batch;
    executor;
    domains = (match t.cfg.executor with Domains -> t.cfg.shards | Inline | Replay _ -> 1);
    barriers = t.barrier_id;
    shards = t.cfg.shards;
    batch = t.cfg.batch;
    steps = t.steps;
    accepted = t.accepted;
    rejected = t.rejected;
    ignored = t.ignored;
    committed = t.committed;
    aborted = t.aborted;
    submitted = Admission.submitted t.admission;
    full_batches = Admission.full_batches t.admission;
    ticks = Admission.ticks t.admission;
    coordinator = Coordinator.stats t.coordinator;
    shard_stats;
    shard_resident_hwm;
    cross_shard_arcs = t.cross_shard_arcs;
    local_arcs = t.local_arcs;
    distributed_txns = t.distributed_txns;
    wall_seconds;
  }

(* End of input: flush the pending partial batch, then one last global
   GC round (broadcast included) and a local round per shard, so the
   report's residency is the steady state, not a mid-batch snapshot. *)
let finish (t : t) ~wall_seconds =
  tick t;
  broadcast_deletions t (Coordinator.collect_garbage t.coordinator);
  reap_through t (close_batch t);
  t.exec.shutdown ();
  (match Tracer.metrics t.cfg.tracer with
  | Some into -> Array.iter (fun w -> Option.iter (Metrics.merge ~into) w.wm) t.workers
  | None -> ());
  checkpoint t;
  Tracer.flush t.cfg.tracer;
  report t ~wall_seconds

let run ?on_step (t : t) steps =
  t.on_step <- on_step;
  let t0 = Dct_telemetry.Probe.now_ns () in
  List.iter (submit t) steps;
  finish t ~wall_seconds:((Dct_telemetry.Probe.now_ns () -. t0) /. 1e9)

(* ------------------------------------------------------------------ *)
(* Differential mode                                                   *)

type differential_report = {
  d_steps : int;
  d_shards : int;
  d_executor : string;
  outcome_mismatches : (int * string * string) list;
  deletion_mismatches : (int * string * string) list;
  residency_violations : (int * int * int * int) list;
  store_mismatches : (int * int * int) list;
  shard_divergences : (int * string) list;
  trace_divergence : string option;
  committed_engine : int;
  committed_single : int;
  aborted_engine : int;
  aborted_single : int;
  engine_shard_peak : int;
  single_peak : int;
}

let set_to_string s =
  "{" ^ String.concat "," (List.map string_of_int (Intset.to_sorted_list s)) ^ "}"

(* Traces must be byte-identical {e modulo wall-clock fields}: oracle
   events carry an ["ns"] timing that no scheduler controls.  Scrub it
   to a placeholder before comparing. *)
let scrub_timings line =
  let b = Buffer.create (String.length line) in
  let n = String.length line in
  let key = "\"ns\":" in
  let klen = String.length key in
  let i = ref 0 in
  while !i < n do
    if !i + klen <= n && String.sub line !i klen = key then begin
      Buffer.add_string b key;
      Buffer.add_char b '_';
      i := !i + klen;
      while
        !i < n
        && match line.[!i] with '0' .. '9' | '.' | '-' | '+' | 'e' | 'E' -> true | _ -> false
      do
        incr i
      done
    end
    else begin
      Buffer.add_char b line.[!i];
      incr i
    end
  done;
  Buffer.contents b

let first_trace_divergence a b =
  if String.equal a b then None
  else
    let la = List.map scrub_timings (String.split_on_char '\n' a)
    and lb = List.map scrub_timings (String.split_on_char '\n' b) in
    let rec go n = function
      | [], [] -> None (* differed only in scrubbed timing fields *)
      | x :: _, [] -> Some (Printf.sprintf "line %d: %S, reference ended" n x)
      | [], y :: _ -> Some (Printf.sprintf "line %d: ended, reference has %S" n y)
      | x :: xs, y :: ys ->
          if String.equal x y then go (n + 1) (xs, ys)
          else Some (Printf.sprintf "line %d: %S vs reference %S" n x y)
    in
    go 1 (la, lb)

(* Pairwise comparison of two lists of rendered items, by position. *)
let rec mismatches i a b =
  match (a, b) with
  | [], [] -> []
  | x :: a, y :: b ->
      let rest = mismatches (i + 1) a b in
      if String.equal x y then rest else (i, x, y) :: rest
  | x :: a, [] -> (i, x, "(none)") :: mismatches (i + 1) a []
  | [], y :: b -> (i, "(none)", y) :: mismatches (i + 1) [] b

(* Shard by shard: resident transactions, stores, counters and WALs of
   [eng] against the Inline [reference]. *)
let shard_divergences (eng : t) (reference : t) =
  let out = ref [] in
  Array.iteri
    (fun i sh ->
      let diverge fmt = Printf.ksprintf (fun m -> out := (i, m) :: !out) fmt in
      let rsh = reference.shards.(i) in
      let res = Gs.all_txns (Shard.graph_state sh) in
      let rres = Gs.all_txns (Shard.graph_state rsh) in
      if not (Intset.equal res rres) then
        diverge "resident txns %s vs inline %s" (set_to_string res) (set_to_string rres);
      let ent = Store.entities (Shard.store sh) in
      let rent = Store.entities (Shard.store rsh) in
      if not (Intset.equal ent rent) then
        diverge "store entities %s vs inline %s" (set_to_string ent) (set_to_string rent)
      else
        Intset.iter
          (fun entity ->
            let got = Store.peek (Shard.store sh) ~entity in
            let expected = Store.peek (Shard.store rsh) ~entity in
            if got <> expected then diverge "store[%d] = %d vs inline %d" entity got expected)
          ent;
      let s = Shard.stats sh and r = Shard.stats rsh in
      let counter name a b = if a <> b then diverge "%s %d vs inline %d" name a b in
      counter "committed" s.committed r.committed;
      counter "aborted" s.aborted r.aborted;
      counter "deleted_local" s.deleted_local r.deleted_local;
      counter "deleted_forced" s.deleted_forced r.deleted_forced;
      counter "hosted" s.hosted_total r.hosted_total;
      if Wal.records (Shard.wal sh) <> Wal.records (Shard.wal rsh) then
        diverge "wal records differ (%d vs inline %d retained)"
          (Wal.length (Shard.wal sh))
          (Wal.length (Shard.wal rsh)))
    eng.shards;
  List.rev !out

let differential ?(executor = Inline) ?fault ?oracle ?partitioner ?gc_index ~shards
    ~batch ~policy steps =
  let partitioner =
    match partitioner with Some p -> p | None -> Partitioner.hash ~shards
  in
  (* The other executors are traced and compared with a traced Inline
     run. *)
  let inline = executor = Inline in
  let traced_config executor =
    let buf = Buffer.create 4096 in
    let tracer =
      if inline then Tracer.disabled
      else Tracer.create ~sink:(Sink.locked (Sink.memory buf)) ()
    in
    (config ~policy ~partitioner ?oracle ?gc_index ~tracer ~executor ~shards ~batch (), buf)
  in
  let cfg, buf = traced_config executor in
  let eng = create ?fault cfg in
  (* The single-node SGT scheduler, driven in lock-step from the
     engine's decision callback. *)
  let single_storage = Dct_kv.Storage.create () in
  let single = Cs.create ~policy ~storage:single_storage ?gc_index () in
  let single_resident = Array.make (List.length steps + 1) 0 in
  let outcome_mismatches = ref [] and residency_violations = ref [] in
  let single_peak = ref 0 and engine_shard_peak = ref 0 in
  let check_residency ~step ~shard ~resident =
    engine_shard_peak := max !engine_shard_peak resident;
    if resident > single_resident.(step) then
      residency_violations :=
        (step, shard, resident, single_resident.(step)) :: !residency_violations
  in
  let on_step index step outcome =
    let single_outcome = Cs.step single step in
    if outcome <> single_outcome then
      outcome_mismatches :=
        (index, Si.outcome_name outcome, Si.outcome_name single_outcome)
        :: !outcome_mismatches;
    let r = (Cs.stats single).resident_txns in
    single_resident.(index) <- r;
    single_peak := max !single_peak r;
    (* Inline leaves every shard exactly where this step put it *)
    if inline then
      Array.iteri
        (fun shard sh ->
          check_residency ~step:index ~shard ~resident:(Gs.txn_count (Shard.graph_state sh)))
        eng.shards
  in
  (* elsewhere shard state is off limits mid-run: sample the acks *)
  if not inline then
    eng.on_barrier <-
      Some (fun ~step ~shard ~resident -> if step >= 1 then check_residency ~step ~shard ~resident);
  let deletions = ref [] in
  eng.on_deletion <- Some (fun step set -> deletions := (step, set) :: !deletions);
  let rep = run ~on_step eng steps in
  let render = List.map (fun (step, set) -> Printf.sprintf "step %d %s" step (set_to_string set)) in
  (* Both sides retire chains back at their initial value, so compare
     over every entity either side still holds. *)
  let single_store = Dct_kv.Storage.store single_storage in
  let store_mismatches = ref [] in
  Intset.iter
    (fun entity ->
      let expected = Store.peek single_store ~entity in
      let got = Store.peek (Shard.store eng.shards.(owner eng entity)) ~entity in
      if got <> expected then store_mismatches := (entity, got, expected) :: !store_mismatches)
    (Array.fold_left
       (fun acc sh -> Intset.union acc (Store.entities (Shard.store sh)))
       (Store.entities single_store) eng.shards);
  let shard_divergences, trace_divergence =
    if inline then ([], None)
    else begin
      let ref_cfg, ref_buf = traced_config Inline in
      let reference = create ref_cfg in
      ignore (run reference steps);
      ( shard_divergences eng reference,
        first_trace_divergence (Buffer.contents buf) (Buffer.contents ref_buf) )
    end
  in
  let final = Cs.stats single in
  {
    d_steps = rep.steps;
    d_shards = shards;
    d_executor = rep.executor;
    outcome_mismatches = List.rev !outcome_mismatches;
    deletion_mismatches = mismatches 0 (render (List.rev !deletions)) (render (Cs.deleted_log single));
    residency_violations = List.rev !residency_violations;
    store_mismatches = List.rev !store_mismatches;
    shard_divergences;
    trace_divergence;
    committed_engine = rep.committed;
    committed_single = final.committed_total;
    aborted_engine = rep.aborted;
    aborted_single = final.aborted_total;
    engine_shard_peak = !engine_shard_peak;
    single_peak = !single_peak;
  }

let differential_ok d =
  d.outcome_mismatches = []
  && d.deletion_mismatches = []
  && d.residency_violations = []
  && d.store_mismatches = []
  && d.shard_divergences = []
  && d.trace_divergence = None
  && d.committed_engine = d.committed_single
  && d.aborted_engine = d.aborted_single

let pp_differential ppf d =
  Format.fprintf ppf
    "@[<v>differential (%s): %d steps over %d shards@ \
     outcome mismatches: %d@ deletion mismatches: %d@ \
     residency violations: %d@ store mismatches: %d@ "
    d.d_executor d.d_steps d.d_shards
    (List.length d.outcome_mismatches)
    (List.length d.deletion_mismatches)
    (List.length d.residency_violations)
    (List.length d.store_mismatches);
  if d.d_executor <> executor_name Inline then
    Format.fprintf ppf "shard divergences vs inline: %d@ trace vs inline: %s@ "
      (List.length d.shard_divergences)
      (match d.trace_divergence with None -> "identical" | Some m -> m);
  Format.fprintf ppf
    "committed: engine %d / single %d@ aborted: engine %d / single %d@ \
     shard residency peak %d vs single-node peak %d@]"
    d.committed_engine d.committed_single d.aborted_engine d.aborted_single
    d.engine_shard_peak d.single_peak
