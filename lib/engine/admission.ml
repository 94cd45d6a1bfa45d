type t = {
  batch : int;
  mutex : Mutex.t;
  queue : Dct_txn.Step.t Queue.t;
  mutable submitted : int;
  mutable full_batches : int;
  mutable ticks : int;
}

let create ~batch =
  if batch <= 0 then
    invalid_arg (Printf.sprintf "Admission.create: batch must be positive, got %d" batch);
  {
    batch;
    mutex = Mutex.create ();
    queue = Queue.create ();
    submitted = 0;
    full_batches = 0;
    ticks = 0;
  }

let batch_size t = t.batch

(* Callers hold the mutex. *)
let drain_locked t =
  let out = ref [] in
  while not (Queue.is_empty t.queue) do
    out := Queue.pop t.queue :: !out
  done;
  List.rev !out

let submit t step =
  Mutex.protect t.mutex (fun () ->
      t.submitted <- t.submitted + 1;
      Queue.push step t.queue;
      if Queue.length t.queue >= t.batch then begin
        t.full_batches <- t.full_batches + 1;
        Some (drain_locked t)
      end
      else None)

let tick t =
  Mutex.protect t.mutex (fun () ->
      if Queue.is_empty t.queue then []
      else begin
        t.ticks <- t.ticks + 1;
        drain_locked t
      end)

let pending t = Mutex.protect t.mutex (fun () -> Queue.length t.queue)
let submitted t = Mutex.protect t.mutex (fun () -> t.submitted)
let full_batches t = Mutex.protect t.mutex (fun () -> t.full_batches)
let ticks t = Mutex.protect t.mutex (fun () -> t.ticks)
