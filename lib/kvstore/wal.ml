type record =
  | Begin of { txn : int }
  | Write of { txn : int; entity : int; value : int }
  | Commit of { txn : int }
  | Abort of { txn : int }

let txn_of = function
  | Begin { txn } | Write { txn; _ } | Commit { txn } | Abort { txn } -> txn

let pp_record ppf = function
  | Begin { txn } -> Format.fprintf ppf "BEGIN T%d" txn
  | Write { txn; entity; value } ->
      Format.fprintf ppf "WRITE T%d e%d := %d" txn entity value
  | Commit { txn } -> Format.fprintf ppf "COMMIT T%d" txn
  | Abort { txn } -> Format.fprintf ppf "ABORT T%d" txn

(* Records are numbered from 1 in append order and only a prefix is
   ever dropped, so the LSNs need not be stored: the head's is one past
   the records dropped so far. *)
type t = {
  retained : record Queue.t; (* oldest first; its length is kept *)
  mutable dropped : int; (* = the low-water LSN *)
}

let create () = { retained = Queue.create (); dropped = 0 }
let length t = Queue.length t.retained
let total_appended t = t.dropped + length t

let append t r =
  Queue.push r t.retained;
  total_appended t

let truncated t = t.dropped
let low_water_mark t = t.dropped

let records t =
  List.of_seq (Seq.mapi (fun i r -> (t.dropped + i + 1, r)) (Queue.to_seq t.retained))

(* Pop from the head while the oldest record's transaction has left;
   the first one the scheduler still remembers stops the scan. *)
let truncate_to t ~resident =
  let before = t.dropped in
  while
    (not (Queue.is_empty t.retained))
    && not (resident (txn_of (Queue.peek t.retained)))
  do
    ignore (Queue.pop t.retained);
    t.dropped <- t.dropped + 1
  done;
  t.dropped - before

let replay t ~into =
  let committed = Hashtbl.create 16 in
  Queue.iter
    (function
      | Commit { txn } -> Hashtbl.replace committed txn ()
      | Begin _ | Write _ | Abort _ -> ())
    t.retained;
  Queue.iter
    (function
      | Write { txn; entity; value } when Hashtbl.mem committed txn ->
          Store.write into ~entity ~writer:txn ~value
      | Write _ | Begin _ | Commit _ | Abort _ -> ())
    t.retained
