module Step = Dct_txn.Step
module Access = Dct_txn.Access
module E = Dct_telemetry.Event

type op =
  | Begin of int
  | Read of int * int
  | Write of int * int
  | Commit of int
  | Abort of int

type lop = { index : int; line : int; op : op }

let txn = function
  | Begin t | Read (t, _) | Write (t, _) | Commit t | Abort t -> t

let op_to_string = function
  | Begin t -> Printf.sprintf "b T%d" t
  | Read (t, x) -> Printf.sprintf "r T%d e%d" t x
  | Write (t, x) -> Printf.sprintf "w T%d e%d" t x
  | Commit t -> Printf.sprintf "c T%d" t
  | Abort t -> Printf.sprintf "a T%d" t

let pp_op ppf o = Format.pp_print_string ppf (op_to_string o)

(* Completion tracking shared by both front-ends: a predeclared
   transaction commits when every declared access has been performed at
   declared strength (the linter's rule). *)
type decl = {
  mutable want_reads : (int, unit) Hashtbl.t;  (** still-missing reads *)
  mutable want_writes : (int, unit) Hashtbl.t;
}

let decl_of_sets ~reads ~writes =
  let want_reads = Hashtbl.create (List.length reads) in
  let want_writes = Hashtbl.create (List.length writes) in
  List.iter (fun x -> Hashtbl.replace want_reads x ()) reads;
  List.iter
    (fun x ->
      Hashtbl.replace want_writes x ();
      Hashtbl.remove want_reads x)
    writes;
  { want_reads; want_writes }

(* A write fulfils a read obligation on the same entity (write is at
   least as strong as read). *)
let decl_note d x ~write =
  if write then begin
    Hashtbl.remove d.want_writes x;
    Hashtbl.remove d.want_reads x
  end
  else Hashtbl.remove d.want_reads x

let decl_fulfilled d =
  Hashtbl.length d.want_reads = 0 && Hashtbl.length d.want_writes = 0

(* --- shared emitter: implicit begins, predeclared completion ------ *)

type emitter = {
  begun : (int, unit) Hashtbl.t;  (** begun, not yet ended *)
  decls : (int, decl) Hashtbl.t;
  mutable next : int;
  buf : lop list ref;
}

let emitter () =
  { begun = Hashtbl.create 64; decls = Hashtbl.create 16; next = 0; buf = ref [] }

let push em ~line op =
  em.next <- em.next + 1;
  em.buf := { index = em.next; line; op } :: !(em.buf)

let take em =
  let ops = List.rev !(em.buf) in
  em.buf := [];
  ops

let ensure_begun em ~line t =
  if not (Hashtbl.mem em.begun t) then begin
    Hashtbl.replace em.begun t ();
    push em ~line (Begin t)
  end

let emit_begin em ~line ?decl t =
  ensure_begun em ~line t;
  match decl with None -> () | Some d -> Hashtbl.replace em.decls t d

let end_txn em t =
  Hashtbl.remove em.begun t;
  Hashtbl.remove em.decls t

let emit_access em ~line t x ~write =
  ensure_begun em ~line t;
  push em ~line (if write then Write (t, x) else Read (t, x));
  match Hashtbl.find_opt em.decls t with
  | None -> ()
  | Some d ->
      decl_note d x ~write;
      if decl_fulfilled d then begin
        push em ~line (Commit t);
        end_txn em t
      end

let emit_commit em ~line t =
  ensure_begun em ~line t;
  push em ~line (Commit t);
  end_txn em t

let emit_abort em ~line t =
  if Hashtbl.mem em.begun t then begin
    push em ~line (Abort t);
    end_txn em t
  end

(* --- native schedules --------------------------------------------- *)

let access_sets a =
  Access.fold
    (fun ~entity ~mode (rs, ws) ->
      match mode with
      | Access.Read -> (entity :: rs, ws)
      | Access.Write -> (rs, entity :: ws))
    a ([], [])

let feed_step em ~line = function
  | Step.Begin t -> emit_begin em ~line t
  | Step.Begin_declared (t, a) ->
      let reads, writes = access_sets a in
      emit_begin em ~line ~decl:(decl_of_sets ~reads ~writes) t
  | Step.Read (t, x) -> emit_access em ~line t x ~write:false
  | Step.Write (t, xs) ->
      ensure_begun em ~line t;
      List.iter (fun x -> push em ~line (Write (t, x))) xs;
      emit_commit em ~line t
  | Step.Write_one (t, x) -> emit_access em ~line t x ~write:true
  | Step.Finish t -> emit_commit em ~line t

let of_schedule schedule =
  let em = emitter () in
  List.iteri (fun i s -> feed_step em ~line:(i + 1) s) schedule;
  take em

(* --- telemetry streams -------------------------------------------- *)

type adapter = {
  em : emitter;
  pending : (int, E.step * int) Hashtbl.t;  (** step index -> step, line *)
  mutable events : int;
  mutable steps : int;
  mutable foreign : int;
  mutable deferred : int;
}

type adapter_stats = {
  events : int;
  steps : int;
  foreign : int;
  deferred : int;
  undecided : int;
}

let adapter () =
  {
    em = emitter ();
    pending = Hashtbl.create 64;
    events = 0;
    steps = 0;
    foreign = 0;
    deferred = 0;
  }

let release (a : adapter) ~line (s : E.step) =
  let em = a.em in
  match s.E.kind with
  | "begin" -> emit_begin em ~line s.E.txn
  | "begin_declared" ->
      emit_begin em ~line
        ~decl:(decl_of_sets ~reads:s.E.reads ~writes:s.E.writes)
        s.E.txn
  | "read" ->
      List.iter (fun x -> emit_access em ~line s.E.txn x ~write:false) s.E.reads
  | "write" ->
      ensure_begun em ~line s.E.txn;
      List.iter (fun x -> push em ~line (Write (s.E.txn, x))) s.E.writes;
      emit_commit em ~line s.E.txn
  | "write_one" ->
      List.iter (fun x -> emit_access em ~line s.E.txn x ~write:true) s.E.writes
  | "finish" -> emit_commit em ~line s.E.txn
  | _ -> a.foreign <- a.foreign + 1

let feed_event (a : adapter) ?(line = 0) ev =
  a.events <- a.events + 1;
  (match ev with
  | E.Step_submitted { index; step } ->
      a.steps <- a.steps + 1;
      Hashtbl.replace a.pending index (step, line)
  | E.Decision { index; txn; outcome; _ } -> (
      match Hashtbl.find_opt a.pending index with
      | None -> a.foreign <- a.foreign + 1
      | Some (step, step_line) -> (
          Hashtbl.remove a.pending index;
          match outcome with
          | "accepted" -> release a ~line:step_line step
          | "delayed" ->
              (* The scheduler queued the step and will execute it at
                 some later retry the trace does not record, so its
                 true position in the conflict order is unknown.
                 Releasing it here would fabricate conflicts in
                 submission order; dropping it can only mask an
                 anomaly, never invent one. *)
              a.deferred <- a.deferred + 1
          | "rejected" -> emit_abort a.em ~line txn
          | "ignored" -> ()
          | _ -> a.foreign <- a.foreign + 1))
  | E.Txn_aborted { txn; _ } -> emit_abort a.em ~line txn
  | E.Deletion_attempted _ | E.Deletion_ok _ | E.Deletion_blocked _
  | E.Oracle_query _ | E.Cycle_rejected _ | E.Restart _ | E.Checkpoint_stats _
    ->
      ());
  take a.em

let adapter_stats (a : adapter) =
  {
    events = a.events;
    steps = a.steps;
    foreign = a.foreign;
    deferred = a.deferred;
    undecided = Hashtbl.length a.pending;
  }

let of_events events =
  let a = adapter () in
  let ops =
    List.concat_map (fun ev -> feed_event a ev) events
  in
  (ops, adapter_stats a)

(* --- files --------------------------------------------------------- *)

type format = Sched | Jsonl

let format_name = function Sched -> "sched" | Jsonl -> "jsonl"

let sniff doc =
  let n = String.length doc in
  let rec first i =
    if i >= n then Sched
    else
      match doc.[i] with
      | ' ' | '\t' | '\n' | '\r' -> first (i + 1)
      | '{' -> Jsonl
      | _ -> Sched
  in
  first 0

type file_stats = {
  fmt : format;
  lines : int;
  bad_lines : int;
  adapter : adapter_stats option;
  env : Dct_txn.Parse.env option;
}

let iter_file path ~f =
  if Sys.file_exists path && Sys.is_directory path then
    Result.Error (path ^ ": is a directory")
  else
    match open_in_bin path with
    | exception Sys_error e -> Result.Error e
    | ic ->
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () ->
            (* Sniff on the first non-blank line without loading the
               file: remember it, then keep streaming. *)
            let fmt = ref None in
            let lines = ref 0 in
            let bad = ref 0 in
            let sched_env = Dct_txn.Parse.create_env () in
            let sched_em = emitter () in
            let jsonl = adapter () in
            let err = ref None in
            let handle_line line n =
              (match !fmt with
              | Some _ -> ()
              | None ->
                  if String.trim line <> "" then fmt := Some (sniff line));
              match !fmt with
              | None -> ()
              | Some Jsonl -> (
                  if String.trim line <> "" then
                    match E.of_json line with
                    | Error _ -> incr bad
                    | Ok ev -> List.iter f (feed_event jsonl ~line:n ev))
              | Some Sched -> (
                  match Dct_txn.Parse.parse_line sched_env line with
                  | Ok None -> ()
                  | Ok (Some step) ->
                      feed_step sched_em ~line:n step;
                      List.iter f (take sched_em)
                  | Error e ->
                      if !err = None then
                        err := Some (Printf.sprintf "%s: line %d: %s" path n e))
            in
            (try
               while !err = None do
                 let line = input_line ic in
                 incr lines;
                 handle_line line !lines
               done
             with End_of_file -> ());
            match !err with
            | Some e -> Result.Error e
            | None ->
                let fmt = Option.value ~default:Sched !fmt in
                Ok
                  {
                    fmt;
                    lines = !lines;
                    bad_lines = !bad;
                    adapter =
                      (match fmt with
                      | Jsonl -> Some (adapter_stats jsonl)
                      | Sched -> None);
                    env =
                      (match fmt with
                      | Sched -> Some sched_env
                      | Jsonl -> None);
                  })
