module Intset = Dct_graph.Intset

type t = {
  default : int;
  logs : (int, Version_log.t) Hashtbl.t;
      (* a log whose chain is back to the bare initial version (no
         write, no reader) is removed: a later access recreates it *)
  mutable versions : int; (* sum of the chains' lengths *)
  mutable seq : int; (* global version sequence *)
}

let create ?(default = 0) () =
  { default; logs = Hashtbl.create 64; versions = 0; seq = 0 }

let log t entity =
  match Hashtbl.find_opt t.logs entity with
  | Some l -> l
  | None ->
      let l = Version_log.create ~initial:t.default in
      Hashtbl.replace t.logs entity l;
      t.versions <- t.versions + 1;
      l

let read t ~entity ~reader = Version_log.read_current (log t entity) ~reader

let write t ~entity ~writer ~value =
  t.seq <- t.seq + 1;
  ignore (Version_log.install (log t entity) ~writer ~value ~seq:t.seq);
  t.versions <- t.versions + 1

let peek t ~entity =
  match Hashtbl.find_opt t.logs entity with
  | None -> t.default
  | Some l -> (Version_log.current l).Version_log.value

let current_writer t ~entity =
  match Hashtbl.find_opt t.logs entity with
  | None -> None
  | Some l -> (Version_log.current l).Version_log.writer

let current_readers t ~entity =
  match Hashtbl.find_opt t.logs entity with
  | None -> Intset.empty
  | Some l -> (Version_log.current l).Version_log.readers

(* A removal visits only the chains of the transaction's own entities,
   re-counts each and retires it once it is pristine again. *)
let visit t entities f =
  Intset.iter
    (fun entity ->
      match Hashtbl.find_opt t.logs entity with
      | None -> ()
      | Some l ->
          let before = Version_log.length l in
          f l;
          t.versions <- t.versions + Version_log.length l - before;
          if Version_log.pristine l then begin
            Hashtbl.remove t.logs entity;
            t.versions <- t.versions - 1
          end)
    entities

let undo_writes t ~txn ~entities =
  visit t entities (fun l ->
      Version_log.remove_writer l txn;
      Version_log.forget_reader l txn)

let forget_txn t ~txn ~entities =
  visit t entities (fun l ->
      Version_log.prune_before l txn;
      Version_log.forget_reader l txn)

let entities t =
  Hashtbl.fold (fun e _ acc -> Intset.add e acc) t.logs Intset.empty

let version_count t ~entity =
  match Hashtbl.find_opt t.logs entity with
  | None -> 0
  | Some l -> Version_log.length l

let total_versions t = t.versions
