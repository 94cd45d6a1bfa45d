module Intset = Dct_graph.Intset

type version = {
  value : int;
  writer : int option;
  seq : int;
  mutable readers : Intset.t;
}

type t = { mutable chain : version list (* newest first, never empty *) }

let mk ?writer ~value ~seq () = { value; writer; seq; readers = Intset.empty }

let create ~initial = { chain = [ mk ~value:initial ~seq:0 () ] }

let current t =
  match t.chain with
  | v :: _ -> v
  | [] -> assert false (* invariant: never empty *)

let read_current t ~reader =
  let v = current t in
  v.readers <- Intset.add reader v.readers;
  v

let install t ~writer ~value ~seq =
  let v = mk ~writer ~value ~seq () in
  t.chain <- v :: t.chain;
  v

let remove_writer t w =
  let remaining = List.filter (fun v -> v.writer <> Some w) t.chain in
  (* The initial version has writer None and thus always survives. *)
  t.chain <- remaining

let prune_before t w =
  let rec upto newer = function
    | [] -> () (* [w] wrote no version here *)
    | v :: _ when v.writer = Some w -> t.chain <- List.rev (v :: newer)
    | v :: older -> upto (v :: newer) older
  in
  upto [] t.chain

let forget_reader t r =
  List.iter (fun v -> v.readers <- Intset.remove r v.readers) t.chain

let length t = List.length t.chain

let pristine t =
  match t.chain with
  | [ { writer = None; readers; _ } ] -> Intset.is_empty readers
  | _ -> false
