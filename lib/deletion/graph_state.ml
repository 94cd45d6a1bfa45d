module Intset = Dct_graph.Intset
module Digraph = Dct_graph.Digraph
module Arena = Dct_graph.Arena
module Traversal = Dct_graph.Traversal
module Access = Dct_txn.Access
module Transaction = Dct_txn.Transaction
module Tracer = Dct_telemetry.Tracer
module Probe = Dct_telemetry.Probe

(* Per-entity access bookkeeping.

   [history] records every access of a *present* transaction (entries of
   aborted and deleted transactions are dropped when the transaction
   leaves).  [last_write_seq] marks where the current value begins; it
   survives the deletion of the writer thanks to [tombstone_write_seq]
   (a committed-and-deleted write can never be undone, whereas an
   aborted write is). *)
type einfo = {
  mutable history : (int * Access.mode * int) list; (* txn, mode, seq; newest first *)
  mutable last_write_seq : int;
  mutable tombstone_write_seq : int;
}

(* Structural change notifications for incremental consumers (the
   deletability index).  Removal events carry the neighbourhood captured
   {e before} the node left the graph — the subscriber has no other way
   to learn which survivors were adjacent. *)
type mutation =
  | Txn_began of int
  | Arc_added of { src : int; dst : int }
  | Access_recorded of { txn : int; entity : int; mode : Access.mode }
  | State_changed of int
  | Dependency_added of { dependent : int; on_ : int }
  | Txn_removed of {
      txn : int;
      reduction : bool; (* true: D(G,T) deletion with bypass; false: abort *)
      preds : Intset.t;
      succs : Intset.t;
      entities : Intset.t;
      deps : Intset.t; (* providers and dependents, both directions *)
    }

type t = {
  g : Digraph.t;
  oracle : Dct_graph.Cycle_oracle.t option;
      (* optional maintained cycle-detection backend: bitset closure
         (the §3 remark), Pearce-Kelly topological order, or both in
         lock-step — cycle checks become oracle probes, arc inserts and
         deletions keep it in sync with [g] *)
  arena : Arena.t;
      (* live transaction ids -> dense slots; the record and dependency
         stores below are slot-indexed, so their footprint is bounded by
         the high-water resident population, not the ids ever issued *)
  mutable recs : Transaction.t option array; (* slot -> record *)
  mutable deps : Intset.t array; (* slot -> providers it read from (ids) *)
  mutable rev_deps : Intset.t array; (* slot -> dependents (ids) *)
  einfos : (int, einfo) Hashtbl.t;
  aborted : (int, unit) Hashtbl.t;
  deleted : (int, unit) Hashtbl.t;
      (* ids forgotten by the reduction D(G,T) — kept so auditors can
         assert a deleted transaction never reappears in the graph *)
  mutable seq : int;
  mutable tracer : Tracer.t;
      (* run-wide tracing handle; [Tracer.disabled] (the default) makes
         every emission a no-op *)
  mutable hooks : (mutation -> unit) list;
      (* mutation subscribers, notified after the state change lands;
         empty for every state without an attached index *)
}

let create ?oracle ?(tracer = Tracer.disabled) () =
  let probe = Tracer.probe tracer in
  let oracle = Option.map (Dct_graph.Cycle_oracle.create ?probe) oracle in
  {
    g = Digraph.create ();
    oracle;
    arena = Arena.create ();
    recs = [||];
    deps = [||];
    rev_deps = [||];
    einfos = Hashtbl.create 64;
    aborted = Hashtbl.create 16;
    deleted = Hashtbl.create 16;
    seq = 0;
    tracer;
    hooks = [];
  }

let tracer t = t.tracer

let on_mutation t f = t.hooks <- t.hooks @ [ f ]

let notify t m =
  match t.hooks with [] -> () | hs -> List.iter (fun f -> f m) hs

let set_tracer t tracer =
  t.tracer <- tracer;
  Option.iter
    (fun o -> Dct_graph.Cycle_oracle.set_probe o (Tracer.probe tracer))
    t.oracle

let copy t =
  let einfos = Hashtbl.create (Hashtbl.length t.einfos) in
  Hashtbl.iter
    (fun e info ->
      Hashtbl.replace einfos e
        {
          history = info.history;
          last_write_seq = info.last_write_seq;
          tombstone_write_seq = info.tombstone_write_seq;
        })
    t.einfos;
  {
    g = Digraph.copy t.g;
    (* Cycle_oracle.copy drops the probe; pairing that with a disabled
       tracer keeps speculative replays (safety searches, audits,
       exact-max enumeration) out of the live trace. *)
    oracle = Option.map Dct_graph.Cycle_oracle.copy t.oracle;
    arena = Arena.copy t.arena;
    recs =
      Array.map
        (Option.map (fun (txn : Transaction.t) ->
             {
               Transaction.id = txn.Transaction.id;
               state = txn.Transaction.state;
               accesses = txn.Transaction.accesses;
               declared = txn.Transaction.declared;
             }))
        t.recs;
    deps = Array.copy t.deps;
    rev_deps = Array.copy t.rev_deps;
    einfos;
    aborted = Hashtbl.copy t.aborted;
    deleted = Hashtbl.copy t.deleted;
    seq = t.seq;
    tracer = Tracer.disabled;
    (* Hooks are not copied: an index subscribed to the original would
       otherwise see (and corrupt itself on) the replica's speculative
       mutations.  Re-attach explicitly if the copy needs one. *)
    hooks = [];
  }

(* Transactions *)

let mem_txn t id = Arena.mem t.arena id

let grow_stores t n =
  let cur = Array.length t.recs in
  if n > cur then begin
    let n' = max n (max 16 (2 * cur)) in
    let recs = Array.make n' None in
    let deps = Array.make n' Intset.empty in
    let rev_deps = Array.make n' Intset.empty in
    Array.blit t.recs 0 recs 0 cur;
    Array.blit t.deps 0 deps 0 cur;
    Array.blit t.rev_deps 0 rev_deps 0 cur;
    t.recs <- recs;
    t.deps <- deps;
    t.rev_deps <- rev_deps
  end

let begin_txn ?declared t id =
  if mem_txn t id then
    invalid_arg (Printf.sprintf "Graph_state.begin_txn: T%d already present" id);
  let s = Arena.alloc t.arena id in
  grow_stores t (s + 1);
  t.recs.(s) <- Some (Transaction.create ?declared id);
  Digraph.add_node t.g id;
  Option.iter (fun o -> Dct_graph.Cycle_oracle.add_node o id) t.oracle;
  notify t (Txn_began id)

let txn t id =
  match Arena.find t.arena id with
  | Some s -> ( match t.recs.(s) with Some r -> r | None -> raise Not_found)
  | None -> raise Not_found

let state t id = (txn t id).Transaction.state

let set_state t id s =
  (txn t id).Transaction.state <- s;
  notify t (State_changed id)

let accesses t id = (txn t id).Transaction.accesses

let find_rec t id =
  match Arena.find t.arena id with Some s -> t.recs.(s) | None -> None

let is_active t id =
  match find_rec t id with
  | Some txn -> Transaction.is_active txn.Transaction.state
  | None -> false

let is_completed t id =
  match find_rec t id with
  | Some txn -> Transaction.is_completed txn.Transaction.state
  | None -> false

let filter_txns t p =
  Arena.fold
    (fun ~id ~slot acc ->
      match t.recs.(slot) with
      | Some txn when p txn.Transaction.state -> Intset.add id acc
      | _ -> acc)
    t.arena Intset.empty

let active_txns t = filter_txns t Transaction.is_active
let completed_txns t = filter_txns t Transaction.is_completed
let all_txns t = filter_txns t (fun _ -> true)
let txn_count t = Arena.live t.arena

(* Entity index *)

let einfo t entity =
  match Hashtbl.find_opt t.einfos entity with
  | Some info -> info
  | None ->
      let info = { history = []; last_write_seq = 0; tombstone_write_seq = 0 } in
      Hashtbl.replace t.einfos entity info;
      info

let record_access t ~txn:id ~entity ~mode =
  Transaction.perform (txn t id) ~entity ~mode;
  t.seq <- t.seq + 1;
  let info = einfo t entity in
  info.history <- (id, mode, t.seq) :: info.history;
  if mode = Access.Write then info.last_write_seq <- t.seq;
  notify t (Access_recorded { txn = id; entity; mode })

let collect_history t entity p =
  match Hashtbl.find_opt t.einfos entity with
  | None -> Intset.empty
  | Some info ->
      List.fold_left
        (fun acc (id, mode, seq) ->
          if p id mode seq then Intset.add id acc else acc)
        Intset.empty info.history

let present_writers t ~entity =
  collect_history t entity (fun id mode _ -> mode = Access.Write && mem_txn t id)

let present_accessors t ~entity =
  collect_history t entity (fun id _ _ -> mem_txn t id)

let current_accessors t ~entity =
  match Hashtbl.find_opt t.einfos entity with
  | None -> Intset.empty
  | Some info ->
      collect_history t entity (fun _ _ seq -> seq >= info.last_write_seq)

let entities t =
  Hashtbl.fold (fun e _ acc -> Intset.add e acc) t.einfos Intset.empty

let access_history t ~entity =
  match Hashtbl.find_opt t.einfos entity with
  | None -> []
  | Some info -> List.filter (fun (id, _, _) -> mem_txn t id) info.history

(* Dependencies *)

let add_dependency t ~dependent ~on_ =
  if dependent <> on_ then begin
    (match (Arena.find t.arena dependent, Arena.find t.arena on_) with
    | Some ds, Some ps ->
        t.deps.(ds) <- Intset.add on_ t.deps.(ds);
        t.rev_deps.(ps) <- Intset.add dependent t.rev_deps.(ps)
    | _ ->
        invalid_arg
          (Printf.sprintf
             "Graph_state.add_dependency: T%d -> T%d involves an absent \
              transaction"
             dependent on_));
    notify t (Dependency_added { dependent; on_ })
  end

let direct_deps t id =
  match Arena.find t.arena id with
  | Some s -> t.deps.(s)
  | None -> Intset.empty

let rev_deps_of t id =
  match Arena.find t.arena id with
  | Some s -> t.rev_deps.(s)
  | None -> Intset.empty

let dependents_closure t seed =
  let rec go frontier acc =
    if Intset.is_empty frontier then acc
    else
      let next =
        Intset.fold
          (fun id acc' -> Intset.union acc' (Intset.diff (rev_deps_of t id) acc))
          frontier Intset.empty
      in
      go next (Intset.union acc next)
  in
  go seed seed

(* Graph *)

let graph t = t.g

let add_arc t ~src ~dst =
  Digraph.add_arc t.g ~src ~dst;
  Option.iter (fun o -> Dct_graph.Cycle_oracle.add_arc o ~src ~dst) t.oracle;
  notify t (Arc_added { src; dst })

let reaches t ~src ~dst =
  match t.oracle with
  | Some o -> Dct_graph.Cycle_oracle.reaches o ~src ~dst
  | None ->
      (* oracle-less fallback still reports latency, as backend "dfs" *)
      Probe.obs (Tracer.probe t.tracer) ~op:"reaches" ~backend:"dfs" (fun () ->
          Traversal.has_path t.g ~src ~dst)

let reaches_any t ~src ~dsts =
  (not (Intset.is_empty dsts))
  &&
  match t.oracle with
  | Some o -> Dct_graph.Cycle_oracle.reaches_any o ~src ~dsts
  | None ->
      Probe.obs (Tracer.probe t.tracer) ~op:"reaches_any" ~backend:"dfs"
        (fun () ->
          let desc = Traversal.reachable t.g `Fwd src in
          not (Intset.is_empty (Intset.inter desc dsts)))

let would_cycle t ~into ~sources =
  (not (Intset.is_empty sources))
  && (Intset.mem into sources || reaches_any t ~src:into ~dsts:sources)

let is_acyclic t = Traversal.is_acyclic t.g

(* Removal *)

let drop_entity_entries t id ~tombstone =
  Hashtbl.iter
    (fun _ info ->
      let mine, others =
        List.partition (fun (id', _, _) -> id' = id) info.history
      in
      if mine <> [] then begin
        info.history <- others;
        if tombstone then
          List.iter
            (fun (_, mode, seq) ->
              if mode = Access.Write then
                info.tombstone_write_seq <- max info.tombstone_write_seq seq)
            mine
        else begin
          (* Aborted writes are undone: the current value reverts. *)
          let max_write =
            List.fold_left
              (fun acc (_, mode, seq) ->
                if mode = Access.Write then max acc seq else acc)
              info.tombstone_write_seq others
          in
          info.last_write_seq <- max_write
        end
      end)
    t.einfos

let drop_deps t s ~id =
  Intset.iter
    (fun p ->
      match Arena.find t.arena p with
      | Some ps -> t.rev_deps.(ps) <- Intset.remove id t.rev_deps.(ps)
      | None -> ())
    t.deps.(s);
  Intset.iter
    (fun d ->
      match Arena.find t.arena d with
      | Some ds -> t.deps.(ds) <- Intset.remove id t.deps.(ds)
      | None -> ())
    t.rev_deps.(s);
  t.deps.(s) <- Intset.empty;
  t.rev_deps.(s) <- Intset.empty

(* Release a transaction's slot: the record and both dependency cells
   must be blank before the slot can be recycled by the next begin. *)
let release_txn t id =
  match Arena.find t.arena id with
  | None -> ()
  | Some s ->
      t.recs.(s) <- None;
      drop_deps t s ~id;
      ignore (Arena.release t.arena id)

(* Neighbourhood snapshot for Txn_removed, taken while the node is still
   in the graph; [None] when nobody is listening. *)
let removal_payload t id ~reduction =
  match t.hooks with
  | [] -> None
  | _ ->
      let deps = Intset.union (direct_deps t id) (rev_deps_of t id) in
      Some
        (Txn_removed
           {
             txn = id;
             reduction;
             preds = Digraph.preds t.g id;
             succs = Digraph.succs t.g id;
             entities = Access.entities (accesses t id);
             deps;
           })

let abort_txn t id =
  if mem_txn t id then begin
    let payload = removal_payload t id ~reduction:false in
    Digraph.remove_node t.g id;
    Option.iter (fun o -> Dct_graph.Cycle_oracle.remove_node o `Exact id) t.oracle;
    drop_entity_entries t id ~tombstone:false;
    release_txn t id;
    Hashtbl.replace t.aborted id ();
    Option.iter (notify t) payload
  end

let was_aborted t id = Hashtbl.mem t.aborted id

let aborted_txns t =
  Hashtbl.fold (fun id () acc -> Intset.add id acc) t.aborted Intset.empty

let was_deleted t id = Hashtbl.mem t.deleted id

let deleted_txns t =
  Hashtbl.fold (fun id () acc -> Intset.add id acc) t.deleted Intset.empty

let oracle t = t.oracle

let closure t = Option.bind t.oracle Dct_graph.Cycle_oracle.closure

let forget_txn_record t id =
  if mem_txn t id then begin
    drop_entity_entries t id ~tombstone:true;
    release_txn t id
  end

(* The reduction D(G, T): remove the node while preserving every path
   through it with bypass arcs, in both the graph and (cheaply) the
   closure.  Exposed through Reduced_graph.delete. *)
let delete_with_bypass t ti =
  let payload = removal_payload t ti ~reduction:true in
  let ps = Digraph.preds t.g ti and ss = Digraph.succs t.g ti in
  Digraph.remove_node t.g ti;
  Intset.iter
    (fun p ->
      Intset.iter
        (fun s -> if p <> s then Digraph.add_arc t.g ~src:p ~dst:s)
        ss)
    ps;
  Option.iter (fun o -> Dct_graph.Cycle_oracle.remove_node o `Bypass ti) t.oracle;
  forget_txn_record t ti;
  Hashtbl.replace t.deleted ti ();
  Option.iter (notify t) payload

(* Deterministic resident-size estimate of the graph substrate: the
   conflict graph (arena + rows), the oracle's structures, the
   slot-indexed record/dependency stores and the entity index.  The
   audit tombstone sets ([aborted]/[deleted]) are deliberately excluded:
   they are a historical record for auditors, not resident graph state.
   Everything here is derived from capacities and live counts, so
   replicas driven by identical operation sequences report identical
   values. *)
let resident_bytes t =
  let oracle_bytes =
    match t.oracle with Some o -> Dct_graph.Cycle_oracle.bytes o | None -> 0
  in
  let store_bytes =
    8
    * (Array.length t.recs + Array.length t.deps + Array.length t.rev_deps
     + (16 * Arena.live t.arena))
  in
  let entity_bytes =
    Hashtbl.fold
      (fun _ info acc -> acc + 8 * (6 + (4 * List.length info.history)))
      t.einfos 0
  in
  Digraph.bytes t.g + oracle_bytes + Arena.bytes t.arena + store_bytes
  + entity_bytes

let check_invariants t =
  let err fmt = Printf.ksprintf (fun m -> Error m) fmt in
  let nodes = Digraph.nodes t.g in
  let records = all_txns t in
  if not (Intset.equal nodes records) then
    err "graph nodes %s <> transaction records %s"
      (Format.asprintf "%a" Intset.pp nodes)
      (Format.asprintf "%a" Intset.pp records)
  else if not (Traversal.is_acyclic t.g) then err "graph is cyclic"
  else begin
    let bad_history = ref None in
    Hashtbl.iter
      (fun e info ->
        List.iter
          (fun (id, _, _) ->
            if not (mem_txn t id) then bad_history := Some (e, id))
          info.history)
      t.einfos;
    match !bad_history with
    | Some (e, id) -> err "entity %d history mentions absent T%d" e id
    | None -> (
        let bad_dep = ref None in
        Arena.iter
          (fun ~id:d ~slot ->
            Intset.iter
              (fun p ->
                if not (mem_txn t p) then bad_dep := Some (d, p, "provider")
                else if not (Intset.mem d (rev_deps_of t p)) then
                  bad_dep := Some (d, p, "missing reverse edge"))
              t.deps.(slot))
          t.arena;
        match !bad_dep with
        | Some (d, p, what) -> err "dependency T%d -> T%d: %s" d p what
        | None -> Ok ())
  end

let pp ppf t =
  Format.fprintf ppf "@[<v>graph: %a@,txns:@," Digraph.pp t.g;
  Intset.iter
    (fun id -> Format.fprintf ppf "  %a@," Transaction.pp (txn t id))
    (all_txns t);
  Format.fprintf ppf "@]"
