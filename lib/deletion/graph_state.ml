module Intset = Dct_graph.Intset
module Digraph = Dct_graph.Digraph
module Arena = Dct_graph.Arena
module Traversal = Dct_graph.Traversal
module Cycle_oracle = Dct_graph.Cycle_oracle
module Access = Dct_txn.Access
module Transaction = Dct_txn.Transaction
module Tracer = Dct_telemetry.Tracer

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
   deletability index, a storage).  A removal's neighbourhood is lazy:
   only a subscriber that forces it (the index) pays for building it. *)
type neighbourhood = { preds : Intset.t; succs : Intset.t; entities : Intset.t }

type mutation =
  | Txn_began of int
  | Arc_added of { src : int; dst : int }
  | Access_recorded of { txn : int; entity : int; mode : Access.mode }
  | State_changed of int
  | Dependency_added of { dependent : int; on_ : int }
  | Txn_removed of {
      txn : int;
      reduction : bool; (* true: D(G,T) deletion with bypass; false: abort *)
      neighbourhood : neighbourhood Lazy.t;
    }

type t = {
  oracle : Cycle_oracle.t;
      (* the only holder of the conflict graph: Pearce-Kelly
         topological order (the default), bitset closure (the §3
         remark), or both in lock-step — cycle checks are oracle
         probes, and every arc insert and removal goes through it *)
  arena : Arena.t;
      (* live transaction ids -> dense slots; the record and dependency
         stores below are slot-indexed, so their footprint is bounded by
         the high-water resident population, not the ids ever issued *)
  mutable recs : Transaction.t option array; (* slot -> record *)
  mutable deps : Intset.t array; (* slot -> providers it read from (ids) *)
  mutable rev_deps : Intset.t array; (* slot -> dependents (ids) *)
  einfos : (int, einfo) Hashtbl.t;
      (* entities with at least one present accessor: an entry whose
         history empties is removed, since [last_write_seq] and
         [tombstone_write_seq] filter nothing without a history *)
  mutable history_len : int; (* sum of the histories' lengths *)
  mutable active : int; (* present transactions in state Active *)
  aborted : (int, unit) Hashtbl.t;
  deleted : (int, unit) Hashtbl.t;
      (* ids forgotten by the reduction D(G,T) — kept so auditors can
         assert a deleted transaction never reappears in the graph *)
  mutable seq : int;
  tracer : Tracer.t;
      (* run-wide tracing handle; [Tracer.disabled] (the default) makes
         every emission a no-op *)
  mutable hooks : (mutation -> unit) list;
      (* mutation subscribers, notified after the state change lands
         (a removal: just before); empty for every state with neither
         an attached index nor a storage *)
}

let create ?(oracle = Cycle_oracle.Topo) ?(tracer = Tracer.disabled) () =
  {
    oracle = Cycle_oracle.create ?probe:(Tracer.probe tracer) oracle;
    arena = Arena.create ();
    recs = [||];
    deps = [||];
    rev_deps = [||];
    einfos = Hashtbl.create 64;
    history_len = 0;
    active = 0;
    aborted = Hashtbl.create 16;
    deleted = Hashtbl.create 16;
    seq = 0;
    tracer;
    hooks = [];
  }

let tracer t = t.tracer

let on_mutation t f = t.hooks <- t.hooks @ [ f ]

let notify t m =
  match t.hooks with
  | [] -> ()
  | [ f ] -> f m (* a lone storage or index: no closure per mutation *)
  | hs -> List.iter (fun f -> f m) hs

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
    (* Cycle_oracle.copy drops the probe; pairing that with a disabled
       tracer keeps speculative replays (safety searches, audits,
       exact-max enumeration) out of the live trace. *)
    oracle = Cycle_oracle.copy t.oracle;
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
    history_len = t.history_len;
    active = t.active;
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
  t.active <- t.active + 1;
  Cycle_oracle.add_node t.oracle id;
  notify t (Txn_began id)

let txn t id =
  match Arena.find t.arena id with
  | Some s -> ( match t.recs.(s) with Some r -> r | None -> raise Not_found)
  | None -> raise Not_found

let state t id = (txn t id).Transaction.state

(* The only state mutator, so the active count stays exact. *)
let set_state t id s =
  let r = txn t id in
  let was = Transaction.is_active r.Transaction.state in
  let now = Transaction.is_active s in
  if was && not now then t.active <- t.active - 1
  else if now && not was then t.active <- t.active + 1;
  r.Transaction.state <- s;
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
let active_count t = t.active

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
  t.history_len <- t.history_len + 1;
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

let graph t = Cycle_oracle.graph t.oracle

let add_arc t ~src ~dst =
  Cycle_oracle.add_arc t.oracle ~src ~dst;
  notify t (Arc_added { src; dst })

let reaches t ~src ~dst = Cycle_oracle.reaches t.oracle ~src ~dst

let reaches_any t ~src ~dsts =
  (not (Intset.is_empty dsts)) && Cycle_oracle.reaches_any t.oracle ~src ~dsts

let would_cycle t ~into ~sources =
  (not (Intset.is_empty sources))
  && (Intset.mem into sources || reaches_any t ~src:into ~dsts:sources)

let is_acyclic t = Traversal.is_acyclic (graph t)

(* Removal *)

(* Visits only the leaving transaction's own entities: every history
   entry of [id] is on an entity of its access set ([record_access]
   performs before it logs), and the access set is still readable
   because this runs before [release_txn]. *)
let drop_entity_entries t id ~tombstone =
  Access.iter
    (fun ~entity ~mode:_ ->
      match Hashtbl.find_opt t.einfos entity with
      | None -> ()
      | Some info ->
          let mine, others =
            List.partition (fun (id', _, _) -> id' = id) info.history
          in
          t.history_len <- t.history_len - List.length mine;
          if others = [] then Hashtbl.remove t.einfos entity
          else begin
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
    (accesses t id)

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
      (match t.recs.(s) with
      | Some r when Transaction.is_active r.Transaction.state ->
          t.active <- t.active - 1
      | _ -> ());
      t.recs.(s) <- None;
      drop_deps t s ~id;
      ignore (Arena.release t.arena id)

(* Announced while [id] is still in the graph, so that a callback
   forcing the neighbourhood reads it as it stands. *)
let announce_removal t id ~reduction =
  match t.hooks with
  | [] -> ()
  | _ ->
      notify t
        (Txn_removed
           {
             txn = id;
             reduction;
             neighbourhood =
               lazy
                 (let g = graph t in
                  {
                    preds = Digraph.preds g id;
                    succs = Digraph.succs g id;
                    entities = Access.entities (accesses t id);
                  });
           })

let abort_txn t id =
  if mem_txn t id then begin
    announce_removal t id ~reduction:false;
    Cycle_oracle.remove_node t.oracle `Exact id;
    drop_entity_entries t id ~tombstone:false;
    release_txn t id;
    Hashtbl.replace t.aborted id ()
  end

let was_aborted t id = Hashtbl.mem t.aborted id

let aborted_txns t =
  Hashtbl.fold (fun id () acc -> Intset.add id acc) t.aborted Intset.empty

let was_deleted t id = Hashtbl.mem t.deleted id

let deleted_txns t =
  Hashtbl.fold (fun id () acc -> Intset.add id acc) t.deleted Intset.empty

let oracle t = t.oracle

(* The record and index entries of a node already detached from the
   graph, in O(its own footprint), without touching current-accessor
   history (deletion must not rewrite database facts). *)
let forget_txn_record t id =
  if mem_txn t id then begin
    drop_entity_entries t id ~tombstone:true;
    release_txn t id
  end

(* The reduction D(G, T): the oracle removes the node and keeps every
   path through it (Digraph.remove_node_bypass).  Exposed through
   Reduced_graph.delete. *)
let delete_with_bypass t ti =
  announce_removal t ti ~reduction:true;
  Cycle_oracle.remove_node t.oracle `Bypass ti;
  forget_txn_record t ti;
  Hashtbl.replace t.deleted ti ()

(* Deterministic resident-size estimate of the graph substrate: the
   oracle (which holds the conflict graph), the slot-indexed
   record/dependency stores and the entity index.  The audit tombstone
   sets ([aborted]/[deleted]) are deliberately excluded: they are a
   historical record for auditors, not resident graph state.
   Everything here is derived from capacities and maintained counts
   (six words per entity entry, four per history entry), so the read
   is O(1) and replicas driven by identical operation sequences report
   identical values. *)
let resident_bytes t =
  let store_bytes =
    8
    * (Array.length t.recs + Array.length t.deps + Array.length t.rev_deps
     + (16 * Arena.live t.arena))
  in
  let entity_bytes =
    8 * ((6 * Hashtbl.length t.einfos) + (4 * t.history_len))
  in
  Cycle_oracle.bytes t.oracle + Arena.bytes t.arena + store_bytes
  + entity_bytes

let check_invariants t =
  let err fmt = Printf.ksprintf (fun m -> Error m) fmt in
  let g = graph t in
  let nodes = Digraph.nodes g in
  let records = all_txns t in
  if not (Intset.equal nodes records) then
    err "graph nodes %s <> transaction records %s"
      (Format.asprintf "%a" Intset.pp nodes)
      (Format.asprintf "%a" Intset.pp records)
  else if not (Traversal.is_acyclic g) then err "graph is cyclic"
  else begin
    let bad_history = ref None and entries = ref 0 in
    Hashtbl.iter
      (fun e info ->
        if info.history = [] then bad_history := Some (e, "has an empty history")
        else
          List.iter
            (fun (id, _, _) ->
              incr entries;
              match find_rec t id with
              | None ->
                  bad_history :=
                    Some (e, Printf.sprintf "history mentions absent T%d" id)
              | Some r when not (Access.mem r.Transaction.accesses ~entity:e)
                ->
                  bad_history :=
                    Some
                      ( e,
                        Printf.sprintf
                          "history mentions T%d, which never accessed it" id )
              | Some _ -> ())
            info.history)
      t.einfos;
    let actives = Intset.cardinal (active_txns t) in
    match !bad_history with
    | Some (e, what) -> err "entity %d %s" e what
    | None when !entries <> t.history_len ->
        err "history count %d <> %d entries" t.history_len !entries
    | None when actives <> t.active ->
        err "active count %d <> %d active transactions" t.active actives
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
  Format.fprintf ppf "@[<v>graph: %a@,txns:@," Digraph.pp (graph t);
  Intset.iter
    (fun id -> Format.fprintf ppf "  %a@," Transaction.pp (txn t id))
    (all_txns t);
  Format.fprintf ppf "@]"
