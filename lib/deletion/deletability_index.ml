module Intset = Dct_graph.Intset
module Arena = Dct_graph.Arena
module Traversal = Dct_graph.Traversal

exception Divergence of string

type mode = Naive | Incremental | Checked

let mode_name = function
  | Naive -> "naive"
  | Incremental -> "incremental"
  | Checked -> "checked"

let mode_of_string s =
  match String.lowercase_ascii s with
  | "naive" -> Ok Naive
  | "incremental" | "incr" -> Ok Incremental
  | "checked" -> Ok Checked
  | _ ->
      Error
        (Printf.sprintf
           "unknown gc-index %S (expected naive | incremental | checked)" s)

type cond = C1 | C4

let cond_name = function C1 -> "c1" | C4 -> "c4"

type stats = {
  mutable refreshes : int;
  mutable full_rebuilds : int;
  mutable rechecks : int;
  mutable region_nodes : int;
}

(* Per-transaction cached state lives in slot-indexed stores behind a
   private {!Arena}: a slot is allocated the first time the index caches
   anything for a live transaction and recycled on [Txn_removed], so the
   stores are bounded by the high-water resident population — the
   verdict/tally caches of long-dead transactions cost nothing. *)
type t = {
  gs : Graph_state.t;
  mode : mode;
  cond : cond;
  mutable arena : Arena.t; (* live txns with cached state -> slots *)
  mutable verdicts : Bytes.t; (* slot -> 0 unknown | 1 false | 2 true *)
  mutable covs : Condition_c1.counts option array;
      (* slot of predecessor -> coverage tallies of its completed tight
         successors; doubles as the {!Condition_c1.holds_fast} memo *)
  mutable cts_cache : Intset.t option array;
      (* slot of predecessor -> completed tight successors, for C2 *)
  mutable eligible_set : Intset.t; (* { ti | verdict(ti) = true } *)
  mutable dirty : Intset.t; (* seed txns whose neighbourhood changed *)
  mutable all_dirty : bool; (* full rebuild pending (initial state) *)
  stats : stats;
}

let mode t = t.mode
let cond t = t.cond

(* ------------------------------------------------------------------ *)
(* Slot stores *)

let grow_stores t n =
  let cur = Array.length t.covs in
  if n > cur then begin
    let n' = max n (max 16 (2 * cur)) in
    let verdicts = Bytes.make n' '\000' in
    Bytes.blit t.verdicts 0 verdicts 0 (Bytes.length t.verdicts);
    let covs = Array.make n' None in
    let cts = Array.make n' None in
    Array.blit t.covs 0 covs 0 cur;
    Array.blit t.cts_cache 0 cts 0 cur;
    t.verdicts <- verdicts;
    t.covs <- covs;
    t.cts_cache <- cts
  end

(* Slot of [id], allocating one iff [id] is a live transaction.  Stores
   targeting departed ids are dropped on the floor — their state is
   gone, and allocating for them would leak a slot with no [Txn_removed]
   left to free it. *)
let slot_for t id =
  match Arena.find t.arena id with
  | Some s -> Some s
  | None ->
      if Graph_state.mem_txn t.gs id then begin
        let s = Arena.alloc t.arena id in
        grow_stores t (s + 1);
        Some s
      end
      else None

let forget t id =
  match Arena.find t.arena id with
  | None -> ()
  | Some s ->
      Bytes.set t.verdicts s '\000';
      t.covs.(s) <- None;
      t.cts_cache.(s) <- None;
      ignore (Arena.release t.arena id)

let set_verdict t ti v =
  match slot_for t ti with
  | None -> ()
  | Some s -> Bytes.set t.verdicts s (if v then '\002' else '\001')

let covs_memo t =
  {
    Condition_c1.find =
      (fun tj ->
        match Arena.find t.arena tj with
        | Some s -> t.covs.(s)
        | None -> None);
    store =
      (fun tj c ->
        match slot_for t tj with
        | Some s -> t.covs.(s) <- Some c
        | None -> ());
  }

let invalidate_tallies t v =
  match Arena.find t.arena v with
  | None -> ()
  | Some s ->
      t.covs.(s) <- None;
      t.cts_cache.(s) <- None

(* ------------------------------------------------------------------ *)
(* Invalidation: translate graph mutations into dirty seeds.

   The C1 verdict of a candidate [ti] depends only on its active tight
   predecessors [tj], and for each such [tj] on the accesses of [tj]'s
   completed tight successors.  Tight paths pass through completed
   intermediates only, so:

   - an arc whose destination is still {e active} cannot create, extend
     or re-cover any tight path — active nodes are never intermediates
     and never discharge coverage.  The arc's effect is deferred to the
     destination's later [State_changed] (commit), whose expansion sees
     the arc.  This is what makes per-step arcs free for the index.
   - an access recorded by an {e active} transaction changes no C1
     verdict either (only completed successors' accesses cover, and
     obligations belong to completed candidates), so it dirties
     nothing.

   C4 tight paths pass through {e anything} and clause (2) covers with
   {e active} members' declared accesses, so for a C4 index every arc
   and every access seeds normally. *)

let on_mutation t (m : Graph_state.mutation) =
  match m with
  | Graph_state.Txn_began _ -> () (* fresh node, no arcs: no verdict moves *)
  | Graph_state.Dependency_added _ -> () (* deps feed C3 only, never indexed *)
  | Graph_state.Arc_added { src; dst } -> (
      match t.cond with
      | C1 ->
          if Graph_state.is_completed t.gs dst then
            t.dirty <- Intset.add src (Intset.add dst t.dirty)
      | C4 -> t.dirty <- Intset.add src (Intset.add dst t.dirty))
  | Graph_state.Access_recorded { txn; _ } -> (
      match t.cond with
      | C1 ->
          (* only ever completed on exotic direct driving; schedulers
             record accesses for active transactions exclusively *)
          if Graph_state.is_completed t.gs txn then
            t.dirty <- Intset.add txn t.dirty
      | C4 -> t.dirty <- Intset.add txn t.dirty)
  | Graph_state.State_changed id -> t.dirty <- Intset.add id t.dirty
  | Graph_state.Txn_removed { txn; neighbourhood; _ } ->
      let { Graph_state.preds; succs } = Lazy.force neighbourhood in
      forget t txn;
      t.eligible_set <- Intset.remove txn t.eligible_set;
      (* The node is leaving; seed its surviving neighbours instead.  A
         neighbour removed before the next refresh re-seeds its own
         neighbours in turn (inductive frontier), so chains of deletions
         stay covered.  Bypass arcs preserve pred⇝succ connectivity, so
         expanding from the endpoints reaches everything the removed
         node's own cones reached. *)
      t.dirty <-
        Intset.union (Intset.union preds succs) (Intset.remove txn t.dirty)

(* ------------------------------------------------------------------ *)
(* Refresh *)

let through t =
  match t.cond with
  | C1 -> fun v -> Graph_state.is_completed t.gs v
  | C4 -> fun _ -> true

let cts_of t tj =
  let cached =
    match Arena.find t.arena tj with Some s -> t.cts_cache.(s) | None -> None
  in
  match cached with
  | Some s -> s
  | None -> (
      let s = Tightness.completed_tight_successors t.gs tj in
      match slot_for t tj with
      | Some sl ->
          t.cts_cache.(sl) <- Some s;
          s
      | None -> s)

let check t ti =
  t.stats.rechecks <- t.stats.rechecks + 1;
  match t.cond with
  | C1 -> Condition_c1.holds_fast ~memo:(covs_memo t) t.gs ti
  | C4 -> Condition_c4.holds t.gs ti

let recheck t ti =
  let v = check t ti in
  set_verdict t ti v;
  t.eligible_set <-
    (if v then Intset.add ti t.eligible_set
     else Intset.remove ti t.eligible_set)

let rebuild t =
  t.stats.full_rebuilds <- t.stats.full_rebuilds + 1;
  t.arena <- Arena.create ();
  t.verdicts <- Bytes.create 0;
  t.covs <- [||];
  t.cts_cache <- [||];
  t.eligible_set <- Intset.empty;
  Intset.iter (fun ti -> recheck t ti) (Graph_state.completed_txns t.gs);
  t.dirty <- Intset.empty;
  t.all_dirty <- false

let refresh t =
  if t.mode = Naive then ()
  else if t.all_dirty then rebuild t
  else if not (Intset.is_empty t.dirty) then begin
    t.stats.refreshes <- t.stats.refreshes + 1;
    let seeds = t.dirty in
    t.dirty <- Intset.empty;
    let pass = through t in
    let g = Graph_state.graph t.gs in
    (* Stage 1: the region — both tight cones of every (surviving)
       seed.  Verdicts of completed members may have moved; coverage
       tallies of every member are suspect. *)
    let region =
      Intset.fold
        (fun s acc ->
          if not (Graph_state.mem_txn t.gs s) then acc
          else
            Intset.add s
              (Intset.union acc
                 (Intset.union
                    (Traversal.reachable ~through:pass g `Bwd s)
                    (Traversal.reachable ~through:pass g `Fwd s))))
        seeds Intset.empty
    in
    t.stats.region_nodes <- t.stats.region_nodes + Intset.cardinal region;
    Intset.iter (invalidate_tallies t) region;
    (* Stage 2: candidates to re-check — completed members of the
       region, plus the completed forward cone of every {e active}
       member: those actives are the predecessors whose discharger
       sets changed, and each of their completed tight successors owes
       its verdict to them even when it lies outside the region. *)
    let candidates =
      ref (Intset.filter (Graph_state.is_completed t.gs) region)
    in
    Intset.iter
      (fun v ->
        if Graph_state.is_active t.gs v then
          let cone =
            match t.cond with
            | C1 -> cts_of t v
            | C4 ->
                Intset.filter
                  (Graph_state.is_completed t.gs)
                  (Traversal.reachable ~through:(fun _ -> true) g `Fwd v)
          in
          candidates := Intset.union !candidates cone)
      region;
    Intset.iter (fun ti -> recheck t ti) !candidates
  end

(* ------------------------------------------------------------------ *)
(* Queries *)

let naive_eligible t =
  match t.cond with
  | C1 -> Condition_c1.eligible t.gs
  | C4 -> Condition_c4.eligible t.gs

let eligible t =
  match t.mode with
  | Naive -> naive_eligible t
  | Incremental ->
      refresh t;
      t.eligible_set
  | Checked ->
      refresh t;
      let reference = naive_eligible t in
      if not (Intset.equal reference t.eligible_set) then
        raise
          (Divergence
             (Format.asprintf
                "eligible(%s): incremental %a <> naive %a" (cond_name t.cond)
                Intset.pp t.eligible_set Intset.pp reference));
      t.eligible_set

let check_noncurrent t =
  if t.mode = Checked then begin
    let maintained = Graph_state.noncurrent_completed t.gs in
    let reference =
      Intset.filter
        (Condition_c1.noncurrent t.gs)
        (Graph_state.completed_txns t.gs)
    in
    if not (Intset.equal maintained reference) then
      raise
        (Divergence
           (Format.asprintf "noncurrent: maintained %a <> naive %a" Intset.pp
              maintained Intset.pp reference))
  end

let completed_tight_successors t tj =
  match t.mode with
  | Naive -> Tightness.completed_tight_successors t.gs tj
  | Incremental ->
      refresh t;
      cts_of t tj
  | Checked ->
      refresh t;
      let cached = cts_of t tj in
      let reference = Tightness.completed_tight_successors t.gs tj in
      if not (Intset.equal cached reference) then
        raise
          (Divergence
             (Format.asprintf "cts(T%d): cached %a <> naive %a" tj Intset.pp
                cached Intset.pp reference));
      cached

let stats t =
  [
    ("refreshes", t.stats.refreshes);
    ("full_rebuilds", t.stats.full_rebuilds);
    ("rechecks", t.stats.rechecks);
    ("region_nodes", t.stats.region_nodes);
  ]

let attach ?(cond = C1) mode gs =
  let t =
    {
      gs;
      mode;
      cond;
      arena = Arena.create ();
      verdicts = Bytes.create 0;
      covs = [||];
      cts_cache = [||];
      eligible_set = Intset.empty;
      dirty = Intset.empty;
      all_dirty = true;
      stats = { refreshes = 0; full_rebuilds = 0; rechecks = 0; region_nodes = 0 };
    }
  in
  (match mode with
  | Naive -> () (* pure delegation: no subscription, no cached state *)
  | Incremental | Checked -> Graph_state.on_mutation gs (on_mutation t));
  t
