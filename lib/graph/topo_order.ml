type t = {
  g : Digraph.t;
  mutable ord : int array; (* slot -> rank, unique; -1 on free slots *)
  mutable next : int; (* next fresh rank *)
  mutable mark : int array; (* slot -> generation of last visit *)
  mutable gen : int; (* current search generation *)
}
(* Ranks and visit marks are indexed by the arena slots of [g]: both
   side tables are bounded by the high-water resident population.  The
   generation counter makes every clipped search allocation-free — a
   slot is "visited" iff [mark.(s) = gen], and bumping [gen] resets the
   whole table in O(1).  Recycled slots carry a stale (strictly smaller)
   generation, so they can never appear pre-visited. *)

let create () = { g = Digraph.create (); ord = [||]; next = 0; mark = [||]; gen = 0 }

let copy t =
  {
    g = Digraph.copy t.g;
    ord = Array.copy t.ord;
    next = t.next;
    mark = Array.copy t.mark;
    gen = t.gen;
  }

let graph t = t.g

let grow t n =
  let cur = Array.length t.ord in
  if n > cur then begin
    let n' = max n (max 16 (2 * cur)) in
    let ord = Array.make n' (-1) and mark = Array.make n' 0 in
    Array.blit t.ord 0 ord 0 cur;
    Array.blit t.mark 0 mark 0 cur;
    t.ord <- ord;
    t.mark <- mark
  end

let slot t v =
  match Digraph.slot_of t.g v with Some s -> s | None -> raise Not_found

let rank t v = t.ord.(slot t v)

let mem_node t v = Digraph.mem_node t.g v

let nodes t = Digraph.nodes t.g

let add_node t v =
  if not (Digraph.mem_node t.g v) then begin
    Digraph.add_node t.g v;
    grow t (Digraph.slot_capacity t.g);
    t.ord.(slot t v) <- t.next;
    t.next <- t.next + 1;
    (* A recycled slot must not look visited by an in-flight search;
       searches never interleave with mutation, so stamping 0 here (and
       never resetting [gen]) keeps the invariant mark < gen for fresh
       slots. *)
    t.mark.(slot t v) <- 0
  end

let fresh_gen t =
  t.gen <- t.gen + 1;
  t.gen

(* Forward DFS from slot [start] over slots with rank <= [ub].  Slots of
   rank exactly [ub] terminate a path (only the arc source can hold it,
   ranks being unique), so the affected region never leaks past the
   source.  Visited slots are pushed onto [out] (when given). *)
exception Hit

let clipped_forward t start ub ~stop_at ~out =
  let gen = fresh_gen t in
  let rec go s =
    t.mark.(s) <- gen;
    (match out with Some l -> l := s :: !l | None -> ());
    Digraph.iter_succ_slots
      (fun w ->
        if w = stop_at then raise Hit;
        if t.ord.(w) < ub && t.mark.(w) <> gen then go w)
      t.g s
  in
  go start

let clipped_backward t start lb ~out =
  let gen = fresh_gen t in
  let rec go s =
    t.mark.(s) <- gen;
    out := s :: !out;
    Digraph.iter_pred_slots
      (fun w -> if t.ord.(w) > lb && t.mark.(w) <> gen then go w)
      t.g s
  in
  go start

(* Reassign the pooled old ranks of both regions: the backward region
   keeps its relative order, followed by the forward region in its
   relative order (Pearce-Kelly's affected-region permutation). *)
let reorder t delta_b delta_f =
  let by_rank slots =
    List.sort (fun a b -> compare t.ord.(a) t.ord.(b)) slots
  in
  let l = by_rank delta_b @ by_rank delta_f in
  let pool = List.sort compare (List.map (fun s -> t.ord.(s)) l) in
  List.iter2 (fun s p -> t.ord.(s) <- p) l pool

let add_arc t ~src ~dst =
  if src = dst then
    invalid_arg (Printf.sprintf "Topo_order.add_arc: self-loop on %d" src);
  add_node t src;
  add_node t dst;
  if not (Digraph.mem_arc t.g ~src ~dst) then begin
    let ss = slot t src and ds = slot t dst in
    let ox = t.ord.(ss) and oy = t.ord.(ds) in
    if oy < ox then begin
      let delta_f = ref [] in
      match clipped_forward t ds ox ~stop_at:ss ~out:(Some delta_f) with
      | exception Hit ->
          invalid_arg
            (Printf.sprintf "Topo_order.add_arc: %d -> %d closes a cycle" src
               dst)
      | () ->
          let delta_b = ref [] in
          clipped_backward t ss oy ~out:delta_b;
          reorder t !delta_b !delta_f
    end;
    Digraph.add_arc t.g ~src ~dst
  end

let reaches t ~src ~dst =
  mem_node t src && mem_node t dst && src <> dst
  &&
  let ss = slot t src and ds = slot t dst in
  t.ord.(ss) < t.ord.(ds)
  &&
  match clipped_forward t ss t.ord.(ds) ~stop_at:ds ~out:None with
  | exception Hit -> true
  | () -> false

let reaches_any t ~src ~dsts =
  mem_node t src
  && (not (Intset.is_empty dsts))
  &&
  (* One clipped search: stop as soon as any member is visited.  The
     clip bound is the largest rank among present targets. *)
  let bound =
    Intset.fold
      (fun d acc ->
        match Digraph.slot_of t.g d with
        | Some s -> max acc t.ord.(s)
        | None -> acc)
      dsts (-1)
  in
  let ss = slot t src in
  bound > t.ord.(ss)
  &&
  let gen = fresh_gen t in
  let rec go s =
    t.mark.(s) <- gen;
    Digraph.iter_succ_slots
      (fun w ->
        if Intset.mem (Digraph.id_of_slot t.g w) dsts then raise Hit;
        if t.ord.(w) < bound && t.mark.(w) <> gen then go w)
      t.g s
  in
  match go ss with exception Hit -> true | () -> false

let would_cycle t ~src ~dst = src = dst || reaches t ~src:dst ~dst:src

let cycle_witness t ~src ~dst =
  if src = dst then if mem_node t src then Some [ src ] else None
  else if not (mem_node t src && mem_node t dst) then None
  else Traversal.find_path t.g ~src:dst ~dst:src

let iter_descendants f t v =
  if mem_node t v then begin
    let gen = fresh_gen t in
    let start = slot t v in
    let rec go s =
      t.mark.(s) <- gen;
      if s <> start then f (Digraph.id_of_slot t.g s);
      Digraph.iter_succ_slots (fun w -> if t.mark.(w) <> gen then go w) t.g s
    in
    go start
  end

let iter_ancestors f t v =
  if mem_node t v then begin
    let gen = fresh_gen t in
    let start = slot t v in
    let rec go s =
      t.mark.(s) <- gen;
      if s <> start then f (Digraph.id_of_slot t.g s);
      Digraph.iter_pred_slots (fun w -> if t.mark.(w) <> gen then go w) t.g s
    in
    go start
  end

let remove_node t mode v =
  match Digraph.slot_of t.g v with
  | None -> ()
  | Some vs ->
      (match mode with
      | `Bypass ->
          (* D(G, v): every pred-to-succ path survives via a bypass arc.
             rank p < rank v < rank s already holds, so no reordering. *)
          Digraph.remove_node_bypass t.g v
      | `Exact -> Digraph.remove_node t.g v);
      t.ord.(vs) <- -1

let bytes t =
  Digraph.bytes t.g + (8 * (Array.length t.ord + Array.length t.mark)) + 40

let check_invariant t =
  Intset.for_all (fun v -> rank t v >= 0) (Digraph.nodes t.g)
  && Digraph.fold_arcs
       (fun ~src ~dst acc -> acc && rank t src < rank t dst)
       t.g true

let check_against t g = Digraph.equal t.g g && check_invariant t
