type t = {
  g : Digraph.t; (* explicit arcs, needed for exact removal *)
  mutable desc : Row.t option array; (* slot -> descendant slots *)
  mutable anc : Row.t option array; (* slot -> ancestor slots *)
}
(* Rows are indexed by the arena slots of [g] and their bits are slots
   too, so both dimensions of the closure matrix are bounded by the
   high-water resident population.  Every removal path clears the
   departing node's row and column before its slot can be recycled. *)

let create () = { g = Digraph.create (); desc = [||]; anc = [||] }

let graph t = t.g

let copy t =
  {
    g = Digraph.copy t.g;
    desc = Array.map (Option.map Row.copy) t.desc;
    anc = Array.map (Option.map Row.copy) t.anc;
  }

let grow t n =
  let cur = Array.length t.desc in
  if n > cur then begin
    let n' = max n (max 16 (2 * cur)) in
    let desc = Array.make n' None and anc = Array.make n' None in
    Array.blit t.desc 0 desc 0 cur;
    Array.blit t.anc 0 anc 0 cur;
    t.desc <- desc;
    t.anc <- anc
  end

let row arr s =
  match arr.(s) with
  | Some r -> r
  | None ->
      let r = Row.create () in
      arr.(s) <- Some r;
      r

let add_node t v =
  Digraph.add_node t.g v;
  grow t (Digraph.slot_capacity t.g)

let mem_node t v = Digraph.mem_node t.g v

let nodes t = Digraph.nodes t.g

let reaches t ~src ~dst =
  match (Digraph.slot_of t.g src, Digraph.slot_of t.g dst) with
  | Some ss, Some ds -> (
      match t.desc.(ss) with Some r -> Row.mem r ds | None -> false)
  | _ -> false

let would_cycle t ~src ~dst = src = dst || reaches t ~src:dst ~dst:src

let iter_over arr t f v =
  match Digraph.slot_of t.g v with
  | None -> ()
  | Some s -> (
      match arr.(s) with
      | None -> ()
      | Some r -> Row.iter (fun sl -> f (Digraph.id_of_slot t.g sl)) r)

let iter_descendants f t v = iter_over t.desc t f v
let iter_ancestors f t v = iter_over t.anc t f v

let descendants t v =
  let acc = ref Intset.empty in
  iter_descendants (fun w -> acc := Intset.add w !acc) t v;
  !acc

let ancestors t v =
  let acc = ref Intset.empty in
  iter_ancestors (fun w -> acc := Intset.add w !acc) t v;
  !acc

let add_arc t ~src ~dst =
  add_node t src;
  add_node t dst;
  if not (Digraph.mem_arc t.g ~src ~dst) then begin
    Digraph.add_arc t.g ~src ~dst;
    let ss = Option.get (Digraph.slot_of t.g src)
    and ds = Option.get (Digraph.slot_of t.g dst) in
    let already =
      match t.desc.(ss) with Some r -> Row.mem r ds | None -> false
    in
    if not already then begin
      (* Snapshot the two frontiers before mutating any row. *)
      let new_desc = Row.copy (row t.desc ds) in
      Row.add new_desc ds;
      let new_anc = Row.copy (row t.anc ss) in
      Row.add new_anc ss;
      let sources = Row.copy new_anc in
      let sinks = Row.copy new_desc in
      Row.iter
        (fun a -> ignore (Row.union_into ~into:(row t.desc a) new_desc))
        sources;
      Row.iter
        (fun d -> ignore (Row.union_into ~into:(row t.anc d) new_anc))
        sinks
    end
  end

(* Clear [vs] (and this row, if it is the departing node's) everywhere
   it appears; a recycled slot must start with an all-zero column. *)
let erase_column arr vs =
  Array.iter (function Some r -> Row.remove r vs | None -> ()) arr

let clear_row arr s =
  match arr.(s) with Some r -> Row.clear r | None -> ()

let remove_node t mode v =
  match Digraph.slot_of t.g v with
  | None -> ()
  | Some vs -> (
      match mode with
      | `Bypass ->
          (* Keep paths through [v]: add explicit bypass arcs to the arc
             graph so a later exact rebuild stays faithful, then erase
             the node's row and column from the closure. *)
          Digraph.remove_node_bypass t.g v;
          clear_row t.desc vs;
          clear_row t.anc vs;
          erase_column t.desc vs;
          erase_column t.anc vs
      | `Exact ->
          (* Only rows that mention [v] can change: reachability between
             two nodes is affected only if some witness path ran through
             [v], in which case v was a descendant of one and an ancestor
             of the other.  Recompute exactly those rows instead of the
             whole closure (the seed behaviour rebuilt everything). *)
          let affected arr =
            let out = ref [] in
            Array.iteri
              (fun u r ->
                match r with
                | Some r when u <> vs && Row.mem r vs ->
                    out := Digraph.id_of_slot t.g u :: !out
                | _ -> ())
              arr;
            !out
          in
          let up = affected t.desc and down = affected t.anc in
          Digraph.remove_node t.g v;
          clear_row t.desc vs;
          clear_row t.anc vs;
          let refresh arr dir u =
            match Digraph.slot_of t.g u with
            | None -> ()
            | Some us ->
                let r = row arr us in
                Row.clear r;
                Intset.iter
                  (fun w ->
                    match Digraph.slot_of t.g w with
                    | Some ws -> Row.add r ws
                    | None -> ())
                  (Traversal.reachable t.g dir u)
          in
          List.iter (refresh t.desc `Fwd) up;
          List.iter (refresh t.anc `Bwd) down)

let bytes t =
  let rows arr =
    Array.fold_left
      (fun acc r -> match r with Some r -> acc + Row.bytes r | None -> acc + 8)
      0 arr
  in
  Digraph.bytes t.g + rows t.desc + rows t.anc + 24

let check_against t g =
  Intset.equal (nodes t) (Digraph.nodes g)
  && Intset.for_all
       (fun v ->
         Intset.equal (descendants t v) (Traversal.reachable g `Fwd v)
         && Intset.equal (ancestors t v) (Traversal.reachable g `Bwd v))
       (Digraph.nodes g)
