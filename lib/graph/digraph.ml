(* Arena-backed directed graphs.

   Node ids are caller-chosen (transaction ids — monotonically growing),
   but adjacency is stored in slot space: an {!Arena} maps each live id
   to a dense slot and the succ/pred rows are slot-indexed {!Row}s whose
   bits are *slots*, so the resident footprint is bounded by the
   high-water live population, never by the ids ever issued.  Removing a
   node erases its incident arcs from both sides before its slot goes
   back on the free list, so a recycled slot always starts with empty
   rows and no row anywhere still mentions it. *)

type t = {
  arena : Arena.t;
  mutable succ : Row.t option array; (* slot -> successors, as slots *)
  mutable pred : Row.t option array; (* slot -> predecessors, as slots *)
  mutable arcs : int;
}

let create () =
  { arena = Arena.create (); succ = [||]; pred = [||]; arcs = 0 }

let copy g =
  {
    arena = Arena.copy g.arena;
    succ = Array.map (Option.map Row.copy) g.succ;
    pred = Array.map (Option.map Row.copy) g.pred;
    arcs = g.arcs;
  }

let grow g n =
  let cur = Array.length g.succ in
  if n > cur then begin
    let n' = max n (max 16 (2 * cur)) in
    let succ = Array.make n' None and pred = Array.make n' None in
    Array.blit g.succ 0 succ 0 cur;
    Array.blit g.pred 0 pred 0 cur;
    g.succ <- succ;
    g.pred <- pred
  end

let row arr s =
  match arr.(s) with
  | Some r -> r
  | None ->
      let r = Row.create () in
      arr.(s) <- Some r;
      r

let add_node g v =
  if not (Arena.mem g.arena v) then begin
    let s = Arena.alloc g.arena v in
    grow g (s + 1)
  end

let mem_node g v = Arena.mem g.arena v

let node_count g = Arena.live g.arena

let nodes g =
  Arena.fold (fun ~id ~slot:_ acc -> Intset.add id acc) g.arena Intset.empty

let iter_nodes f g = Arena.iter (fun ~id ~slot:_ -> f id) g.arena

(* {2 Slot view} — for the closure / topological-order backends, which
   keep their own slot-indexed side tables over this graph's arena. *)

let slot_of g v = Arena.find g.arena v
let id_of_slot g s = Arena.id_of g.arena s
let slot_capacity g = Arena.capacity g.arena

let iter_succ_slots f g s =
  if s >= 0 && s < Array.length g.succ then
    match g.succ.(s) with Some r -> Row.iter f r | None -> ()

let iter_pred_slots f g s =
  if s >= 0 && s < Array.length g.pred then
    match g.pred.(s) with Some r -> Row.iter f r | None -> ()

let mem_arc_slots g ~src ~dst =
  src >= 0
  && src < Array.length g.succ
  && (match g.succ.(src) with Some r -> Row.mem r dst | None -> false)

let mem_pred_slot g ~dst ~src =
  dst >= 0
  && dst < Array.length g.pred
  && (match g.pred.(dst) with Some r -> Row.mem r src | None -> false)

(* {2 Id view} *)

let set_of g arr v =
  match Arena.find g.arena v with
  | None -> Intset.empty
  | Some s -> (
      match arr.(s) with
      | None -> Intset.empty
      | Some r ->
          Row.fold (fun sl acc -> Intset.add (Arena.id_of g.arena sl) acc) r
            Intset.empty)

let succs g v = set_of g g.succ v
let preds g v = set_of g g.pred v

let degree_of g arr v =
  match Arena.find g.arena v with
  | None -> 0
  | Some s -> ( match arr.(s) with Some r -> Row.cardinal r | None -> 0)

let out_degree g v = degree_of g g.succ v
let in_degree g v = degree_of g g.pred v

let mem_arc g ~src ~dst =
  match (Arena.find g.arena src, Arena.find g.arena dst) with
  | Some ss, Some ds -> (
      match g.succ.(ss) with Some r -> Row.mem r ds | None -> false)
  | _ -> false

let add_arc_slots g ss ds =
  let r = row g.succ ss in
  if not (Row.mem r ds) then begin
    Row.add r ds;
    Row.add (row g.pred ds) ss;
    g.arcs <- g.arcs + 1
  end

let add_arc g ~src ~dst =
  add_node g src;
  add_node g dst;
  add_arc_slots g (Arena.slot g.arena src) (Arena.slot g.arena dst)

let remove_arc g ~src ~dst =
  match (Arena.find g.arena src, Arena.find g.arena dst) with
  | Some ss, Some ds -> (
      match g.succ.(ss) with
      | Some r when Row.mem r ds ->
          Row.remove r ds;
          (match g.pred.(ds) with Some p -> Row.remove p ss | None -> ());
          g.arcs <- g.arcs - 1
      | _ -> ())
  | _ -> ()

let remove_node g v =
  match Arena.find g.arena v with
  | None -> ()
  | Some s ->
      (* Erase the incident arcs from the *other* endpoints' rows, then
         blank this slot's own rows, so the slot re-enters the free list
         with no trace of the departed node anywhere. *)
      (match g.succ.(s) with
      | Some r ->
          Row.iter
            (fun ds ->
              (match g.pred.(ds) with Some p -> Row.remove p s | None -> ());
              g.arcs <- g.arcs - 1)
            r;
          Row.clear r
      | None -> ());
      (match g.pred.(s) with
      | Some r ->
          Row.iter
            (fun ps ->
              (match g.succ.(ps) with Some q -> Row.remove q s | None -> ());
              g.arcs <- g.arcs - 1)
            r;
          Row.clear r
      | None -> ());
      ignore (Arena.release g.arena v)

(* The paper's reduction D(G, v).  The neighbours' slots stay valid
   across [remove_node], which frees only [v]'s own slot (a self-loop's
   endpoint is left out, so no bypass arc touches the freed slot). *)
let remove_node_bypass g v =
  match Arena.find g.arena v with
  | None -> ()
  | Some s ->
      let slots arr =
        match arr.(s) with
        | Some r ->
            Row.fold (fun sl acc -> if sl = s then acc else sl :: acc) r []
        | None -> []
      in
      let ps = slots g.pred and ss = slots g.succ in
      remove_node g v;
      List.iter
        (fun p -> List.iter (fun d -> if p <> d then add_arc_slots g p d) ss)
        ps

let arc_count g = g.arcs

let iter_arcs f g =
  Arena.iter_slots
    (fun ~slot ~id:src ->
      match g.succ.(slot) with
      | Some r -> Row.iter (fun ds -> f ~src ~dst:(Arena.id_of g.arena ds)) r
      | None -> ())
    g.arena

let fold_arcs f g init =
  let acc = ref init in
  iter_arcs (fun ~src ~dst -> acc := f ~src ~dst !acc) g;
  !acc

let equal g1 g2 =
  node_count g1 = node_count g2
  && arc_count g1 = arc_count g2
  && Intset.equal (nodes g1) (nodes g2)
  && Arena.fold
       (fun ~id ~slot:_ acc -> acc && Intset.equal (succs g1 id) (succs g2 id))
       g1.arena true

let bytes g =
  let rows arr =
    Array.fold_left
      (fun acc r -> match r with Some r -> acc + Row.bytes r | None -> acc + 8)
      0 arr
  in
  Arena.bytes g.arena + rows g.succ + rows g.pred + 32

let pp ppf g =
  let ns = Intset.to_sorted_list (nodes g) in
  Format.fprintf ppf "@[<v>nodes: %s@,"
    (String.concat " " (List.map string_of_int ns));
  List.iter
    (fun v ->
      let ss = Intset.to_sorted_list (succs g v) in
      if ss <> [] then
        Format.fprintf ppf "%d -> %s@," v
          (String.concat " " (List.map string_of_int ss)))
    ns;
  Format.fprintf ppf "@]"
