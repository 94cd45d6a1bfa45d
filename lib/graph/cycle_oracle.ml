module Probe = Dct_telemetry.Probe

module type S = sig
  type t

  val name : string
  val create : unit -> t
  val copy : t -> t
  val graph : t -> Digraph.t
  val add_node : t -> int -> unit
  val mem_node : t -> int -> bool
  val nodes : t -> Intset.t
  val add_arc : t -> src:int -> dst:int -> unit
  val remove_node : t -> [ `Bypass | `Exact ] -> int -> unit
  val reaches : t -> src:int -> dst:int -> bool
  val reaches_any : t -> src:int -> dsts:Intset.t -> bool
  val would_cycle : t -> src:int -> dst:int -> bool
  val cycle_witness : t -> src:int -> dst:int -> int list option
  val iter_descendants : (int -> unit) -> t -> int -> unit
  val iter_ancestors : (int -> unit) -> t -> int -> unit
  val bytes : t -> int
  val check_against : t -> Digraph.t -> bool
end

module Closure_backend : S with type t = Closure.t = struct
  include Closure

  let name = "closure"

  let reaches_any t ~src ~dsts =
    Intset.exists (fun d -> Closure.reaches t ~src ~dst:d) dsts

  let cycle_witness t ~src ~dst =
    if src = dst then if Closure.mem_node t src then Some [ src ] else None
    else if Closure.reaches t ~src:dst ~dst:src then
      Traversal.find_path (Closure.graph t) ~src:dst ~dst:src
    else None
end

module Topo_backend : S with type t = Topo_order.t = struct
  include Topo_order

  let name = "topo"
end

type backend = Closure | Topo | Checked

let all = [ Closure; Topo; Checked ]

let backend_name = function
  | Closure -> "closure"
  | Topo -> "topo"
  | Checked -> "checked"

let backend_of_string s =
  match String.lowercase_ascii s with
  | "closure" | "bitset" -> Ok Closure
  | "topo" | "pk" | "pearce-kelly" -> Ok Topo
  | "checked" | "both" -> Ok Checked
  | other ->
      Error
        (Printf.sprintf "unknown oracle %S (expected closure|topo|checked)"
           other)

exception Disagreement of string

let () =
  Printexc.register_printer (function
    | Disagreement m -> Some (Printf.sprintf "Cycle_oracle.Disagreement: %s" m)
    | _ -> None)

let disagree fmt = Printf.ksprintf (fun m -> raise (Disagreement m)) fmt

type imp =
  | Closure_i of Closure.t
  | Topo_i of Topo_order.t
  | Checked_i of Closure.t * Topo_order.t

type t = { imp : imp; probe : Probe.t option }

let create ?probe backend =
  let imp =
    match backend with
    | Closure -> Closure_i (Closure_backend.create ())
    | Topo -> Topo_i (Topo_backend.create ())
    | Checked -> Checked_i (Closure_backend.create (), Topo_backend.create ())
  in
  { imp; probe }

let backend t =
  match t.imp with
  | Closure_i _ -> Closure
  | Topo_i _ -> Topo
  | Checked_i _ -> Checked

let name t = backend_name (backend t)
let probe t = t.probe

(* Copies are overwhelmingly speculative (safety searches, audits, the
   exact-max policy enumeration) — they drop the probe so replayed work
   never pollutes the latency record of the live oracle. *)
let copy t =
  let imp =
    match t.imp with
    | Closure_i c -> Closure_i (Closure_backend.copy c)
    | Topo_i o -> Topo_i (Topo_backend.copy o)
    | Checked_i (c, o) ->
        Checked_i (Closure_backend.copy c, Topo_backend.copy o)
  in
  { imp; probe = None }

(* [Checked] compares every boolean answer; [agree] is the single
   funnel so each divergence names the operation and both verdicts. *)
let agree op a b =
  if a <> b then disagree "%s: closure says %b, topo says %b" op a b;
  a

(* Each timed primitive emits exactly one sample per underlying
   backend: "closure" or "topo" under the single backends, one of each
   under [Checked] — so per op, a checked run's sample count per
   backend matches the corresponding single-backend run over the same
   operation sequence.  [Checked]'s own cross-check overhead (the
   pre-insert agreement probes in [add_arc]) is deliberately not
   attributed: it measures the harness, not the backend. *)
let obs t ~op ~bk f = Probe.obs t.probe ~op ~backend:bk f

let graph t =
  match t.imp with
  | Closure_i c | Checked_i (c, _) -> Closure_backend.graph c
  | Topo_i o -> Topo_backend.graph o

let add_node t v =
  match t.imp with
  | Closure_i c -> Closure_backend.add_node c v
  | Topo_i o -> Topo_backend.add_node o v
  | Checked_i (c, o) ->
      Closure_backend.add_node c v;
      Topo_backend.add_node o v

let mem_node t v =
  match t.imp with
  | Closure_i c -> Closure_backend.mem_node c v
  | Topo_i o -> Topo_backend.mem_node o v
  | Checked_i (c, o) ->
      agree
        (Printf.sprintf "mem_node %d" v)
        (Closure_backend.mem_node c v)
        (Topo_backend.mem_node o v)

let nodes t =
  match t.imp with
  | Closure_i c -> Closure_backend.nodes c
  | Topo_i o -> Topo_backend.nodes o
  | Checked_i (c, o) ->
      let nc = Closure_backend.nodes c and no = Topo_backend.nodes o in
      if not (Intset.equal nc no) then
        disagree "nodes: closure has %s, topo has %s"
          (Format.asprintf "%a" Intset.pp nc)
          (Format.asprintf "%a" Intset.pp no);
      nc

let add_arc t ~src ~dst =
  match t.imp with
  | Closure_i c ->
      obs t ~op:"add_arc" ~bk:"closure" (fun () ->
          Closure_backend.add_arc c ~src ~dst)
  | Topo_i o ->
      obs t ~op:"add_arc" ~bk:"topo" (fun () ->
          Topo_backend.add_arc o ~src ~dst)
  | Checked_i (c, o) ->
      let safe =
        not
          (agree
             (Printf.sprintf "would_cycle before add_arc %d -> %d" src dst)
             (Closure_backend.would_cycle c ~src ~dst)
             (Topo_backend.would_cycle o ~src ~dst))
      in
      if not safe then
        disagree "add_arc %d -> %d: both backends report a cycle-closing arc \
                  (caller broke the pre-condition)"
          src dst;
      obs t ~op:"add_arc" ~bk:"closure" (fun () ->
          Closure_backend.add_arc c ~src ~dst);
      obs t ~op:"add_arc" ~bk:"topo" (fun () ->
          Topo_backend.add_arc o ~src ~dst)

let remove_node t mode v =
  match t.imp with
  | Closure_i c ->
      obs t ~op:"remove_node" ~bk:"closure" (fun () ->
          Closure_backend.remove_node c mode v)
  | Topo_i o ->
      obs t ~op:"remove_node" ~bk:"topo" (fun () ->
          Topo_backend.remove_node o mode v)
  | Checked_i (c, o) ->
      obs t ~op:"remove_node" ~bk:"closure" (fun () ->
          Closure_backend.remove_node c mode v);
      obs t ~op:"remove_node" ~bk:"topo" (fun () ->
          Topo_backend.remove_node o mode v)

let reaches t ~src ~dst =
  match t.imp with
  | Closure_i c ->
      obs t ~op:"reaches" ~bk:"closure" (fun () ->
          Closure_backend.reaches c ~src ~dst)
  | Topo_i o ->
      obs t ~op:"reaches" ~bk:"topo" (fun () ->
          Topo_backend.reaches o ~src ~dst)
  | Checked_i (c, o) ->
      agree
        (Printf.sprintf "reaches %d -> %d" src dst)
        (obs t ~op:"reaches" ~bk:"closure" (fun () ->
             Closure_backend.reaches c ~src ~dst))
        (obs t ~op:"reaches" ~bk:"topo" (fun () ->
             Topo_backend.reaches o ~src ~dst))

let reaches_any t ~src ~dsts =
  match t.imp with
  | Closure_i c ->
      obs t ~op:"reaches_any" ~bk:"closure" (fun () ->
          Closure_backend.reaches_any c ~src ~dsts)
  | Topo_i o ->
      obs t ~op:"reaches_any" ~bk:"topo" (fun () ->
          Topo_backend.reaches_any o ~src ~dsts)
  | Checked_i (c, o) ->
      agree
        (Format.asprintf "reaches_any %d -> %a" src Intset.pp dsts)
        (obs t ~op:"reaches_any" ~bk:"closure" (fun () ->
             Closure_backend.reaches_any c ~src ~dsts))
        (obs t ~op:"reaches_any" ~bk:"topo" (fun () ->
             Topo_backend.reaches_any o ~src ~dsts))

let would_cycle t ~src ~dst =
  match t.imp with
  | Closure_i c ->
      obs t ~op:"would_cycle" ~bk:"closure" (fun () ->
          Closure_backend.would_cycle c ~src ~dst)
  | Topo_i o ->
      obs t ~op:"would_cycle" ~bk:"topo" (fun () ->
          Topo_backend.would_cycle o ~src ~dst)
  | Checked_i (c, o) ->
      agree
        (Printf.sprintf "would_cycle %d -> %d" src dst)
        (obs t ~op:"would_cycle" ~bk:"closure" (fun () ->
             Closure_backend.would_cycle c ~src ~dst))
        (obs t ~op:"would_cycle" ~bk:"topo" (fun () ->
             Topo_backend.would_cycle o ~src ~dst))

(* A witness must be a genuine path [dst ⇝ src] over the arcs the
   backend itself maintains. *)
let witness_is_path g ~src ~dst = function
  | [] -> false
  | [ v ] -> v = src && v = dst
  | first :: _ as path ->
      first = dst
      &&
      let rec arcs = function
        | a :: (b :: _ as rest) ->
            Digraph.mem_arc g ~src:a ~dst:b && arcs rest
        | [ last ] -> last = src
        | [] -> false
      in
      arcs path

let cycle_witness t ~src ~dst =
  match t.imp with
  | Closure_i c -> Closure_backend.cycle_witness c ~src ~dst
  | Topo_i o -> Topo_backend.cycle_witness o ~src ~dst
  | Checked_i (c, o) -> (
      let wc = Closure_backend.cycle_witness c ~src ~dst in
      let wo = Topo_backend.cycle_witness o ~src ~dst in
      match (wc, wo) with
      | None, None -> None
      | Some pc, Some po ->
          if not (witness_is_path (Closure.graph c) ~src ~dst pc) then
            disagree "cycle_witness %d -> %d: closure produced a bogus path"
              src dst;
          if not (witness_is_path (Topo_order.graph o) ~src ~dst po) then
            disagree "cycle_witness %d -> %d: topo produced a bogus path" src
              dst;
          Some pc
      | Some _, None | None, Some _ ->
          disagree "cycle_witness %d -> %d: closure says %s, topo says %s" src
            dst
            (if wc = None then "safe" else "cycle")
            (if wo = None then "safe" else "cycle"))

(* The allocation-free cone iterators.  Under [Checked] the two cones
   are collected and compared before being replayed to [f] — the checked
   oracle is a harness, so the extra sets are the price of the
   cross-check, exactly as for [nodes]. *)
let collect iter x v =
  let acc = ref Intset.empty in
  iter (fun w -> acc := Intset.add w !acc) x v;
  !acc

let iter_descendants f t v =
  match t.imp with
  | Closure_i c -> Closure_backend.iter_descendants f c v
  | Topo_i o -> Topo_backend.iter_descendants f o v
  | Checked_i (c, o) ->
      let dc = collect Closure_backend.iter_descendants c v in
      let dt = collect Topo_backend.iter_descendants o v in
      if not (Intset.equal dc dt) then
        disagree "iter_descendants %d: closure has %s, topo has %s" v
          (Format.asprintf "%a" Intset.pp dc)
          (Format.asprintf "%a" Intset.pp dt);
      Intset.iter f dc

let iter_ancestors f t v =
  match t.imp with
  | Closure_i c -> Closure_backend.iter_ancestors f c v
  | Topo_i o -> Topo_backend.iter_ancestors f o v
  | Checked_i (c, o) ->
      let ac = collect Closure_backend.iter_ancestors c v in
      let at = collect Topo_backend.iter_ancestors o v in
      if not (Intset.equal ac at) then
        disagree "iter_ancestors %d: closure has %s, topo has %s" v
          (Format.asprintf "%a" Intset.pp ac)
          (Format.asprintf "%a" Intset.pp at);
      Intset.iter f ac

let descendants t v = collect iter_descendants t v
let ancestors t v = collect iter_ancestors t v

let bytes t =
  match t.imp with
  | Closure_i c -> Closure_backend.bytes c
  | Topo_i o -> Topo_backend.bytes o
  | Checked_i (c, o) -> Closure_backend.bytes c + Topo_backend.bytes o

let check_against t g =
  match t.imp with
  | Closure_i c -> Closure_backend.check_against c g
  | Topo_i o -> Topo_backend.check_against o g
  | Checked_i (c, o) ->
      Closure_backend.check_against c g && Topo_backend.check_against o g

let closure t =
  match t.imp with
  | Closure_i c | Checked_i (c, _) -> Some c
  | Topo_i _ -> None

let topo t =
  match t.imp with
  | Topo_i o | Checked_i (_, o) -> Some o
  | Closure_i _ -> None
