module H = History
module V = Violation
module T = Dct_telemetry.Tracer

type engine = Atom of Atomicity.t | Ser of Serializability.t

type t = {
  level : V.level;
  mutable engine : engine;
  tracer : T.t;
  checked : bool;
  prefix_cap : int;
  max_witness : int;
  mutable ops : int;
  mutable commits : int;
  mutable aborts : int;
  seen : (int, unit) Hashtbl.t;  (** distinct transactions *)
  mutable max_live : int;
  mutable max_resident : int;
  mutable total : int;
  mutable kept : V.t list;  (** newest first, capped *)
  mutable nkept : int;
  mutable prefix : H.lop list;  (** newest first, checked mode only *)
  mutable prefix_len : int;
  mutable prefix_open : bool;
  oracle : Dct_graph.Cycle_oracle.backend;
}

type report = {
  level : V.level;
  ops : int;
  txns : int;
  commits : int;
  aborts : int;
  live_at_end : int;
  max_live : int;
  max_resident : int;
  total : int;
  violations : V.t list;
  truncated : bool;
  checked_ops : int;
  divergence : string option;
}

let create ?(oracle = Dct_graph.Cycle_oracle.Topo) ?(tracer = T.disabled)
    ?(checked = false) ?(prefix_cap = 4096) ?(max_witness = 1000) ~level () =
  let t =
    {
      level;
      engine = Atom (Atomicity.create ~on_violation:ignore ());
      tracer;
      checked;
      prefix_cap;
      max_witness;
      ops = 0;
      commits = 0;
      aborts = 0;
      seen = Hashtbl.create 64;
      max_live = 0;
      max_resident = 0;
      total = 0;
      kept = [];
      nkept = 0;
      prefix = [];
      prefix_len = 0;
      prefix_open = checked && level = V.Serializable;
      oracle;
    }
  in
  let on_violation v =
    t.total <- t.total + 1;
    T.incr t.tracer "check.violations";
    T.incr t.tracer ("check.violation." ^ V.kind_name v.V.kind);
    if t.nkept < t.max_witness then begin
      t.kept <- v :: t.kept;
      t.nkept <- t.nkept + 1
    end
  in
  (t.engine <-
     (match level with
     | V.Atomicity -> Atom (Atomicity.create ~on_violation ())
     | _ ->
         Ser
           (Serializability.create ~oracle ?probe:(T.probe tracer) ~level
              ~on_violation ())));
  t

let live (t : t) =
  match t.engine with
  | Atom a -> Atomicity.live a
  | Ser s -> Serializability.live s

let resident (t : t) =
  match t.engine with
  | Atom a -> Atomicity.live a
  | Ser s -> Serializability.resident s

let feed (t : t) lop =
  t.ops <- t.ops + 1;
  (match lop.H.op with
  | H.Begin tx | H.Read (tx, _) | H.Write (tx, _) ->
      if not (Hashtbl.mem t.seen tx) then Hashtbl.replace t.seen tx ()
  | H.Commit tx ->
      if not (Hashtbl.mem t.seen tx) then Hashtbl.replace t.seen tx ();
      t.commits <- t.commits + 1
  | H.Abort tx ->
      if not (Hashtbl.mem t.seen tx) then Hashtbl.replace t.seen tx ();
      t.aborts <- t.aborts + 1);
  if t.prefix_open then begin
    (* An abort ends the comparable prefix: past it the streaming
       pending-discard semantics and the exact committed-projection
       check answer different questions. *)
    match lop.H.op with
    | H.Abort _ -> t.prefix_open <- false
    | _ ->
        t.prefix <- lop :: t.prefix;
        t.prefix_len <- t.prefix_len + 1;
        if t.prefix_len >= t.prefix_cap then t.prefix_open <- false
  end;
  (match t.engine with
  | Atom a -> Atomicity.feed a lop
  | Ser s -> Serializability.feed s lop);
  let l = live t in
  if l > t.max_live then t.max_live <- l;
  let r = resident t in
  if r > t.max_resident then t.max_resident <- r

(* --- the exact reference ------------------------------------------- *)

let exact_ser_verdict ops =
  let aborted = Hashtbl.create 16 in
  List.iter
    (fun { H.op; _ } ->
      match op with H.Abort tx -> Hashtbl.replace aborted tx () | _ -> ())
    ops;
  let cl = Dct_graph.Closure.create () in
  (* entity -> accesses in stream order (newest first), committed
     projection only *)
  let hist : (int, (int * bool) list ref) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun { H.op; _ } ->
      let note tx x ~write =
        if not (Hashtbl.mem aborted tx) then
          let l =
            match Hashtbl.find_opt hist x with
            | Some l -> l
            | None ->
                let l = ref [] in
                Hashtbl.replace hist x l;
                l
          in
          l := (tx, write) :: !l
      in
      match op with
      | H.Read (tx, x) -> note tx x ~write:false
      | H.Write (tx, x) -> note tx x ~write:true
      | H.Begin _ | H.Commit _ | H.Abort _ -> ())
    ops;
  Hashtbl.iter
    (fun _ l ->
      (* oldest first; all conflicting pairs, earlier -> later *)
      let accesses = Array.of_list (List.rev !l) in
      let n = Array.length accesses in
      for i = 0 to n - 1 do
        let ti, wi = accesses.(i) in
        for j = i + 1 to n - 1 do
          let tj, wj = accesses.(j) in
          if ti <> tj && (wi || wj) then
            Dct_graph.Closure.add_arc cl ~src:ti ~dst:tj
        done
      done)
    hist;
  Dct_graph.Intset.exists
    (fun n -> Dct_graph.Closure.reaches cl ~src:n ~dst:n)
    (Dct_graph.Closure.nodes cl)

let streaming_ser_verdict ?(oracle = Dct_graph.Cycle_oracle.Closure) ops =
  let n = ref 0 in
  let s =
    Serializability.create ~oracle ~level:V.Serializable
      ~on_violation:(fun _ -> incr n)
      ()
  in
  List.iter (Serializability.feed s) ops;
  Serializability.finish s;
  !n > 0

(* --- finalize ------------------------------------------------------- *)

let finalize (t : t) =
  (match t.engine with
  | Atom _ -> ()
  | Ser s -> Serializability.finish s);
  let checked_ops, divergence =
    if t.checked && t.level = V.Serializable && t.prefix_len > 0 then begin
      let prefix = List.rev t.prefix in
      t.prefix <- [];
      let streaming = streaming_ser_verdict ~oracle:t.oracle prefix in
      let exact = exact_ser_verdict prefix in
      T.incr t.tracer "check.checked_ops" ~by:t.prefix_len;
      if streaming <> exact then
        ( t.prefix_len,
          Some
            (Printf.sprintf
               "checked: streaming verdict %B but exact closure verdict %B \
                on the first %d ops"
               streaming exact t.prefix_len) )
      else (t.prefix_len, None)
    end
    else (0, None)
  in
  T.incr t.tracer "check.ops" ~by:t.ops;
  T.gauge t.tracer "check.max_live" t.max_live;
  T.gauge t.tracer "check.max_resident" t.max_resident;
  T.flush t.tracer;
  {
    level = t.level;
    ops = t.ops;
    txns = Hashtbl.length t.seen;
    commits = t.commits;
    aborts = t.aborts;
    live_at_end = live t;
    max_live = t.max_live;
    max_resident = t.max_resident;
    total = t.total;
    violations = List.sort V.compare_at (List.rev t.kept);
    truncated = t.total > t.nkept;
    checked_ops;
    divergence;
  }

let passed r = r.total = 0 && r.divergence = None

(* --- front-ends ----------------------------------------------------- *)

let check_ops ?oracle ?tracer ?checked ~level ops =
  let t = create ?oracle ?tracer ?checked ~level () in
  List.iter (feed t) ops;
  finalize t

let check_schedule ?oracle ?tracer ?checked ~level schedule =
  check_ops ?oracle ?tracer ?checked ~level (H.of_schedule schedule)

let check_file ?oracle ?tracer ?checked ~level path =
  let t = create ?oracle ?tracer ?checked ~level () in
  match H.iter_file path ~f:(feed t) with
  | Error e -> Error e
  | Ok stats -> Ok (finalize t, stats)

(* --- rendering ------------------------------------------------------ *)

let summary_line r =
  Printf.sprintf
    "%s: %d op%s, %d txn%s (%d commit%s, %d abort%s, %d live), %d violation%s"
    (V.level_name r.level) r.ops
    (if r.ops = 1 then "" else "s")
    r.txns
    (if r.txns = 1 then "" else "s")
    r.commits
    (if r.commits = 1 then "" else "s")
    r.aborts
    (if r.aborts = 1 then "" else "s")
    r.live_at_end r.total
    (if r.total = 1 then "" else "s")

let render ?txn_name ?entity_name r =
  let b = Buffer.create 256 in
  Buffer.add_string b (summary_line r);
  Buffer.add_char b '\n';
  if r.violations <> [] then begin
    Buffer.add_string b (V.render ?txn_name ?entity_name r.violations);
    if r.truncated then
      Buffer.add_string b
        (Printf.sprintf "... and %d more (witness cap reached)\n"
           (r.total - List.length r.violations))
  end;
  (match r.divergence with
  | Some d -> Buffer.add_string b ("DIVERGENCE " ^ d ^ "\n")
  | None ->
      if r.checked_ops > 0 then
        Buffer.add_string b
          (Printf.sprintf
             "checked: exact closure agrees on the first %d ops\n"
             r.checked_ops));
  Buffer.contents b

let to_json ?stats r =
  let module J = Dct_telemetry.Json in
  let ints = List.map (fun (k, v) -> (k, J.Int v)) in
  J.Obj
    ([ ("level", J.String (V.level_name r.level)) ]
    @ ints
        [
          ("ops", r.ops);
          ("txns", r.txns);
          ("commits", r.commits);
          ("aborts", r.aborts);
          ("live_at_end", r.live_at_end);
          ("max_live", r.max_live);
          ("max_resident", r.max_resident);
          ("violations", r.total);
        ]
    @ [ ("truncated", J.Bool r.truncated); ("checked_ops", J.Int r.checked_ops) ]
    @ (match r.divergence with
      | None -> []
      | Some d -> [ ("divergence", J.String d) ])
    @ (match stats with
      | None -> []
      | Some (s : H.file_stats) -> (
          [
            ("format", J.String (H.format_name s.H.fmt));
            ("lines", J.Int s.H.lines);
            ("bad_lines", J.Int s.H.bad_lines);
          ]
          @
          match s.H.adapter with
          | None -> []
          | Some a ->
              ints
                [
                  ("events", a.H.events);
                  ("steps", a.H.steps);
                  ("foreign", a.H.foreign);
                  ("deferred", a.H.deferred);
                  ("undecided", a.H.undecided);
                ]))
    @ [ ("witnesses", J.List (List.map V.to_json r.violations)) ])
