type level = Atomicity | Read_committed | Read_atomic | Causal | Serializable

let all_levels = [ Atomicity; Read_committed; Read_atomic; Causal; Serializable ]

let level_name = function
  | Atomicity -> "atomicity"
  | Read_committed -> "rc"
  | Read_atomic -> "ra"
  | Causal -> "causal"
  | Serializable -> "ser"

let level_of_string s =
  match String.lowercase_ascii s with
  | "atomicity" | "atomic" -> Ok Atomicity
  | "rc" | "read-committed" -> Ok Read_committed
  | "ra" | "read-atomic" -> Ok Read_atomic
  | "causal" | "cc" -> Ok Causal
  | "ser" | "serializable" -> Ok Serializable
  | _ ->
      Error
        (Printf.sprintf
           "unknown level %S (expected atomicity | rc | ra | causal | ser)" s)

type kind =
  | Dirty_read
  | Dirty_write
  | Lost_update
  | Fractured_read
  | Unstable_read
  | Causal_cycle
  | Conflict_cycle

let kind_name = function
  | Dirty_read -> "dirty-read"
  | Dirty_write -> "dirty-write"
  | Lost_update -> "lost-update"
  | Fractured_read -> "fractured-read"
  | Unstable_read -> "unstable-read"
  | Causal_cycle -> "causal-cycle"
  | Conflict_cycle -> "conflict-cycle"

let kind_level = function
  | Dirty_read | Dirty_write -> Read_committed
  | Lost_update -> Atomicity
  | Fractured_read -> Read_atomic
  | Unstable_read | Causal_cycle -> Causal
  | Conflict_cycle -> Serializable

type op_ref = { at : int; line : int; what : string }

type t = {
  level : level;
  kind : kind;
  txns : int list;
  entity : int option;
  ops : op_ref list;
  message : string;
}

let compare_at a b =
  let first v = match v.ops with [] -> max_int | o :: _ -> o.at in
  match compare (first a) (first b) with
  | 0 -> compare (kind_name a.kind) (kind_name b.kind)
  | c -> c

let default_txn id = Printf.sprintf "T%d" id
let default_entity id = Printf.sprintf "e%d" id

let pp ?(txn_name = default_txn) ?(entity_name = default_entity) ppf v =
  let anchor = match List.rev v.ops with [] -> 0 | o :: _ -> o.at in
  Format.fprintf ppf "op %d: %s: %s: %s" anchor
    (level_name v.level) (kind_name v.kind) v.message;
  (match v.entity with
  | Some x -> Format.fprintf ppf " [entity %s]" (entity_name x)
  | None -> ());
  (match v.txns with
  | [] -> ()
  | ts ->
      Format.fprintf ppf " [txns %s]"
        (String.concat ", " (List.map txn_name ts)));
  match v.ops with
  | [] -> ()
  | ops ->
      Format.fprintf ppf "@,  witness: %s"
        (String.concat "; "
           (List.map
              (fun o ->
                if o.line > 0 then Printf.sprintf "#%d (line %d) %s" o.at o.line o.what
                else Printf.sprintf "#%d %s" o.at o.what)
              ops))

let render ?txn_name ?entity_name vs =
  String.concat ""
    (List.map
       (fun v -> Format.asprintf "@[<v>%a@]@." (pp ?txn_name ?entity_name) v)
       vs)

let to_json v =
  let module J = Dct_telemetry.Json in
  let op o =
    J.Obj [ ("at", J.Int o.at); ("line", J.Int o.line); ("what", J.String o.what) ]
  in
  J.Obj
    ([
       ("level", J.String (level_name v.level));
       ("kind", J.String (kind_name v.kind));
       ("txns", J.List (List.map (fun t -> J.Int t) v.txns));
     ]
    @ (match v.entity with Some x -> [ ("entity", J.Int x) ] | None -> [])
    @ [ ("ops", J.List (List.map op v.ops)); ("message", J.String v.message) ])
