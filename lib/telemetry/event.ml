type step = { kind : string; txn : int; reads : int list; writes : int list }

type stats_snapshot = {
  at_step : int;
  resident_txns : int;
  resident_arcs : int;
  active_txns : int;
  committed : int;
  aborted : int;
  deleted : int;
  delayed : int;
  resident_bytes : int;
}

type t =
  | Step_submitted of { index : int; step : step }
  | Decision of { index : int; txn : int; outcome : string; reason : string }
  | Deletion_attempted of { policy : string; candidates : int list }
  | Deletion_ok of { policy : string; deleted : int list }
  | Deletion_blocked of { policy : string; txn : int; condition : string }
  | Oracle_query of { op : string; backend : string; ns : float }
  | Cycle_rejected of { txn : int; witness : int list }
  | Restart of { txn : int; attempt : int }
  | Txn_aborted of { txn : int; reason : string }
  | Checkpoint_stats of stats_snapshot

let equal (a : t) (b : t) = a = b

(* --- encoding ----------------------------------------------------- *)

let escape = Json.escape

let ints xs = "[" ^ String.concat "," (List.map string_of_int xs) ^ "]"

let to_json = function
  | Step_submitted { index; step } ->
      Printf.sprintf
        "{\"ev\":\"step\",\"i\":%d,\"kind\":\"%s\",\"txn\":%d,\"reads\":%s,\"writes\":%s}"
        index (escape step.kind) step.txn (ints step.reads) (ints step.writes)
  | Decision { index; txn; outcome; reason } ->
      Printf.sprintf
        "{\"ev\":\"decision\",\"i\":%d,\"txn\":%d,\"outcome\":\"%s\",\"reason\":\"%s\"}"
        index txn (escape outcome) (escape reason)
  | Deletion_attempted { policy; candidates } ->
      Printf.sprintf
        "{\"ev\":\"del_attempt\",\"policy\":\"%s\",\"candidates\":%s}"
        (escape policy) (ints candidates)
  | Deletion_ok { policy; deleted } ->
      Printf.sprintf "{\"ev\":\"del_ok\",\"policy\":\"%s\",\"deleted\":%s}"
        (escape policy) (ints deleted)
  | Deletion_blocked { policy; txn; condition } ->
      Printf.sprintf
        "{\"ev\":\"del_blocked\",\"policy\":\"%s\",\"txn\":%d,\"condition\":\"%s\"}"
        (escape policy) txn (escape condition)
  | Oracle_query { op; backend; ns } ->
      Printf.sprintf
        "{\"ev\":\"oracle\",\"op\":\"%s\",\"backend\":\"%s\",\"ns\":%.3f}"
        (escape op) (escape backend) ns
  | Cycle_rejected { txn; witness } ->
      Printf.sprintf "{\"ev\":\"cycle_rejected\",\"txn\":%d,\"witness\":%s}"
        txn (ints witness)
  | Restart { txn; attempt } ->
      Printf.sprintf "{\"ev\":\"restart\",\"txn\":%d,\"attempt\":%d}" txn
        attempt
  | Txn_aborted { txn; reason } ->
      Printf.sprintf "{\"ev\":\"txn_aborted\",\"txn\":%d,\"reason\":\"%s\"}"
        txn (escape reason)
  | Checkpoint_stats s ->
      Printf.sprintf
        "{\"ev\":\"checkpoint\",\"i\":%d,\"resident_txns\":%d,\"resident_arcs\":%d,\"active_txns\":%d,\"committed\":%d,\"aborted\":%d,\"deleted\":%d,\"delayed\":%d,\"resident_bytes\":%d}"
        s.at_step s.resident_txns s.resident_arcs s.active_txns s.committed
        s.aborted s.deleted s.delayed s.resident_bytes

(* --- decoding ----------------------------------------------------- *)

let of_json line =
  match
    let o = Json.of_string line in
    let int k = Json.int k o and str k = Json.string k o and ints k = Json.ints k o in
    match str "ev" with
    | "step" ->
        Step_submitted
          {
            index = int "i";
            step =
              {
                kind = str "kind";
                txn = int "txn";
                reads = ints "reads";
                writes = ints "writes";
              };
          }
    | "decision" ->
        Decision
          {
            index = int "i";
            txn = int "txn";
            outcome = str "outcome";
            reason = str "reason";
          }
    | "del_attempt" ->
        Deletion_attempted { policy = str "policy"; candidates = ints "candidates" }
    | "del_ok" -> Deletion_ok { policy = str "policy"; deleted = ints "deleted" }
    | "del_blocked" ->
        Deletion_blocked
          { policy = str "policy"; txn = int "txn"; condition = str "condition" }
    | "oracle" ->
        Oracle_query
          { op = str "op"; backend = str "backend"; ns = Json.float "ns" o }
    | "cycle_rejected" ->
        Cycle_rejected { txn = int "txn"; witness = ints "witness" }
    | "restart" -> Restart { txn = int "txn"; attempt = int "attempt" }
    | "txn_aborted" -> Txn_aborted { txn = int "txn"; reason = str "reason" }
    | "checkpoint" ->
        Checkpoint_stats
          {
            at_step = int "i";
            resident_txns = int "resident_txns";
            resident_arcs = int "resident_arcs";
            active_txns = int "active_txns";
            committed = int "committed";
            aborted = int "aborted";
            deleted = int "deleted";
            delayed = int "delayed";
            (* absent in pre-gauge traces: decode as 0 so the pinned
               corpus keeps parsing *)
            resident_bytes =
              (if Json.find "resident_bytes" o = None then 0
               else int "resident_bytes");
          }
    | other -> raise (Json.Bad (Printf.sprintf "unknown event kind %S" other))
  with
  | ev -> Ok ev
  | exception Json.Bad m -> Error m

let kind = function
  | Step_submitted _ -> "step"
  | Decision _ -> "decision"
  | Deletion_attempted _ -> "del_attempt"
  | Deletion_ok _ -> "del_ok"
  | Deletion_blocked _ -> "del_blocked"
  | Oracle_query _ -> "oracle"
  | Cycle_rejected _ -> "cycle_rejected"
  | Restart _ -> "restart"
  | Txn_aborted _ -> "txn_aborted"
  | Checkpoint_stats _ -> "checkpoint"

let pp ppf e = Format.pp_print_string ppf (to_json e)
