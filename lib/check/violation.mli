(** The typed verdict vocabulary of the history checker.

    Every analysis reports findings in this one shape so the CLI, the
    differential tests and the JSON renderer share a single pipeline
    (mirroring {!Dct_analysis.Lint.finding} for schedules).  A finding
    names the consistency {!level} whose axiom is broken, the anomaly
    {!kind}, the offending transactions, the entity (when one is
    involved) and the witness operations — 1-based indices into the
    normalized operation stream, with source lines when the history
    came from a file. *)

(** The consistency levels of the checker, weakest to strongest in the
    Biswas–Enea hierarchy ([Read_committed] ⊂ [Read_atomic] ⊂ [Causal]
    ⊂ [Serializable]); [Atomicity] is the Mathur–Viswanathan-style
    vector-clock analysis (dirty reads/writes plus lost updates) and
    sits beside the hierarchy rather than inside it. *)
type level = Atomicity | Read_committed | Read_atomic | Causal | Serializable

val all_levels : level list

val level_name : level -> string
(** ["atomicity" | "rc" | "ra" | "causal" | "ser"] — the [--level]
    spellings. *)

val level_of_string : string -> (level, string) result
(** Inverse of {!level_name}; case-insensitive, accepts the long forms
    [read-committed], [read-atomic], [serializable]. *)

(** The anomaly detected.  Each kind belongs to exactly one level. *)
type kind =
  | Dirty_read      (** read of an entity with an uncommitted write *)
  | Dirty_write     (** overwrite of an entity with an uncommitted write *)
  | Lost_update     (** commit of a write over a version read before an
                        intervening committed write *)
  | Fractured_read  (** two reads observing a committed transaction's
                        atomic write set partially *)
  | Unstable_read   (** one transaction observing two different versions
                        of the same entity *)
  | Causal_cycle    (** a cycle in (session ∪ reads-from) order *)
  | Conflict_cycle  (** a cycle in the conflict graph of the committed
                        projection — non-serializability *)

val kind_name : kind -> string
val kind_level : kind -> level

type op_ref = {
  at : int;  (** 1-based index into the operation stream *)
  line : int;  (** source line, 0 when unknown *)
  what : string;  (** e.g. ["w T3 x"] *)
}

type t = {
  level : level;
  kind : kind;
  txns : int list;  (** offending transactions, witness order *)
  entity : int option;
  ops : op_ref list;  (** witness operations, oldest first *)
  message : string;
}

val compare_at : t -> t -> int
(** Order by first witness operation (report order). *)

val pp :
  ?txn_name:(int -> string) ->
  ?entity_name:(int -> string) ->
  Format.formatter ->
  t ->
  unit
(** [op N: kind: message (witness: ...)] — one line plus witness ops. *)

val render :
  ?txn_name:(int -> string) -> ?entity_name:(int -> string) -> t list -> string

val to_json : t -> Dct_telemetry.Json.t
(** One JSON object, machine-stable field order. *)
