(** The typed event vocabulary of a scheduler run.

    One trace line per observable decision, serialized as one JSON
    object per line (JSONL).  The vocabulary is deliberately flat —
    ints, strings and int lists only — so the telemetry layer sits
    {e below} the graph/transaction libraries and every layer above can
    emit into it.  Steps are carried as a neutral {!step} record;
    [Dct_txn.Step.to_telemetry] / [of_telemetry] convert losslessly.

    [to_json] and [of_json] round-trip: for every event [e],
    [of_json (to_json e) = Ok e] (tested in [test_telemetry.ml]). *)

type step = {
  kind : string;  (** begin | begin_declared | read | write | write_one | finish *)
  txn : int;
  reads : int list;
  writes : int list;
}

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
      (** resident graph-substrate bytes at the checkpoint; [0] when the
          producer predates the gauge (tolerated on decode) *)
}

type t =
  | Step_submitted of { index : int; step : step }
      (** A step entered a scheduler; [index] is the scheduler's 1-based
          step counter. *)
  | Decision of { index : int; txn : int; outcome : string; reason : string }
      (** The scheduler's verdict on step [index].  [outcome] is the
          rendering of {!Dct_sched.Scheduler_intf.pp_outcome}; [reason]
          is empty for plain accepts. *)
  | Deletion_attempted of { policy : string; candidates : int list }
      (** The deletion policy examined [candidates] (completed,
          present). *)
  | Deletion_ok of { policy : string; deleted : int list }
      (** The policy removed [deleted] via the reduction D(G, T). *)
  | Deletion_blocked of { policy : string; txn : int; condition : string }
      (** [txn] was a candidate but the named condition (c1, c2-max,
          c3, c4, noncurrent) refused it. *)
  | Oracle_query of { op : string; backend : string; ns : float }
      (** One timed cycle-oracle operation.  Under the [Checked]
          backend each sub-backend reports separately, so checked runs
          carry closure + topo samples per query. *)
  | Cycle_rejected of { txn : int; witness : int list }
      (** A step of [txn] was refused because its arcs would close a
          cycle; [witness] is a path proving it (empty if not
          computed). *)
  | Restart of { txn : int; attempt : int }
      (** The restart harness re-enqueued original transaction [txn]
          for its [attempt]-th execution. *)
  | Txn_aborted of { txn : int; reason : string }
      (** [txn] was aborted outside any step's decision, before the GC
          round that abort triggers.  The engine writes [reason]
          ["client"] for an explicit client abort and for a
          disconnected client's orphans.  The auditor replays it as
          [Graph_state.abort_txn]; the history checker reads it as an
          abort. *)
  | Checkpoint_stats of stats_snapshot
      (** Periodic residency/throughput snapshot from the driver. *)

val equal : t -> t -> bool

val kind : t -> string
(** The JSONL ["ev"] tag of the event. *)

val to_json : t -> string
(** One line, no trailing newline. *)

val of_json : string -> (t, string) result
(** Parses one line with {!Json.of_string}.  Members the event does not
    use may hold any JSON value; a missing member, a member of the
    wrong type (a float in an int list included) or an unknown ["ev"]
    is an error. *)

val pp : Format.formatter -> t -> unit
