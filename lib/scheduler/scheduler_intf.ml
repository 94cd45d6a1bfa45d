(** The common vocabulary of all schedulers.

    Every scheduler consumes steps and reports one of four outcomes.
    [Delayed] only occurs in blocking schedulers (predeclared
    conflict-graph, 2PL): the step was queued and will be retried
    internally; the caller must not resubmit it.  A [stats] snapshot
    exposes the memory-residency counters the experiments compare. *)

type outcome =
  | Accepted
  | Rejected  (** the transaction was aborted (and, for 2PL/TO, may be restarted by the driver) *)
  | Delayed   (** queued inside the scheduler; retried automatically *)
  | Ignored   (** step of an already-aborted transaction *)

let outcome_name = function
  | Accepted -> "accepted"
  | Rejected -> "rejected"
  | Delayed -> "delayed"
  | Ignored -> "ignored"

let pp_outcome ppf o = Format.pp_print_string ppf (outcome_name o)

type stats = {
  resident_txns : int;  (** transactions currently remembered *)
  resident_arcs : int;  (** arcs (or locks) currently held *)
  active_txns : int;
  committed_total : int;
  aborted_total : int;
  deleted_total : int;  (** transactions forgotten by the deletion policy *)
  delayed_now : int;    (** steps currently waiting (blocking schedulers) *)
  resident_bytes : int;
      (** deterministic byte estimate of the resident graph substrate
          ({!Dct_deletion.Graph_state.resident_bytes}); [0] for
          schedulers that keep no conflict graph *)
}

let zero_stats =
  {
    resident_txns = 0;
    resident_arcs = 0;
    active_txns = 0;
    committed_total = 0;
    aborted_total = 0;
    deleted_total = 0;
    delayed_now = 0;
    resident_bytes = 0;
  }

(** First-class scheduler handle, used by the simulation driver so that
    heterogeneous schedulers can run under one loop. *)
type handle = {
  name : string;
  step : Dct_txn.Step.t -> outcome;
  stats : unit -> stats;
  drain : unit -> int;
      (** Give a blocking scheduler a chance to run queued steps to
          completion at end of input; returns how many it flushed. *)
  aborted_txn : int -> bool;
      (** Was this transaction ever aborted?  Blocking schedulers can
          victimise a transaction without any of its own submissions
          returning [Rejected]; restart harnesses use this to classify
          final outcomes. *)
}

(** The one emitter of a decision's telemetry, shared by {!trace_steps}
    and the engine's coordinator: [traced_decision tracer ~index step
    decide] runs [decide ()], the scheduler's verdict on [step], and
    with an enabled tracer emits [Step_submitted] before it and
    [Decision] after it, and bumps the ["outcome.<outcome>"] counter.
    The reasons are the deciding scheduler's vocabulary:
    [reject_reason] for [Rejected] (e.g. ["cycle"]), [delay_reason] for
    [Delayed], [ignore_reason] for [Ignored].  With a disabled tracer it
    is [decide ()]: no event, no string.  Tracing observes, never
    steers. *)
let traced_decision ?(reject_reason = "cycle")
    ?(delay_reason = "future-conflict-wait")
    ?(ignore_reason = "already-aborted") tracer ~index step decide =
  let module T = Dct_telemetry.Tracer in
  if not (T.enabled tracer) then decide ()
  else begin
    T.event tracer (fun () ->
        Dct_telemetry.Event.Step_submitted
          { index; step = Dct_txn.Step.to_telemetry step });
    let o = decide () in
    let outcome = outcome_name o in
    let reason =
      match o with
      | Accepted -> ""
      | Rejected -> reject_reason
      | Delayed -> delay_reason
      | Ignored -> ignore_reason
    in
    T.event tracer (fun () ->
        Dct_telemetry.Event.Decision
          { index; txn = Dct_txn.Step.txn step; outcome; reason });
    T.incr tracer ("outcome." ^ outcome);
    o
  end

(** Wrap a handle so every submission goes through {!traced_decision},
    numbered by a 1-based step counter.  Returns the handle unchanged
    for a disabled tracer, so the untraced path stays zero-cost. *)
let trace_steps ?reject_reason ?delay_reason ?ignore_reason tracer h =
  if not (Dct_telemetry.Tracer.enabled tracer) then h
  else begin
    let index = ref 0 in
    let step s =
      incr index;
      traced_decision ?reject_reason ?delay_reason ?ignore_reason tracer
        ~index:!index s (fun () -> h.step s)
    in
    { h with step }
  end

(** Subscribe [storage] to [gs]'s removals, once, at creation, so that
    every abort and every deletion, whatever removed it, reaches the
    store.  The caller applies only accepted effects and ends each step
    with {!Dct_kv.Storage.truncate}. *)
let attach_storage storage gs =
  Dct_deletion.Graph_state.on_mutation gs (function
    | Dct_deletion.Graph_state.Txn_removed { txn; reduction; _ } ->
        Dct_kv.Storage.remove storage ~txn ~aborted:(not reduction)
    | _ -> ())
