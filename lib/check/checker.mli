(** The streaming history checker: orchestration, reporting, and the
    exact cross-check of [--checked] mode.

    A checker runs exactly {e one} analysis, selected by [level].  The
    levels are deliberately not cumulative: multi-write scheduler
    histories legally contain dirty reads (the paper's model exposes
    intermediate writes) yet must pass [ser], so each level answers
    only its own question — [atomicity] the vector-clock analysis,
    [rc]/[ra]/[causal] the polynomial Biswas–Enea reductions, [ser] the
    conflict-graph acyclicity of the committed projection.

    Feeding is streaming: O(1) amortized per operation, memory linear
    in live transactions (plus touched entities / resident graph
    nodes) — a 10^6-event trace never materializes.

    {2 Checked mode}

    With [checked = true] and [level = Serializable] the checker
    buffers the first [prefix_cap] operations (stopping early at the
    first [Abort], where the streaming engine's deliberate
    pending-discard semantics and an exact committed-projection check
    legitimately diverge) and, at {!finalize}, compares two verdicts on
    that prefix: a fresh streaming run, and the full pairwise conflict
    graph on the exact bitset {!Dct_graph.Closure} (cycles tolerated,
    verdict = some node reaches itself).  On abort-free prefixes the
    two are provably equal — the streaming per-entity arcs are a
    transitive reduction of the full conflict relation — so any
    divergence is a checker bug and is reported as such. *)

type t

val create :
  ?oracle:Dct_graph.Cycle_oracle.backend ->
  ?tracer:Dct_telemetry.Tracer.t ->
  ?checked:bool ->
  ?prefix_cap:int ->
  ?max_witness:int ->
  level:Violation.level ->
  unit ->
  t
(** [oracle] (default [Topo]) selects the [ser] cycle backend; the
    [tracer]'s probe times its queries and its metrics registry gets
    the [check.*] counters and gauges.  [prefix_cap] (default 4096)
    bounds the checked-mode buffer; [max_witness] (default 1000) caps
    the retained violation records — counting continues past it. *)

val feed : t -> History.lop -> unit

type report = {
  level : Violation.level;
  ops : int;  (** operations fed *)
  txns : int;  (** distinct transactions seen *)
  commits : int;
  aborts : int;
  live_at_end : int;
  max_live : int;
  max_resident : int;  (** peak graph residency ([ser]) or live txns *)
  total : int;  (** total violations found *)
  violations : Violation.t list;  (** retained witnesses, stream order;
                                      capped at [max_witness] *)
  truncated : bool;  (** [total > List.length violations] *)
  checked_ops : int;  (** prefix length cross-checked (0: not checked) *)
  divergence : string option;  (** checked-mode disagreement, if any *)
}

val finalize : t -> report
(** Flush pending [ser] witnesses, run the checked-mode cross-check,
    and close the books.  The checker must not be fed afterwards. *)

val passed : report -> bool
(** No violations and no divergence. *)

val exact_ser_verdict : History.lop list -> bool
(** The reference verdict: the full pairwise conflict graph of the
    committed projection (aborted transactions excluded, live ones
    taken at face value) has a cycle.  Quadratic per entity — for
    small histories and the differential tests. *)

val streaming_ser_verdict :
  ?oracle:Dct_graph.Cycle_oracle.backend -> History.lop list -> bool
(** A fresh streaming [ser] run over [ops] (with {!finalize}'s pending
    flush): [true] iff it reports a violation. *)

(** {1 Convenience front-ends} *)

val check_schedule :
  ?oracle:Dct_graph.Cycle_oracle.backend ->
  ?tracer:Dct_telemetry.Tracer.t ->
  ?checked:bool ->
  level:Violation.level ->
  Dct_txn.Schedule.t ->
  report

val check_ops :
  ?oracle:Dct_graph.Cycle_oracle.backend ->
  ?tracer:Dct_telemetry.Tracer.t ->
  ?checked:bool ->
  level:Violation.level ->
  History.lop list ->
  report

val check_file :
  ?oracle:Dct_graph.Cycle_oracle.backend ->
  ?tracer:Dct_telemetry.Tracer.t ->
  ?checked:bool ->
  level:Violation.level ->
  string ->
  (report * History.file_stats, string) result
(** Streams the file through {!History.iter_file}. *)

(** {1 Rendering} *)

val render :
  ?txn_name:(int -> string) ->
  ?entity_name:(int -> string) ->
  report ->
  string
(** Human-readable: one summary line, then the witnesses (via
    {!Violation.render}), then the checked-mode line when it ran. *)

val to_json : ?stats:History.file_stats -> report -> Dct_telemetry.Json.t
(** One JSON object: summary fields, the violations array, and the
    file/adapter statistics when provided. *)
