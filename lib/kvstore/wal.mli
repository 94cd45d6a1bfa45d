(** Write-ahead log with deletion-driven truncation.

    The modern shadow of the paper's problem is log truncation: a
    recovery log can drop its prefix only when no surviving transaction
    needs it.  This module materialises the connection — a {!Storage}
    appends begin/write/commit/abort records, and whenever the deletion
    policy forgets transactions, the log advances its low-water mark to
    the longest prefix containing only forgotten (or aborted) ones.

    The retained records form a FIFO: {!length} is O(1), and
    {!truncate_to} costs O(1 + records dropped), however many records a
    pinned transaction holds behind it.

    Records carry monotonically increasing LSNs.  [replay] reconstructs
    a {!Store} from a checkpointed store plus the surviving suffix —
    tested to agree with the live store byte for byte. *)

type record =
  | Begin of { txn : int }
  | Write of { txn : int; entity : int; value : int }
  | Commit of { txn : int }
  | Abort of { txn : int }

type t

val create : unit -> t

val append : t -> record -> int
(** Returns the record's LSN (starting at 1). *)

val length : t -> int
(** Records currently retained (after truncation); O(1). *)

val total_appended : t -> int

val truncated : t -> int
(** Records dropped so far. *)

val low_water_mark : t -> int
(** LSN up to (and including) which the log has been discarded. *)

val truncate_to : t -> resident:(int -> bool) -> int
(** Advance the low-water mark over the longest prefix whose
    transactions are all non-resident, i.e. forgotten by the scheduler
    (committed-and-deleted) or aborted.  Returns how many records were
    dropped.  A record of transaction [t] with [resident t = true] stops
    the scan.

    Truncate only after a step's outcome record ([Commit] or [Abort]).
    A transaction deleted in its own commit step is already
    non-resident: truncating before its [Commit] is journaled would drop
    its writes with no commit for the checkpoint to apply, and recovery
    would lose them. *)

val records : t -> (int * record) list
(** Retained records, oldest first, with their LSNs. *)

val replay : t -> into:Store.t -> unit
(** Apply the retained records to a store: writes of transactions whose
    [Commit] appears in the retained suffix are installed; writes of
    aborted or unfinished transactions are not.  (Writes whose
    transaction committed {e before} the low-water mark are assumed to
    be in the checkpoint image, as their records are gone.) *)

val pp_record : Format.formatter -> record -> unit
