(** The one JSON layer: a value type, a compact printer and a parser.

    Every JSON document the libraries, the CLI and the bench sweeps
    write outside the trace hot path goes through {!to_string} — the
    [--json] reports of [dct simulate], [serve], [bench-net] and
    [check], the metrics registry, and the [BENCH_*.json] sweep files —
    and every JSON document they read goes through {!of_string}, trace
    lines included ({!Event.of_json}).
    [Event.to_json] keeps hand-written formats for speed but shares
    {!escape}.

    The printer is compact ([{"k":v,...}], no whitespace) and has one
    float rule, [%.6g]; it refuses non-finite floats, so a [nan] or
    [inf] can never reach a file.  The parser accepts what the printer
    writes — objects, lists, strings, integers, floats and booleans,
    with spaces, tabs and newlines as whitespace — and for every value
    [v], [to_string (of_string (to_string v)) = to_string v].  Outside
    that grammar: [null], [\u] escapes above U+007F, non-finite
    numbers and nesting deeper than 512 are errors. *)

type t =
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list  (** members in document order *)

exception Bad of string
(** A parse error, or an accessor applied to a value of the wrong
    shape. *)

(** {1 Printing} *)

val escape : string -> string
(** The body of a JSON string literal: quote, backslash and control
    bytes escaped, every other byte (non-ASCII included) verbatim. *)

val to_string : t -> string
(** Compact: no whitespace anywhere.  Floats print with [%.6g] (so a
    float with an integral value prints like an integer).
    @raise Invalid_argument on a NaN or infinite float. *)

(** {1 Parsing} *)

val of_string : string -> t
(** Exactly one value, optionally surrounded by whitespace.  Numbers
    without a fraction or exponent that fit an [int] read as [Int].
    @raise Bad on anything else, with a message naming the problem. *)

(** {1 Accessors}

    Each takes a member key and an object, and raises {!Bad} naming the
    key when the member is missing or has another type. *)

val find : string -> t -> t option
(** The first member named [key]; [None] when absent or not an
    object. *)

val int : string -> t -> int
val float : string -> t -> float
(** An [Int] member reads as its float value. *)

val string : string -> t -> string
val bool : string -> t -> bool
val list : string -> t -> t list

val ints : string -> t -> int list
(** A list of integers; a float element is an error. *)
