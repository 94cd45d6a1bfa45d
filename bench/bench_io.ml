(* The one way a sweep records its results.

   A sweep named [s] writes BENCH_[s].json, or BENCH_[s].smoke.json for
   its smoke variant, so no run overwrites another's file.  The layout
   is fixed: one header line, then one row per line,

     {"bench":s,"version":3,"smoke":b,"host_cores":n,"clock":c,"rows":[
     {...},
     {...}
     ]}

   printed by Dct_telemetry.Json, which refuses NaN and infinities.
   Version 3 is this shared layout; the sweeps' own writers stamped 1
   or 2.
   The file is then re-read and parsed; the parsed value must print to
   the same text as the value written, and the sweep's checks run on
   the parsed rows. *)

module Json = Dct_telemetry.Json
module Probe = Dct_telemetry.Probe

let host_cores = Domain.recommended_domain_count ()

(* Seconds taken by [f ()], on [Probe.now_ns]'s clock. *)
let time f =
  let t0 = Probe.now_ns () in
  let r = f () in
  ((Probe.now_ns () -. t0) /. 1e9, r)

(* A named condition on the parsed rows. *)
type check = string * (Json.t list -> bool)

let each p rows = List.for_all p rows

let file_name ~sweep ~smoke =
  Printf.sprintf "BENCH_%s%s.json" sweep (if smoke then ".smoke" else "")

(* The file's text: the header members, then one row per line. *)
let layout header rows =
  let head = Json.to_string (Json.Obj header) in
  String.sub head 0 (String.length head - 1)
  ^ ",\"rows\":[\n"
  ^ String.concat ",\n" (List.map Json.to_string rows)
  ^ "\n]}\n"

(* The failed conditions of the re-read [text]. *)
let validate ~sweep ~written ~checks text =
  let parsed = Json.of_string text in
  if Json.to_string parsed <> Json.to_string written then
    [ "reads back as the value written" ]
  else
    let rows = Json.list "rows" parsed in
    List.filter_map
      (fun (what, ok) ->
        match ok rows with
        | true -> None
        | false -> Some what
        | exception Json.Bad m -> Some (what ^ " (" ^ m ^ ")"))
      (("has its bench header", fun _ -> Json.string "bench" parsed = sweep)
      :: checks)

(* Writes and validates the file; exits 1 when a condition fails or the
   sweep counted [failures] of its own. *)
let emit ~sweep ~smoke ~(checks : check list) ~failures rows =
  let file = file_name ~sweep ~smoke in
  let header =
    [
      ("bench", Json.String sweep);
      ("version", Json.Int 3);
      ("smoke", Json.Bool smoke);
      ("host_cores", Json.Int host_cores);
      ("clock", Json.String Probe.clock);
    ]
  in
  let errors =
    match
      let text = layout header rows in
      Out_channel.with_open_bin file (fun oc -> output_string oc text);
      validate ~sweep ~checks
        ~written:(Json.Obj (header @ [ ("rows", Json.List rows) ]))
        (In_channel.with_open_bin file In_channel.input_all)
    with
    | errors -> errors
    | exception Json.Bad m -> [ "parses (" ^ m ^ ")" ]
    | exception Invalid_argument m -> [ "prints (" ^ m ^ ")" ]
  in
  if errors = [] then Printf.printf "wrote %s (validated)\n" file
  else
    List.iter (Printf.eprintf "%s sweep: %s fails: %s\n" sweep file) errors;
  if errors <> [] || failures > 0 then exit 1
