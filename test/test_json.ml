(* The one JSON layer's contracts:

   - QCheck: printing is a fixpoint of parse-then-print, over strings
     with quotes, backslashes, control and non-ASCII bytes, nested lists
     and objects, the int extremes and finite floats;
   - the compact spelling is pinned;
   - malformed documents are rejected, and the printer refuses
     non-finite floats;
   - Event.of_json keeps the integer-list strictness of the trace
     format. *)

module J = Dct_telemetry.Json
module E = Dct_telemetry.Event

let check = Alcotest.(check bool)

let gen_string =
  QCheck.Gen.(
    string_size ~gen:
      (frequency
         [
           (3, printable);
           (1, oneofl [ '"'; '\\'; '\n'; '\t'; '\r'; '\000'; '\031'; '\127' ]);
           (1, map Char.chr (int_range 0x80 0xff));
         ])
      (int_bound 12))

let gen_value =
  QCheck.Gen.(
    sized_size (int_bound 4)
    @@ fix (fun self depth ->
           let leaf =
             frequency
               [
                 (1, map (fun b -> J.Bool b) bool);
                 (2, map (fun i -> J.Int i) (oneof [ int; oneofl [ min_int; max_int; 0 ] ]));
                 (2, map (fun f -> J.Float f) (map (fun f -> if Float.is_finite f then f else 1.5) float));
                 (2, map (fun s -> J.String s) gen_string);
               ]
           in
           if depth = 0 then leaf
           else
             frequency
               [
                 (2, leaf);
                 (1, map (fun vs -> J.List vs) (list_size (int_bound 4) (self (depth - 1))));
                 ( 1,
                   map
                     (fun kvs -> J.Obj kvs)
                     (list_size (int_bound 4) (pair gen_string (self (depth - 1)))) );
               ]))

let prop_round_trip =
  QCheck.Test.make ~count:2000 ~name:"to_string is a fixpoint of of_string"
    (QCheck.make ~print:J.to_string gen_value)
    (fun v ->
      let s = J.to_string v in
      J.to_string (J.of_string s) = s)

let test_compact_spelling () =
  let pin v s = Alcotest.(check string) s s (J.to_string v) in
  pin (J.Obj [ ("a", J.Int 1); ("b", J.List [ J.Bool true; J.String "x\"y" ]) ])
    {|{"a":1,"b":[true,"x\"y"]}|};
  pin (J.Obj []) "{}";
  pin (J.List []) "[]";
  pin (J.List [ J.Float 0.5; J.Float 2.0; J.Float 1e20; J.Float (-0.0) ])
    "[0.5,2,1e+20,0]";
  pin (J.Int min_int) (string_of_int min_int);
  pin (J.String "tab\tnl\ncr\rnul\000") {|"tab\tnl\ncr\rnul\u0000"|};
  check "newlines are whitespace" true
    (J.of_string "{\"rows\":[\n{\"a\":1},\n{\"a\":2}\n]}\n"
    = J.Obj [ ("rows", J.List [ J.Obj [ ("a", J.Int 1) ]; J.Obj [ ("a", J.Int 2) ] ]) ])

let test_rejections () =
  List.iter
    (fun doc ->
      match J.of_string doc with
      | v -> Alcotest.failf "%S parsed as %s" doc (J.to_string v)
      | exception J.Bad _ -> ())
    [
      {|{"a":1} x|};
      {|{"a":"unterminated|};
      {|{"a":1,"b":[1,2]|};
      "nan";
      {|{"a":nan}|};
      {|{"a":1e999}|};
      {|{"a":null}|};
      String.make 600 '[' ^ String.make 600 ']';
      "";
    ];
  List.iter
    (fun f ->
      match J.to_string (J.List [ J.Float f ]) with
      | s -> Alcotest.failf "printed a non-finite float as %s" s
      | exception Invalid_argument _ -> ())
    [ nan; infinity; neg_infinity ]

let test_event_strictness () =
  let line =
    {|{"ev":"step","i":1,"kind":"read","txn":3,"reads":[1.5],"writes":[]}|}
  in
  check "float in an integer list rejected" true
    (Result.is_error (E.of_json line));
  check "booleans and nested objects under ignored keys parse" true
    (Result.is_ok
       (E.of_json
          {|{"ev":"restart","txn":5,"attempt":2,"vendor":{"retry":true,"tags":["a"]}}|}))

let () =
  Alcotest.run "json"
    [
      ( "json",
        [
          Alcotest.test_case "compact spelling" `Quick test_compact_spelling;
          Alcotest.test_case "rejections" `Quick test_rejections;
          Alcotest.test_case "event strictness" `Quick test_event_strictness;
          QCheck_alcotest.to_alcotest prop_round_trip;
        ] );
    ]
