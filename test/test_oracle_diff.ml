(* The differential harness for the cycle-detection backends.

   Random insert/delete/query traces (and traces induced by replaying
   generated workloads) are applied to every backend plus a reference
   Digraph; the backends must agree with each other and with ground
   truth on acyclicity answers, the reachability queries C1/C2 rely on,
   and reported cycle witnesses must be real cycles.  The adversarial
   corpus under [corpus/adversarial/] is additionally pinned through
   the [dct lint] / [dct audit] binary. *)

module Q = QCheck
module Intset = Dct_graph.Intset
module Digraph = Dct_graph.Digraph
module Traversal = Dct_graph.Traversal
module Oracle = Dct_graph.Cycle_oracle
module Gs = Dct_deletion.Graph_state
module Rules = Dct_deletion.Rules
module Policy = Dct_deletion.Policy
module Gen = Dct_workload.Generator
module Prng = Dct_workload.Prng

let check = Alcotest.(check bool)

(* --- random operation traces ------------------------------------- *)

type op =
  | Arc_attempt of int * int
  | Remove of [ `Bypass | `Exact ] * int
  | Query of int * int
  | Query_any of int * Intset.t

let trace_of_seed ?(n_nodes = 12) ?(n_ops = 80) seed =
  let rng = Prng.create ~seed in
  List.init n_ops (fun _ ->
      match Prng.int rng 10 with
      | 0 | 1 | 2 | 3 | 4 ->
          Arc_attempt (Prng.int rng n_nodes, Prng.int rng n_nodes)
      | 5 ->
          let mode = if Prng.int rng 2 = 0 then `Bypass else `Exact in
          Remove (mode, Prng.int rng n_nodes)
      | 6 | 7 -> Query (Prng.int rng n_nodes, Prng.int rng n_nodes)
      | _ ->
          let dsts =
            Intset.of_list
              (List.init (1 + Prng.int rng 3) (fun _ -> Prng.int rng n_nodes))
          in
          Query_any (Prng.int rng n_nodes, dsts))

(* Validate a reported witness against the reference graph: it must be
   a real path [dst ⇝ src], i.e. inserting src -> dst really closes a
   cycle through those very arcs. *)
let witness_ok reference ~src ~dst = function
  | [] -> false
  | [ v ] -> v = src && v = dst && Digraph.mem_node reference v
  | first :: _ as path ->
      first = dst
      && (let rec arcs = function
            | a :: (b :: _ as rest) ->
                Digraph.mem_arc reference ~src:a ~dst:b && arcs rest
            | [ last ] -> last = src
            | [] -> false
          in
          arcs path)

(* Apply one trace to a packed oracle of each backend and the reference
   graph, asserting agreement at every step.  Returns false (for qcheck)
   on the first divergence. *)
let run_differential trace =
  let o_c = Oracle.create Oracle.Closure in
  let o_t = Oracle.create Oracle.Topo in
  let reference = Digraph.create () in
  let ok = ref true in
  let expect what a b = if a <> b then (ignore what; ok := false) in
  let reference_remove mode v =
    if Digraph.mem_node reference v then begin
      (match mode with
      | `Exact -> ()
      | `Bypass ->
          let ps = Digraph.preds reference v
          and ss = Digraph.succs reference v in
          Intset.iter
            (fun p ->
              Intset.iter
                (fun s ->
                  if p <> s && p <> v && s <> v then
                    Digraph.add_arc reference ~src:p ~dst:s)
                ss)
            ps);
      Digraph.remove_node reference v
    end
  in
  List.iter
    (fun op ->
      if !ok then
        match op with
        | Arc_attempt (src, dst) ->
            (* Ensure both endpoints exist everywhere, as the schedulers
               do via begin_txn. *)
            Oracle.add_node o_c src;
            Oracle.add_node o_c dst;
            Oracle.add_node o_t src;
            Oracle.add_node o_t dst;
            Digraph.add_node reference src;
            Digraph.add_node reference dst;
            let truth =
              src = dst || Traversal.has_path reference ~src:dst ~dst:src
            in
            let wc_c = Oracle.would_cycle o_c ~src ~dst in
            let wc_t = Oracle.would_cycle o_t ~src ~dst in
            expect "would_cycle closure vs truth" wc_c truth;
            expect "would_cycle topo vs truth" wc_t truth;
            if truth then begin
              (* Both must produce a genuine witness cycle. *)
              (match Oracle.cycle_witness o_c ~src ~dst with
              | Some w -> expect "closure witness real" true (witness_ok reference ~src ~dst w)
              | None -> ok := false);
              match Oracle.cycle_witness o_t ~src ~dst with
              | Some w -> expect "topo witness real" true (witness_ok reference ~src ~dst w)
              | None -> ok := false
            end
            else begin
              expect "closure no witness" None (Oracle.cycle_witness o_c ~src ~dst);
              expect "topo no witness" None (Oracle.cycle_witness o_t ~src ~dst);
              Oracle.add_arc o_c ~src ~dst;
              Oracle.add_arc o_t ~src ~dst;
              Digraph.add_arc reference ~src ~dst
            end
        | Remove (mode, v) ->
            Oracle.remove_node o_c mode v;
            Oracle.remove_node o_t mode v;
            reference_remove mode v
        | Query (src, dst) ->
            let truth =
              Digraph.mem_node reference src
              && Traversal.has_path reference ~src ~dst
            in
            expect "reaches closure" (Oracle.reaches o_c ~src ~dst) truth;
            expect "reaches topo" (Oracle.reaches o_t ~src ~dst) truth
        | Query_any (src, dsts) ->
            let truth =
              Digraph.mem_node reference src
              && Intset.exists
                   (fun d -> Traversal.has_path reference ~src ~dst:d)
                   dsts
            in
            expect "reaches_any closure" (Oracle.reaches_any o_c ~src ~dsts) truth;
            expect "reaches_any topo" (Oracle.reaches_any o_t ~src ~dsts) truth)
    trace;
  (* Structural agreement at the end of the trace. *)
  if !ok then begin
    expect "closure check_against" true (Oracle.check_against o_c reference);
    expect "topo check_against" true (Oracle.check_against o_t reference);
    (* All-pairs reaches agreement — the exhaustive form of the probes
       C1/C2 issue. *)
    let ns = Digraph.nodes reference in
    Intset.iter
      (fun v ->
        Intset.iter
          (fun w ->
            expect "all-pairs"
              (Oracle.reaches o_c ~src:v ~dst:w)
              (Oracle.reaches o_t ~src:v ~dst:w))
          ns)
      ns
  end;
  !ok

let seed_arb = Q.make ~print:string_of_int Q.Gen.(1 -- 100_000)

let qcheck_random_traces =
  Q.Test.make ~name:"random traces: backends = ground truth" ~count:150
    seed_arb
    (fun seed -> run_differential (trace_of_seed seed))

let qcheck_dense_traces =
  Q.Test.make ~name:"dense traces: backends = ground truth" ~count:60 seed_arb
    (fun seed -> run_differential (trace_of_seed ~n_nodes:6 ~n_ops:120 seed))

(* --- traces replayed from generated workloads --------------------- *)

(* A Checked oracle raises Disagreement the moment the two backends
   diverge on any query or structural answer, so a clean replay IS the
   differential assertion. *)
let replay_checked ~policy schedule =
  let gs = Gs.create ~oracle:Oracle.Checked () in
  List.iter
    (fun s ->
      match Rules.apply gs s with
      | Rules.Ignored | Rules.Rejected | Rules.Accepted ->
          ignore (Policy.run policy gs))
    schedule;
  check "oracle survives" true
    (Oracle.check_against (Gs.oracle gs) (Gs.graph gs))

let test_workload_replay () =
  List.iter
    (fun seed ->
      let profile =
        { Gen.default with Gen.n_txns = 40; n_entities = 12; mpl = 6; seed }
      in
      List.iter
        (fun policy -> replay_checked ~policy (Gen.basic profile))
        [ Policy.No_deletion; Policy.Greedy_c1; Policy.Noncurrent ])
    [ 3; 17; 92 ]

let test_long_reader_replay () =
  (* Long readers pin large completed regions — deletions then carve
     bypass fans through the graph. *)
  let profile =
    {
      Gen.default with
      Gen.n_txns = 60;
      n_entities = 10;
      mpl = 8;
      long_readers = 2;
      long_reader_step = 0.2;
      seed = 29;
    }
  in
  replay_checked ~policy:Policy.Greedy_c1 (Gen.basic profile)

(* --- the adversarial corpus, through the library ------------------ *)

let corpus f = Filename.concat (Filename.concat "corpus" "adversarial") f

let parse_corpus_env f =
  let env = Dct_txn.Parse.create_env () in
  match Dct_txn.Parse.parse_file env (corpus f) with
  | Ok s -> (env, s)
  | Error e -> Alcotest.failf "parse %s: %s" f e

let parse_corpus f = snd (parse_corpus_env f)

let txn_id env name =
  match Dct_txn.Symtab.find env.Dct_txn.Parse.txns name with
  | Some id -> id
  | None -> Alcotest.failf "unknown transaction %s" name

let test_corpus_checked_replay () =
  List.iter
    (fun f ->
      let schedule = parse_corpus f in
      List.iter
        (fun policy -> replay_checked ~policy schedule)
        [ Policy.No_deletion; Policy.Greedy_c1 ])
    [
      "long_chain_backwards.sched";
      "near_cycle_deletion.sched";
      "delete_then_reuse.sched";
    ]

let test_chain_forces_reorders () =
  (* Every conflict arc of the chain schedule is a backward insertion
     for the incremental order: ranks follow begin order T1..T20, while
     all arcs run T(k+1) -> Tk. *)
  let env, schedule = parse_corpus_env "long_chain_backwards.sched" in
  let gs = Gs.create ~oracle:Oracle.Topo () in
  let outcomes = Rules.apply_all gs schedule in
  check "all accepted" true
    (List.for_all (fun o -> o = Rules.Accepted) outcomes);
  (* T20 ⇝ T1 through the whole chain; never the other way. *)
  let t1 = txn_id env "T1" and t20 = txn_id env "T20" in
  check "T20 reaches T1" true (Gs.reaches gs ~src:t20 ~dst:t1);
  check "T1 does not reach T20" false (Gs.reaches gs ~src:t1 ~dst:t20)

let test_near_cycle_rejects_then_deletes () =
  let env, schedule = parse_corpus_env "near_cycle_deletion.sched" in
  let gs = Gs.create ~oracle:Oracle.Checked () in
  let rejections = ref 0 in
  List.iter
    (fun s ->
      (match Rules.apply gs s with
      | Rules.Rejected -> incr rejections
      | Rules.Accepted | Rules.Ignored -> ());
      ignore (Policy.run Policy.Greedy_c1 gs))
    schedule;
  Alcotest.(check int) "exactly T1's final write rejected" 1 !rejections;
  (* The greedy policy purged the conflict sources: T3 ends with no
     incident arcs. *)
  check "T3 unconstrained" true
    (Intset.is_empty (Digraph.preds (Gs.graph gs) (txn_id env "T3")))

(* --- the adversarial corpus, through the binary ------------------- *)

let dct_exe = Filename.concat (Filename.concat ".." "bin") "dct.exe"

let run_cmd args =
  let out = Filename.temp_file "dct_oracle" ".out" in
  let code = Sys.command (Filename.quote_command dct_exe ~stdout:out args) in
  let ic = open_in out in
  let text =
    Fun.protect
      ~finally:(fun () ->
        close_in_noerr ic;
        Sys.remove out)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  (code, text)

let pins =
  (* (file, audited-steps, greedy deletion events, greedy deleted total) *)
  [
    ("long_chain_backwards.sched", 59, 20, 20);
    ("near_cycle_deletion.sched", 9, 2, 2);
    ("delete_then_reuse.sched", 13, 4, 4);
  ]

let test_corpus_lint_pinned () =
  if not (Sys.file_exists dct_exe) then
    Alcotest.skip ()
  else
    List.iter
      (fun (f, _, _, _) ->
        let code, text = run_cmd [ "lint"; "--strict"; "--machine"; corpus f ] in
        Alcotest.(check int) (f ^ " lints clean") 0 code;
        Alcotest.(check string) (f ^ " no findings") "" text)
      pins

let test_corpus_audit_pinned () =
  if not (Sys.file_exists dct_exe) then
    Alcotest.skip ()
  else
    List.iter
      (fun (f, steps, events, deleted) ->
        let code, text = run_cmd [ "audit"; "-p"; "none"; "-s"; corpus f ] in
        Alcotest.(check int) (f ^ " audit none exit") 0 code;
        Alcotest.(check string)
          (f ^ " audit none output")
          (Printf.sprintf
             "policy: none\n\
              audited %d steps, 0 deletion events (0 transactions deleted)\n\
              all decisions justified; accepted schedule is CSR\n"
             steps)
          text;
        let code, text = run_cmd [ "audit"; "-p"; "greedy"; "-s"; corpus f ] in
        Alcotest.(check int) (f ^ " audit greedy exit") 0 code;
        Alcotest.(check string)
          (f ^ " audit greedy output")
          (Printf.sprintf
             "policy: greedy-c1\n\
              audited %d steps, %d deletion events (%d transactions deleted)\n\
              all decisions justified; accepted schedule is CSR\n"
             steps events deleted)
          text)
      pins

let () =
  Alcotest.run "oracle_diff"
    [
      ( "random",
        List.map QCheck_alcotest.to_alcotest
          [ qcheck_random_traces; qcheck_dense_traces ] );
      ( "workload",
        [
          Alcotest.test_case "generated workloads under checked oracle" `Slow
            test_workload_replay;
          Alcotest.test_case "long readers under checked oracle" `Quick
            test_long_reader_replay;
        ] );
      ( "corpus",
        [
          Alcotest.test_case "checked replay" `Quick test_corpus_checked_replay;
          Alcotest.test_case "backward chain reorders" `Quick
            test_chain_forces_reorders;
          Alcotest.test_case "near-cycle rejected then deleted" `Quick
            test_near_cycle_rejects_then_deletes;
          Alcotest.test_case "lint pinned" `Quick test_corpus_lint_pinned;
          Alcotest.test_case "audit pinned" `Quick test_corpus_audit_pinned;
        ] );
    ]
