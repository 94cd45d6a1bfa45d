(* The benchmark harness.

     dune exec bench/main.exe                -- every experiment + timings
     dune exec bench/main.exe -- ex5         -- one experiment table
     dune exec bench/main.exe -- bechamel    -- only the Bechamel suite

   EX1-EX10 print the tables/series documented in EXPERIMENTS.md through
   Dct_sim.Experiments; the Bechamel suite below provides statistically
   robust timings for the complexity claims (EX11) and per-scheduler
   step costs, one Test.make per measured quantity. *)

open Bechamel
open Toolkit

module Intset = Dct_graph.Intset
module Gs = Dct_deletion.Graph_state
module C1 = Dct_deletion.Condition_c1
module C2 = Dct_deletion.Condition_c2
module Max = Dct_deletion.Max_deletion
module Policy = Dct_deletion.Policy
module Rules = Dct_deletion.Rules
module Gen = Dct_workload.Generator
module E = Dct_sim.Experiments

let rec take n = function
  | [] -> []
  | _ when n = 0 -> []
  | x :: tl -> x :: take (n - 1) tl

(* --- prepared inputs (built once, outside the timed region) --- *)

let mid_flight_state ~n_txns =
  let profile =
    {
      Gen.default with
      Gen.n_txns;
      n_entities = 32;
      mpl = 8;
      long_readers = 2;
      long_reader_step = 0.15;
      seed = 51;
    }
  in
  let schedule = Gen.basic profile in
  let prefix = take (List.length schedule * 9 / 10) schedule in
  let gs = Gs.create () in
  ignore (Rules.apply_all gs prefix);
  gs

let bench_schedule =
  Gen.basic
    { Gen.default with Gen.n_txns = 150; n_entities = 24; mpl = 8; seed = 5 }

let bench_schedule_mw =
  Gen.multiwrite
    { Gen.default with Gen.n_txns = 150; n_entities = 24; mpl = 8; seed = 5 }

let bench_schedule_pre =
  Gen.predeclared
    { Gen.default with Gen.n_txns = 150; n_entities = 24; mpl = 8; seed = 5 }

(* A random arc stream over 64 nodes for the cycle-detector ablation;
   insertions that would close a cycle are skipped, as the scheduler
   does. *)
let arc_stream =
  let rng = Dct_workload.Prng.create ~seed:8 in
  List.init 400 (fun _ ->
      (Dct_workload.Prng.int rng 64, Dct_workload.Prng.int rng 64))

let gs200 = mid_flight_state ~n_txns:200
let gs200_completed = Gs.completed_txns gs200
let gs200_eligible = C1.eligible gs200
let cover_instance =
  Dct_npc.Set_cover.make ~universe:8
    [ [ 0; 1; 2; 3 ]; [ 4; 5; 6; 7 ]; [ 0; 1; 4; 5; 2 ]; [ 3; 6; 7 ]; [ 2; 5 ] ]
let cover_gs, _ = Dct_npc.Reduction_cover.graph_state cover_instance
let sat_formula =
  Dct_npc.Sat.three_sat ~nvars:3 [ [ 1; 2; 3 ]; [ -1; -2; -3 ]; [ 1; -2; 3 ] ]

(* --- the Test.make catalogue --- *)

let test_c1_single =
  Test.make ~name:"ex11/c1-single-check"
    (Staged.stage (fun () ->
         Intset.iter (fun ti -> ignore (C1.holds gs200 ti)) gs200_completed))

let test_c2_eligible =
  Test.make ~name:"ex11/c2-whole-eligible"
    (Staged.stage (fun () -> ignore (C2.holds gs200 gs200_eligible)))

let test_greedy_plan =
  Test.make ~name:"ex11/greedy-plan"
    (Staged.stage (fun () -> ignore (Max.greedy gs200)))

let replay_arcs_naive () =
  let g = Dct_graph.Digraph.create () in
  List.iter
    (fun (src, dst) ->
      if
        src <> dst
        && not (Dct_graph.Traversal.has_path g ~src:dst ~dst:src)
      then Dct_graph.Digraph.add_arc g ~src ~dst)
    arc_stream

let replay_arcs_pk () =
  let o = Dct_graph.Topo_order.create () in
  List.iter
    (fun (src, dst) ->
      if not (Dct_graph.Topo_order.would_cycle o ~src ~dst) then
        Dct_graph.Topo_order.add_arc o ~src ~dst)
    arc_stream

let replay_arcs_closure () =
  let c = Dct_graph.Closure.create () in
  List.iter
    (fun (src, dst) ->
      if not (Dct_graph.Closure.would_cycle c ~src ~dst) then
        Dct_graph.Closure.add_arc c ~src ~dst)
    arc_stream

let test_cycle_naive =
  Test.make ~name:"ablation/cycle-naive-dfs" (Staged.stage replay_arcs_naive)

let test_cycle_pk =
  Test.make ~name:"ablation/cycle-pearce-kelly" (Staged.stage replay_arcs_pk)

let test_cycle_closure =
  Test.make ~name:"ablation/cycle-closure" (Staged.stage replay_arcs_closure)

let run_conflict ?oracle policy () =
  let sched = Dct_sched.Conflict_scheduler.create ~policy ?oracle () in
  List.iter
    (fun s -> ignore (Dct_sched.Conflict_scheduler.step sched s))
    bench_schedule

let test_sgt_none =
  Test.make ~name:"ex10/sgt-no-deletion"
    (Staged.stage (run_conflict Policy.No_deletion))

let test_sgt_noncurrent =
  Test.make ~name:"ex10/sgt-noncurrent"
    (Staged.stage (run_conflict Policy.Noncurrent))

let test_sgt_greedy =
  Test.make ~name:"ex10/sgt-greedy-c1"
    (Staged.stage (run_conflict Policy.Greedy_c1))

let test_sgt_budget =
  Test.make ~name:"ex10/sgt-budget48"
    (Staged.stage (run_conflict (Policy.Budget (48, Policy.Greedy_c1))))

let test_sgt_closure_none =
  Test.make ~name:"ablation/sgt-closure-no-deletion"
    (Staged.stage (run_conflict ~oracle:Dct_graph.Cycle_oracle.Closure Policy.No_deletion))

let test_sgt_closure_greedy =
  Test.make ~name:"ablation/sgt-closure-greedy-c1"
    (Staged.stage (run_conflict ~oracle:Dct_graph.Cycle_oracle.Closure Policy.Greedy_c1))

let test_certifier =
  Test.make ~name:"ex10/certifier"
    (Staged.stage (fun () ->
         let t = Dct_sched.Certifier.create () in
         List.iter (fun s -> ignore (Dct_sched.Certifier.step t s)) bench_schedule))

let test_2pl =
  Test.make ~name:"ex10/lock-2pl"
    (Staged.stage (fun () ->
         let t = Dct_sched.Lock_2pl.create () in
         List.iter (fun s -> ignore (Dct_sched.Lock_2pl.step t s)) bench_schedule;
         ignore (Dct_sched.Lock_2pl.drain t)))

let test_to =
  Test.make ~name:"ex10/timestamp-order"
    (Staged.stage (fun () ->
         let t = Dct_sched.Timestamp_order.create () in
         List.iter
           (fun s -> ignore (Dct_sched.Timestamp_order.step t s))
           bench_schedule))

let test_multiwrite =
  Test.make ~name:"ex10/multiwrite"
    (Staged.stage (fun () ->
         let t = Dct_sched.Multiwrite_scheduler.create () in
         List.iter
           (fun s -> ignore (Dct_sched.Multiwrite_scheduler.step t s))
           bench_schedule_mw))

let test_predeclared =
  Test.make ~name:"ex10/predeclared-c4"
    (Staged.stage (fun () ->
         let t = Dct_sched.Predeclared_scheduler.create ~use_c4_deletion:true () in
         List.iter
           (fun s -> ignore (Dct_sched.Predeclared_scheduler.step t s))
           bench_schedule_pre;
         ignore (Dct_sched.Predeclared_scheduler.drain t)))

let test_exact_max =
  Test.make ~name:"ex5/exact-max-deletion"
    (Staged.stage (fun () -> ignore (Max.exact cover_gs)))

let test_greedy_max =
  Test.make ~name:"ex5/greedy-max-deletion"
    (Staged.stage (fun () -> ignore (Max.greedy cover_gs)))

let test_c3_decide =
  Test.make ~name:"ex7/c3-exact-decision"
    (Staged.stage (fun () ->
         ignore (Dct_npc.Reduction_sat.c_deletable sat_formula)))

let test_dpll =
  Test.make ~name:"ex7/dpll"
    (Staged.stage (fun () -> ignore (Dct_npc.Sat.is_satisfiable sat_formula)))

let test_mvto =
  Test.make ~name:"ex13/mvto-vacuum"
    (Staged.stage (fun () ->
         let t = Dct_sched.Mv_scheduler.create ~vacuum:true () in
         List.iter
           (fun s -> ignore (Dct_sched.Mv_scheduler.step t s))
           bench_schedule))

let test_workload_gen =
  Test.make ~name:"infra/workload-generation"
    (Staged.stage (fun () ->
         ignore
           (Gen.basic { Gen.default with Gen.n_txns = 100; seed = 77 })))

let all_tests =
  Test.make_grouped ~name:"dct"
    [
      test_c1_single;
      test_c2_eligible;
      test_greedy_plan;
      test_cycle_naive;
      test_cycle_pk;
      test_cycle_closure;
      test_sgt_none;
      test_sgt_noncurrent;
      test_sgt_greedy;
      test_sgt_budget;
      test_sgt_closure_none;
      test_sgt_closure_greedy;
      test_certifier;
      test_2pl;
      test_to;
      test_multiwrite;
      test_predeclared;
      test_exact_max;
      test_greedy_max;
      test_c3_decide;
      test_dpll;
      test_mvto;
      test_workload_gen;
    ]

let run_bechamel () =
  print_endline "\nBechamel micro-benchmarks (ns per run; OLS on monotonic clock)";
  print_endline (String.make 66 '=');
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:None () in
  let raw = Benchmark.all cfg [ Instance.monotonic_clock ] all_tests in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold
      (fun name ols acc ->
        let ns =
          match Analyze.OLS.estimates ols with
          | Some (t :: _) -> t
          | _ -> nan
        in
        let r2 =
          match Analyze.OLS.r_square ols with Some r -> r | None -> nan
        in
        (name, ns, r2) :: acc)
      results []
    |> List.sort (fun (a, _, _) (b, _, _) -> compare a b)
  in
  Dct_sim.Report.print_table
    ~headers:[ "benchmark"; "time/run"; "r^2" ]
    (List.map
       (fun (name, ns, r2) ->
         let time =
           if Float.is_nan ns then "-"
           else if ns > 1e9 then Printf.sprintf "%.2f s" (ns /. 1e9)
           else if ns > 1e6 then Printf.sprintf "%.2f ms" (ns /. 1e6)
           else if ns > 1e3 then Printf.sprintf "%.2f us" (ns /. 1e3)
           else Printf.sprintf "%.0f ns" ns
         in
         [ name; time; (if Float.is_nan r2 then "-" else Printf.sprintf "%.3f" r2) ])
       rows)

let usage () =
  print_endline
    "usage: main.exe \
     [ex1..ex15|bechamel|oracle|oracle-smoke|oracle-latency|engine|engine-smoke|engine-par|engine-par-smoke|policy|policy-smoke|check|check-smoke|net|net-smoke|graph|graph-smoke|all]"

let () =
  let mode = if Array.length Sys.argv > 1 then Sys.argv.(1) else "all" in
  match mode with
  | "ex1" -> E.ex1_example1 ()
  | "ex2" -> E.ex2_lemma1 ()
  | "ex3" -> E.ex3_theorem1 ()
  | "ex4" -> E.ex4_corollary1 ()
  | "ex5" -> E.ex5_set_cover ()
  | "ex6" -> E.ex6_residency_bound ()
  | "ex7" -> E.ex7_three_sat ()
  | "ex8" -> E.ex8_example2 ()
  | "ex9" -> E.ex9_policy_series ()
  | "ex10" -> E.ex10_scheduler_comparison ()
  | "ex11" -> E.ex11_complexity_table ()
  | "ex12" -> E.ex12_log_truncation ()
  | "ex13" -> E.ex13_version_residency ()
  | "ex14" -> E.ex14_goodput_with_restarts ()
  | "ex15" -> E.ex15_sensitivity ()
  | "bechamel" -> run_bechamel ()
  | "oracle" -> Oracle_sweep.run ~smoke:false ()
  | "oracle-smoke" -> Oracle_sweep.run ~smoke:true ()
  | "oracle-latency" -> Oracle_sweep.run ~smoke:true ~latency:true ()
  | "engine" -> Engine_sweep.run ~smoke:false ()
  | "engine-smoke" -> Engine_sweep.run ~smoke:true ()
  | "engine-par" -> Engine_sweep.run_par ~smoke:false ()
  | "engine-par-smoke" -> Engine_sweep.run_par ~smoke:true ()
  | "policy" -> Policy_sweep.run ~smoke:false ()
  | "policy-smoke" -> Policy_sweep.run ~smoke:true ()
  | "check" -> Check_sweep.run ~smoke:false ()
  | "check-smoke" -> Check_sweep.run ~smoke:true ()
  | "net" -> Net_sweep.run ~smoke:false ()
  | "net-smoke" -> Net_sweep.run ~smoke:true ()
  | "graph" -> Graph_sweep.run ~smoke:false ()
  | "graph-smoke" -> Graph_sweep.run ~smoke:true ()
  | "all" ->
      E.run_all ();
      run_bechamel ()
  | _ -> usage ()
