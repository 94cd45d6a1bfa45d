module C = Dct_graph.Closure
module G = Dct_graph.Digraph
module T = Dct_graph.Traversal
module Intset = Dct_graph.Intset

let check = Alcotest.(check bool)

let test_basic () =
  let c = C.create () in
  C.add_arc c ~src:1 ~dst:2;
  C.add_arc c ~src:2 ~dst:3;
  check "1 reaches 3" true (C.reaches c ~src:1 ~dst:3);
  check "3 not 1" false (C.reaches c ~src:3 ~dst:1);
  check "would cycle 3->1" true (C.would_cycle c ~src:3 ~dst:1);
  check "no cycle 1->3" false (C.would_cycle c ~src:1 ~dst:3);
  Alcotest.(check (list int)) "descendants of 1" [ 2; 3 ]
    (Intset.to_sorted_list (C.descendants c 1));
  Alcotest.(check (list int)) "ancestors of 3" [ 1; 2 ]
    (Intset.to_sorted_list (C.ancestors c 3))

let test_bypass_removal () =
  (* 1 -> 2 -> 3: removing 2 with bypass keeps 1 ⇝ 3. *)
  let c = C.create () in
  C.add_arc c ~src:1 ~dst:2;
  C.add_arc c ~src:2 ~dst:3;
  C.remove_node c `Bypass 2;
  check "1 still reaches 3" true (C.reaches c ~src:1 ~dst:3);
  check "2 gone" false (C.mem_node c 2)

let test_exact_removal () =
  (* Same chain: exact removal severs the path. *)
  let c = C.create () in
  C.add_arc c ~src:1 ~dst:2;
  C.add_arc c ~src:2 ~dst:3;
  C.remove_node c `Exact 2;
  check "1 no longer reaches 3" false (C.reaches c ~src:1 ~dst:3)

let test_exact_removal_with_parallel_path () =
  let c = C.create () in
  C.add_arc c ~src:1 ~dst:2;
  C.add_arc c ~src:2 ~dst:3;
  C.add_arc c ~src:1 ~dst:3;
  C.remove_node c `Exact 2;
  check "direct arc survives" true (C.reaches c ~src:1 ~dst:3)

let test_random_against_recompute () =
  let rng = Dct_workload.Prng.create ~seed:11 in
  for _trial = 1 to 25 do
    let c = C.create () in
    let reference = G.create () in
    for _ = 1 to 60 do
      let op = Dct_workload.Prng.int rng 10 in
      if op < 7 then begin
        let src = Dct_workload.Prng.int rng 15
        and dst = Dct_workload.Prng.int rng 15 in
        if src <> dst then begin
          C.add_arc c ~src ~dst;
          G.add_arc reference ~src ~dst
        end
      end
      else begin
        let v = Dct_workload.Prng.int rng 15 in
        if G.mem_node reference v then begin
          C.remove_node c `Exact v;
          G.remove_node reference v
        end
      end
    done;
    check "closure matches recomputation" true (C.check_against c reference)
  done

let test_bypass_equals_reduced_reachability () =
  (* Random DAG; bypass-removing a node must preserve reachability among
     the remaining nodes exactly. *)
  let rng = Dct_workload.Prng.create ~seed:13 in
  for _trial = 1 to 25 do
    let c = C.create () in
    let reference = G.create () in
    for _ = 1 to 40 do
      let src = Dct_workload.Prng.int rng 12
      and dst = Dct_workload.Prng.int rng 12 in
      (* Keep it a DAG: only arcs small -> large. *)
      if src < dst then begin
        C.add_arc c ~src ~dst;
        G.add_arc reference ~src ~dst
      end
    done;
    let victim = 5 in
    if G.mem_node reference victim then begin
      let before =
        Intset.fold
          (fun v acc ->
            if v = victim then acc
            else
              Intset.fold
                (fun w acc ->
                  if w = victim then acc else ((v, w), T.has_path reference ~src:v ~dst:w) :: acc)
                (G.nodes reference) acc)
          (G.nodes reference) []
      in
      C.remove_node c `Bypass victim;
      List.iter
        (fun ((v, w), reachable) ->
          check
            (Printf.sprintf "reach %d->%d preserved" v w)
            reachable
            (C.reaches c ~src:v ~dst:w))
        before
    end
  done

(* --- regression: the targeted [`Exact] row rebuild ----------------
   [Closure.remove_node `Exact] recomputes only the rows that mentioned
   the removed node (it used to rebuild every row from scratch).  These
   tests pin the behaviour on the paper-gallery shapes the experiment
   suite (EX2-EX5) exercises, through both the raw closure and a
   closure-oracle graph state. *)

module Gs = Dct_deletion.Graph_state
module Rules = Dct_deletion.Rules
module Policy = Dct_deletion.Policy
module Reduced = Dct_deletion.Reduced_graph
module Oracle = Dct_graph.Cycle_oracle
module Gallery = Dct_deletion.Paper_gallery

let closure_of gs =
  match Oracle.closure (Gs.oracle gs) with
  | Some c -> c
  | None -> Alcotest.fail "closure oracle missing"

let sorted s = Intset.to_sorted_list s

let test_gallery_example1_removals () =
  (* §3 Figure 1: arcs T1->T2, T1->T3, T2->T3; T1 active. *)
  let replay () =
    let gs = Gs.create ~oracle:Oracle.Closure () in
    List.iter
      (fun s -> ignore (Rules.apply gs s))
      (Gallery.example1_schedule ());
    gs
  in
  (* Bypass branch: deleting the noncurrent T2 keeps T1 ⇝ T3. *)
  let gs = replay () in
  Reduced.delete gs 2;
  let c = closure_of gs in
  check "closure matches graph after bypass" true
    (C.check_against c (Gs.graph gs));
  check "T1 still reaches T3" true (C.reaches c ~src:1 ~dst:3);
  check "T2 purged" false (C.mem_node c 2);
  (* Exact branch: aborting the active T1 recomputes exactly the rows
     that mentioned it — here none going forward, both T2/T3 ancestor
     rows. *)
  let gs = replay () in
  Gs.abort_txn gs 1;
  let c = closure_of gs in
  check "closure matches graph after abort" true
    (C.check_against c (Gs.graph gs));
  check "T2 still reaches T3" true (C.reaches c ~src:2 ~dst:3);
  Alcotest.(check (list int)) "ancestors of T3 shrank to T2" [ 2 ]
    (sorted (C.ancestors c 3))

let test_lemma1_chain_exact_rows () =
  (* EX2's lemma-1 shape: a committed chain 1 -> 2 -> 3 -> 4 -> 5 with a
     shortcut 1 -> 5.  Exact-removing the middle node must refresh the
     rows of 1, 2 (descendants) and 4, 5 (ancestors) and nothing else. *)
  let c = C.create () in
  List.iter
    (fun (src, dst) -> C.add_arc c ~src ~dst)
    [ (1, 2); (2, 3); (3, 4); (4, 5); (1, 5) ];
  C.remove_node c `Exact 3;
  Alcotest.(check (list int)) "desc 1" [ 2; 5 ] (sorted (C.descendants c 1));
  Alcotest.(check (list int)) "desc 2" [] (sorted (C.descendants c 2));
  Alcotest.(check (list int)) "anc 4" [] (sorted (C.ancestors c 4));
  Alcotest.(check (list int)) "anc 5" [ 1; 4 ] (sorted (C.ancestors c 5));
  let reference = G.create () in
  List.iter
    (fun (src, dst) -> G.add_arc reference ~src ~dst)
    [ (1, 2); (4, 5); (1, 5) ];
  check "matches recomputation" true (C.check_against c reference)

let test_ex4_noncurrent_deletion_closure () =
  (* EX4 / Corollary 1: under the noncurrent policy the overwritten T2
     is deleted as soon as it completes; the closure tracks the
     reduction. *)
  let gs = Gs.create ~oracle:Oracle.Closure () in
  let deleted = ref Intset.empty in
  List.iter
    (fun s ->
      (match Rules.apply gs s with
      | Rules.Accepted | Rules.Rejected ->
          deleted := Intset.union !deleted (Policy.run Policy.Noncurrent gs)
      | Rules.Ignored -> ()))
    (Gallery.example1_schedule ());
  Alcotest.(check (list int)) "noncurrent deleted exactly T2" [ 2 ]
    (sorted !deleted);
  let c = closure_of gs in
  check "closure matches graph" true (C.check_against c (Gs.graph gs));
  check "bypass arc T1 -> T3 survives" true (C.reaches c ~src:1 ~dst:3)

let test_ex5_set_cover_closure () =
  (* EX5 / Theorem 5: the set-cover reduction schedule, replayed under
     the closure oracle, then exact-max deletion (m - k = 5 - 2). *)
  let inst =
    Dct_npc.Set_cover.make ~universe:6
      [ [ 0; 1; 2 ]; [ 3; 4; 5 ]; [ 0; 3 ]; [ 1; 4 ]; [ 2; 5 ] ]
  in
  let schedule, _ = Dct_npc.Reduction_cover.schedule inst in
  let gs = Gs.create ~oracle:Oracle.Closure () in
  ignore (Rules.apply_all gs schedule);
  let before = C.check_against (closure_of gs) (Gs.graph gs) in
  check "closure consistent before deletion" true before;
  let deleted = Policy.run Policy.Exact_max gs in
  Alcotest.(check int) "maximum deletion = m - k" 3 (Intset.cardinal deleted);
  check "closure consistent after deletion" true
    (C.check_against (closure_of gs) (Gs.graph gs))

let () =
  Alcotest.run "closure"
    [
      ( "gallery-regressions",
        [
          Alcotest.test_case "example 1: bypass and exact removal" `Quick
            test_gallery_example1_removals;
          Alcotest.test_case "lemma-1 chain: exact rebuilds rows" `Quick
            test_lemma1_chain_exact_rows;
          Alcotest.test_case "EX4 noncurrent deletion" `Quick
            test_ex4_noncurrent_deletion_closure;
          Alcotest.test_case "EX5 set-cover reduction" `Quick
            test_ex5_set_cover_closure;
        ] );
      ( "closure",
        [
          Alcotest.test_case "incremental reach" `Quick test_basic;
          Alcotest.test_case "bypass removal keeps paths" `Quick test_bypass_removal;
          Alcotest.test_case "exact removal severs paths" `Quick test_exact_removal;
          Alcotest.test_case "exact removal, parallel path" `Quick
            test_exact_removal_with_parallel_path;
          Alcotest.test_case "random ops vs recompute" `Slow
            test_random_against_recompute;
          Alcotest.test_case "bypass = reduced reachability" `Slow
            test_bypass_equals_reduced_reachability;
        ] );
    ]
