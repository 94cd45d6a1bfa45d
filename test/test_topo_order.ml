(* Pearce-Kelly online topological order ([Topo_order], the default
   cycle oracle) on its own, cross-checked against naive reachability
   on random arc streams. *)

module Topo = Dct_graph.Topo_order
module Digraph = Dct_graph.Digraph
module Traversal = Dct_graph.Traversal
module Prng = Dct_workload.Prng

let check = Alcotest.(check bool)

let refuses f = match f () with () -> false | exception Invalid_argument _ -> true

let test_pk_accepts_dag () =
  let o = Topo.create () in
  Topo.add_arc o ~src:1 ~dst:2;
  Topo.add_arc o ~src:2 ~dst:3;
  Topo.add_arc o ~src:1 ~dst:3;
  Alcotest.(check int) "arcs" 3 (Digraph.arc_count (Topo.graph o));
  check "invariant" true (Topo.check_invariant o)

let test_pk_rejects_cycle () =
  let o = Topo.create () in
  Topo.add_arc o ~src:1 ~dst:2;
  Topo.add_arc o ~src:2 ~dst:3;
  check "closing arc refused" true
    (refuses (fun () -> Topo.add_arc o ~src:3 ~dst:1));
  (* Structure unchanged: the arc was not inserted. *)
  check "arc absent" false (Digraph.mem_arc (Topo.graph o) ~src:3 ~dst:1);
  check "invariant" true (Topo.check_invariant o);
  check "self arc refused" true
    (refuses (fun () -> Topo.add_arc o ~src:5 ~dst:5))

let test_pk_reorder_path () =
  (* Insert arcs in an order that forces reordering: 2->3 first, then
     1->2 with 1 created after 3. *)
  let o = Topo.create () in
  Topo.add_node o 3;
  Topo.add_node o 2;
  Topo.add_node o 1;
  Topo.add_arc o ~src:2 ~dst:3;
  Topo.add_arc o ~src:1 ~dst:2;
  check "invariant" true (Topo.check_invariant o);
  check "rank order" true
    (Topo.rank o 1 < Topo.rank o 2 && Topo.rank o 2 < Topo.rank o 3)

let test_pk_remove_node () =
  let chain () =
    let o = Topo.create () in
    Topo.add_arc o ~src:1 ~dst:2;
    Topo.add_arc o ~src:2 ~dst:3;
    o
  in
  let o = chain () in
  Topo.remove_node o `Exact 2;
  check "exact: 3 -> 1 now fine" false (Topo.would_cycle o ~src:3 ~dst:1);
  Topo.add_arc o ~src:3 ~dst:1;
  check "exact: invariant" true (Topo.check_invariant o);
  let o = chain () in
  Topo.remove_node o `Bypass 2;
  check "bypass keeps 1 -> 3" true (Topo.reaches o ~src:1 ~dst:3);
  check "bypass: 3 -> 1 still refused" true
    (refuses (fun () -> Topo.add_arc o ~src:3 ~dst:1));
  check "bypass: invariant" true (Topo.check_invariant o)

let test_pk_random_against_naive () =
  let rng = Prng.create ~seed:7 in
  for _trial = 1 to 50 do
    let o = Topo.create () in
    let reference = Digraph.create () in
    for _ = 1 to 120 do
      let src = Prng.int rng 25 and dst = Prng.int rng 25 in
      let naive_cycle =
        src = dst
        || Digraph.mem_node reference src
           && Digraph.mem_node reference dst
           && Traversal.has_path reference ~src:dst ~dst:src
      in
      if refuses (fun () -> Topo.add_arc o ~src ~dst) then
        check "naive agrees: cycle" true naive_cycle
      else begin
        check "naive agrees: acyclic" false naive_cycle;
        Digraph.add_arc reference ~src ~dst
      end
    done;
    check "invariant holds" true (Topo.check_invariant o);
    check "same graph as reference" true (Digraph.equal (Topo.graph o) reference)
  done

let test_pk_would_cycle_pure () =
  let o = Topo.create () in
  Topo.add_arc o ~src:1 ~dst:2;
  check "would cycle" true (Topo.would_cycle o ~src:2 ~dst:1);
  check "pure: arc not added" false
    (Digraph.mem_arc (Topo.graph o) ~src:2 ~dst:1);
  check "no cycle the other way" false (Topo.would_cycle o ~src:1 ~dst:2)

let () =
  Alcotest.run "topo_order"
    [
      ( "pearce-kelly",
        [
          Alcotest.test_case "accepts DAG arcs" `Quick test_pk_accepts_dag;
          Alcotest.test_case "rejects cycles" `Quick test_pk_rejects_cycle;
          Alcotest.test_case "reorders region" `Quick test_pk_reorder_path;
          Alcotest.test_case "node removal" `Quick test_pk_remove_node;
          Alcotest.test_case "random stream vs naive" `Slow
            test_pk_random_against_naive;
          Alcotest.test_case "would_cycle is pure" `Quick
            test_pk_would_cycle_pure;
        ] );
    ]
