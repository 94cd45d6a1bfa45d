module G = Dct_graph.Digraph
module Intset = Dct_graph.Intset

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let diamond () =
  let g = G.create () in
  G.add_arc g ~src:1 ~dst:2;
  G.add_arc g ~src:1 ~dst:3;
  G.add_arc g ~src:2 ~dst:4;
  G.add_arc g ~src:3 ~dst:4;
  g

let test_nodes_arcs () =
  let g = diamond () in
  check_int "nodes" 4 (G.node_count g);
  check_int "arcs" 4 (G.arc_count g);
  check "mem arc" true (G.mem_arc g ~src:1 ~dst:2);
  check "no reverse arc" false (G.mem_arc g ~src:2 ~dst:1);
  check_int "out degree of 1" 2 (G.out_degree g 1);
  check_int "in degree of 4" 2 (G.in_degree g 4)

let test_idempotent_add () =
  let g = diamond () in
  G.add_arc g ~src:1 ~dst:2;
  check_int "still 4 arcs" 4 (G.arc_count g)

let test_remove_arc () =
  let g = diamond () in
  G.remove_arc g ~src:1 ~dst:2;
  check "gone" false (G.mem_arc g ~src:1 ~dst:2);
  check_int "3 arcs" 3 (G.arc_count g);
  check_int "preds of 2" 0 (G.in_degree g 2);
  G.remove_arc g ~src:1 ~dst:2 (* idempotent *)

let test_remove_node () =
  let g = diamond () in
  G.remove_node g 2;
  check "node gone" false (G.mem_node g 2);
  check_int "arcs pruned" 2 (G.arc_count g);
  check "succ of 1 updated" false (Intset.mem 2 (G.succs g 1));
  check "pred of 4 updated" false (Intset.mem 2 (G.preds g 4))

let test_copy_independent () =
  let g = diamond () in
  let h = G.copy g in
  G.remove_node g 1;
  check "copy intact" true (G.mem_node h 1);
  check_int "copy arcs intact" 4 (G.arc_count h)

let test_equal () =
  check "diamond = diamond" true (G.equal (diamond ()) (diamond ()));
  let g = diamond () in
  G.add_arc g ~src:4 ~dst:5;
  check "different" false (G.equal g (diamond ()))

let test_isolated_node () =
  let g = G.create () in
  G.add_node g 10;
  check "mem" true (G.mem_node g 10);
  check "no succs" true (Intset.is_empty (G.succs g 10));
  check "absent node empty succs" true (Intset.is_empty (G.succs g 99))

let test_iter_arcs () =
  let g = diamond () in
  let n = ref 0 in
  G.iter_arcs (fun ~src:_ ~dst:_ -> incr n) g;
  check_int "iterated all" 4 !n;
  let sum = G.fold_arcs (fun ~src ~dst acc -> acc + src + dst) g 0 in
  check_int "fold sum" (1 + 2 + 1 + 3 + 2 + 4 + 3 + 4) sum

let test_remove_node_bypass () =
  let g = diamond () in
  G.add_arc g ~src:4 ~dst:5;
  G.remove_node_bypass g 4;
  check "node gone" false (G.mem_node g 4);
  check "bypass 2 -> 5" true (G.mem_arc g ~src:2 ~dst:5);
  check "bypass 3 -> 5" true (G.mem_arc g ~src:3 ~dst:5);
  check_int "arcs: two kept, two bypass" 4 (G.arc_count g);
  G.remove_node_bypass g 42;
  check_int "absent node: no-op" 4 (G.arc_count g);
  (* A self-loop yields no bypass arc back onto the removed node. *)
  G.add_arc g ~src:5 ~dst:5;
  G.add_arc g ~src:5 ~dst:6;
  G.remove_node_bypass g 5;
  check "self-loop node gone" false (G.mem_node g 5);
  check "bypass 2 -> 6" true (G.mem_arc g ~src:2 ~dst:6);
  check "bypass 3 -> 6" true (G.mem_arc g ~src:3 ~dst:6)

let test_self_loop () =
  let g = G.create () in
  G.add_arc g ~src:1 ~dst:1;
  check "self arc" true (G.mem_arc g ~src:1 ~dst:1);
  G.remove_node g 1;
  check_int "cleanup" 0 (G.arc_count g)

let () =
  Alcotest.run "digraph"
    [
      ( "digraph",
        [
          Alcotest.test_case "nodes and arcs" `Quick test_nodes_arcs;
          Alcotest.test_case "idempotent add" `Quick test_idempotent_add;
          Alcotest.test_case "remove arc" `Quick test_remove_arc;
          Alcotest.test_case "remove node" `Quick test_remove_node;
          Alcotest.test_case "bypass removal" `Quick test_remove_node_bypass;
          Alcotest.test_case "copy independence" `Quick test_copy_independent;
          Alcotest.test_case "equality" `Quick test_equal;
          Alcotest.test_case "isolated nodes" `Quick test_isolated_node;
          Alcotest.test_case "arc iteration" `Quick test_iter_arcs;
          Alcotest.test_case "self loops" `Quick test_self_loop;
        ] );
    ]
