(* Property-based tests (qcheck): the paper's invariants under random
   workloads.  Each property derives its state deterministically from a
   generated seed, so failures reproduce exactly. *)

module Q = QCheck
module Intset = Dct_graph.Intset
module Digraph = Dct_graph.Digraph
module Gs = Dct_deletion.Graph_state
module C1 = Dct_deletion.Condition_c1
module C2 = Dct_deletion.Condition_c2
module Max = Dct_deletion.Max_deletion
module Witness = Dct_deletion.Witness
module Reduced = Dct_deletion.Reduced_graph
module Rules = Dct_deletion.Rules
module Safety = Dct_deletion.Safety
module A = Dct_txn.Access
module S = Dct_txn.Schedule
module Gen = Dct_workload.Generator
module Prng = Dct_workload.Prng

let rec take n = function
  | [] -> []
  | _ when n = 0 -> []
  | x :: tl -> x :: take (n - 1) tl

(* A mid-flight scheduler state: some transactions active, some
   completed, graph non-trivial. *)
let state_of_seed ?(n_txns = 10) ?(n_entities = 5) seed =
  let profile =
    {
      Gen.default with
      Gen.n_txns;
      n_entities;
      mpl = 3;
      reads_min = 1;
      reads_max = 3;
      writes_min = 1;
      writes_max = 2;
      seed;
    }
  in
  let schedule = Gen.basic profile in
  let prefix = take (List.length schedule * 2 / 3) schedule in
  let gs = Gs.create () in
  ignore (Rules.apply_all gs prefix);
  gs

let seed_arb = Q.make ~print:string_of_int Q.Gen.(1 -- 10_000)

let prop name count law = Q.Test.make ~name ~count seed_arb law

(* --- The paper's core invariants --- *)

let c1_sound =
  prop "C1 holds => bounded oracle finds no divergence" 60 (fun seed ->
      let gs = state_of_seed seed in
      Intset.for_all
        (fun ti ->
          (not (C1.holds gs ti))
          || Safety.search ~depth:2 gs ~deleted:(Intset.singleton ti) = None)
        (Gs.completed_txns gs))

let c1_necessary =
  prop "C1 fails => adversarial continuation diverges" 60 (fun seed ->
      let gs = state_of_seed seed in
      let fresh_txn = 100_000 and fresh_entity = 100_000 in
      Intset.for_all
        (fun ti ->
          C1.holds gs ti
          ||
          match C1.adversarial_continuation gs ti ~fresh_txn ~fresh_entity with
          | None -> false
          | Some r -> Safety.replay gs ~deleted:(Intset.singleton ti) r <> None)
        (Gs.completed_txns gs))

let noncurrent_implies_c1 =
  prop "Corollary 1: noncurrent => C1" 100 (fun seed ->
      let gs = state_of_seed seed in
      Intset.for_all
        (fun ti -> (not (C1.noncurrent gs ti)) || C1.holds gs ti)
        (Gs.completed_txns gs))

let noncurrent_stays_sufficient_under_noncurrent_deletion =
  prop "noncurrent-only deletion keeps Corollary 1 valid" 60 (fun seed ->
      (* Repeatedly delete all noncurrent transactions, then check the
         remaining noncurrent ones (there are none) and that each
         deletion step satisfied C1 at deletion time. *)
      let gs = state_of_seed seed in
      let ok = ref true in
      let continue_ = ref true in
      while !continue_ do
        let nc =
          Intset.filter (C1.noncurrent gs) (Gs.completed_txns gs)
        in
        if Intset.is_empty nc then continue_ := false
        else begin
          let ti = Intset.min_elt nc in
          if not (C1.holds gs ti) then ok := false;
          Reduced.delete gs ti
        end
      done;
      !ok)

let c2_feasible_matches_holds =
  prop "C2 requirements = direct evaluation" 40 (fun seed ->
      let gs = state_of_seed seed in
      let candidates = C1.eligible gs in
      let reqs = C2.prepare gs ~candidates in
      let elems = Array.of_list (Intset.to_sorted_list candidates) in
      let rng = Prng.create ~seed:(seed * 31) in
      let ok = ref true in
      for _ = 1 to 20 do
        let n =
          Array.fold_left
            (fun acc e -> if Prng.bool rng ~p:0.4 then Intset.add e acc else acc)
            Intset.empty elems
        in
        if C2.holds gs n <> C2.feasible reqs n then ok := false
      done;
      !ok)

let deletion_order_immaterial =
  prop "D(G, N) independent of deletion order" 60 (fun seed ->
      let gs = state_of_seed seed in
      let n = Max.greedy gs in
      if Intset.cardinal n < 2 then true
      else begin
        let g1 = Gs.copy gs and g2 = Gs.copy gs in
        Intset.iter (Reduced.delete g1) n;
        List.iter (Reduced.delete g2) (List.rev (Intset.elements n));
        Digraph.equal (Gs.graph g1) (Gs.graph g2)
      end)

let greedy_subset_of_exact_size =
  prop "greedy <= exact, both C2-safe" 30 (fun seed ->
      let gs = state_of_seed ~n_txns:8 seed in
      let g = Max.greedy gs in
      let e = Max.exact gs in
      C2.holds gs g && C2.holds gs e
      && Intset.cardinal g <= Intset.cardinal e)

let irreducible_invariants =
  prop "irreducible graphs: no common witness, a*e bound" 60 (fun seed ->
      let gs = state_of_seed seed in
      Max.apply gs (Max.greedy gs);
      Witness.irreducible gs && Witness.no_common_witness gs
      && Witness.within_bound gs)

let reduced_graph_is_reduced =
  prop "graph after safe deletions is a reduced graph of p" 40 (fun seed ->
      let profile =
        { Gen.default with Gen.n_txns = 10; n_entities = 5; mpl = 3; seed }
      in
      let schedule = Gen.basic profile in
      let prefix = take (List.length schedule * 2 / 3) schedule in
      let gs = Gs.create () in
      ignore (Rules.apply_all gs prefix);
      let accepted =
        S.project prefix ~keep:(fun t -> not (Gs.was_aborted gs t))
      in
      Max.apply gs (Max.greedy gs);
      Reduced.is_reduced_graph_of gs accepted = Ok ())

(* --- Substrate invariants --- *)

let online_graph_equals_offline =
  prop "abort-free replay matches offline CG" 60 (fun seed ->
      let profile =
        { Gen.default with Gen.n_txns = 12; n_entities = 6; mpl = 3; seed }
      in
      let schedule = Gen.basic profile in
      let gs = Gs.create () in
      let outcomes = Rules.apply_all gs schedule in
      (* Only compare when nothing aborted. *)
      List.exists (( = ) Rules.Rejected) outcomes
      || Digraph.equal (Gs.graph gs) (S.conflict_graph schedule))

let accepted_subschedule_csr =
  prop "accepted subschedule always CSR" 80 (fun seed ->
      let profile =
        {
          Gen.default with
          Gen.n_txns = 15;
          n_entities = 4;
          mpl = 5;
          writes_min = 1;
          writes_max = 3;
          seed;
        }
      in
      let schedule = Gen.basic profile in
      let gs = Gs.create () in
      S.is_csr (Rules.accepted_subschedule gs schedule))

let access_union_laws =
  prop "access union: commutative, associative, idempotent" 50 (fun seed ->
      let rng = Prng.create ~seed in
      let random_set () =
        let n = Prng.int rng 6 in
        List.init n (fun _ ->
            ( Prng.int rng 5,
              if Prng.bool rng ~p:0.5 then A.Read else A.Write ))
        |> A.of_list
      in
      let a = random_set () and b = random_set () and c = random_set () in
      A.equal (A.union a b) (A.union b a)
      && A.equal (A.union a (A.union b c)) (A.union (A.union a b) c)
      && A.equal (A.union a a) a)

let closure_matches_recompute =
  prop "dynamic closure = recomputed reachability" 40 (fun seed ->
      let rng = Prng.create ~seed in
      let c = Dct_graph.Closure.create () in
      let g = Digraph.create () in
      for _ = 1 to 40 do
        let src = Prng.int rng 12 and dst = Prng.int rng 12 in
        if src <> dst then begin
          Dct_graph.Closure.add_arc c ~src ~dst;
          Digraph.add_arc g ~src ~dst
        end
      done;
      Dct_graph.Closure.check_against c g)

let pk_matches_naive =
  prop "Pearce-Kelly = naive cycle detection" 40 (fun seed ->
      let rng = Prng.create ~seed in
      let o = Dct_graph.Topo_order.create () in
      let g = Digraph.create () in
      let ok = ref true in
      for _ = 1 to 60 do
        let src = Prng.int rng 15 and dst = Prng.int rng 15 in
        let naive =
          src = dst
          || (Digraph.mem_node g src && Digraph.mem_node g dst
             && Dct_graph.Traversal.has_path g ~src:dst ~dst:src)
        in
        if Dct_graph.Topo_order.would_cycle o ~src ~dst <> naive then
          ok := false;
        if not naive then begin
          Dct_graph.Topo_order.add_arc o ~src ~dst;
          Digraph.add_arc g ~src ~dst
        end
      done;
      !ok && Dct_graph.Topo_order.check_invariant o)

let zipf_in_support =
  prop "zipf samples stay in support" 30 (fun seed ->
      let rng = Prng.create ~seed in
      let d = Dct_workload.Zipf.zipf ~n:37 ~theta:0.99 in
      let ok = ref true in
      for _ = 1 to 500 do
        let v = Dct_workload.Zipf.sample d rng in
        if v < 0 || v >= 37 then ok := false
      done;
      !ok)

let equivalent_serial_is_conflict_equivalent =
  prop "equivalent_serial has the same conflict graph" 60 (fun seed ->
      let schedule =
        Gen.basic
          { Gen.default with Gen.n_txns = 10; n_entities = 5; mpl = 4; seed }
      in
      match S.equivalent_serial schedule with
      | None -> true (* generator schedules are CSR only if accepted; skip *)
      | Some serial ->
          Digraph.equal (S.conflict_graph schedule) (S.conflict_graph serial))

let find_path_returns_real_paths =
  prop "find_path yields valid filtered paths" 60 (fun seed ->
      let rng = Prng.create ~seed in
      let g = Digraph.create () in
      for _ = 1 to 30 do
        let src = Prng.int rng 12 and dst = Prng.int rng 12 in
        if src <> dst then Digraph.add_arc g ~src ~dst
      done;
      let through v = v mod 3 <> 0 in
      let ok = ref true in
      for src = 0 to 11 do
        for dst = 0 to 11 do
          if src <> dst then begin
            match Dct_graph.Traversal.find_path ~through g ~src ~dst with
            | None ->
                if Dct_graph.Traversal.has_path ~through g ~src ~dst then
                  ok := false
            | Some path ->
                (* Endpoints right, arcs exist, intermediates pass. *)
                if List.hd path <> src then ok := false;
                if List.nth path (List.length path - 1) <> dst then ok := false;
                let rec arcs = function
                  | a :: (b :: _ as rest) ->
                      if not (Digraph.mem_arc g ~src:a ~dst:b) then ok := false;
                      arcs rest
                  | _ -> ()
                in
                arcs path;
                List.iteri
                  (fun i v ->
                    if i > 0 && i < List.length path - 1 && not (through v)
                    then ok := false)
                  path
          end
        done
      done;
      !ok)

let mvto_reads_match_model =
  prop "MVTO reads = newest version <= ts (model)" 60 (fun seed ->
      let rng = Prng.create ~seed in
      let s = Dct_kv.Mv_store.create () in
      let model = ref [ (0, 0) ] (* (wts, value) *) in
      let ok = ref true in
      for _ = 1 to 40 do
        if Prng.bool rng ~p:0.4 then begin
          let ts = 1 + Prng.int rng 100 in
          if not (List.mem_assoc ts !model) then begin
            Dct_kv.Mv_store.install s ~entity:0 ~ts ~value:ts;
            model := (ts, ts) :: !model
          end
        end
        else begin
          let ts = 1 + Prng.int rng 100 in
          let expected =
            List.fold_left
              (fun (bw, bv) (w, v) ->
                if w <= ts && w > bw then (w, v) else (bw, bv))
              (-1, 0) !model
            |> snd
          in
          let got = (Dct_kv.Mv_store.read s ~entity:0 ~ts).Dct_kv.Mv_store.value in
          if got <> expected then ok := false
        end
      done;
      !ok)

let predeclared_never_deadlocks =
  prop "predeclared scheduler always flushes" 40 (fun seed ->
      let schedule =
        Gen.predeclared
          { Gen.default with Gen.n_txns = 15; n_entities = 5; mpl = 5; seed }
      in
      let t = Dct_sched.Predeclared_scheduler.create () in
      List.iter
        (fun s -> ignore (Dct_sched.Predeclared_scheduler.step t s))
        schedule;
      ignore (Dct_sched.Predeclared_scheduler.drain t);
      Dct_sched.Predeclared_scheduler.pending t = 0
      && S.is_csr (Dct_sched.Predeclared_scheduler.execution_log t))

let wal_truncation_model =
  prop "WAL truncation matches a list model" 60 (fun seed ->
      let rng = Prng.create ~seed in
      let wal = Dct_kv.Wal.create () in
      let model = ref [] (* retained records oldest-first, with txn *) in
      let ok = ref true in
      for _ = 1 to 50 do
        if Prng.bool rng ~p:0.7 then begin
          let txn = Prng.int rng 6 in
          ignore (Dct_kv.Wal.append wal (Dct_kv.Wal.Begin { txn }));
          model := !model @ [ txn ]
        end
        else begin
          let resident_set =
            List.filter (fun _ -> Prng.bool rng ~p:0.5) [ 0; 1; 2; 3; 4; 5 ]
          in
          let resident t = List.mem t resident_set in
          ignore (Dct_kv.Wal.truncate_to wal ~resident);
          let rec drop = function
            | t :: rest when not (resident t) -> drop rest
            | l -> l
          in
          model := drop !model
        end;
        if Dct_kv.Wal.length wal <> List.length !model then ok := false
      done;
      !ok)

let tests =
  List.map QCheck_alcotest.to_alcotest
    [
      c1_sound;
      c1_necessary;
      noncurrent_implies_c1;
      noncurrent_stays_sufficient_under_noncurrent_deletion;
      c2_feasible_matches_holds;
      deletion_order_immaterial;
      greedy_subset_of_exact_size;
      irreducible_invariants;
      reduced_graph_is_reduced;
      online_graph_equals_offline;
      accepted_subschedule_csr;
      access_union_laws;
      closure_matches_recompute;
      pk_matches_naive;
      zipf_in_support;
      equivalent_serial_is_conflict_equivalent;
      find_path_returns_real_paths;
      mvto_reads_match_model;
      predeclared_never_deadlocks;
      wal_truncation_model;
    ]

let () = Alcotest.run "properties" [ ("qcheck", tests) ]
