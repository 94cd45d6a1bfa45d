(* The repository benchmark.

     main.exe --workload NAME --seed N --seconds S --trace 0|1
              [--dct PATH] [--workdir DIR]
     main.exe --self-test [--dct PATH] [--workdir DIR]

   --trace 0 runs the workload as a user would, telemetry off, and
   reports the end-to-end metrics; --trace 1 re-drives the same inputs
   through each layer's entry points and reports the per-layer metrics.
   The last line of standard output is one JSON object; the exit code
   is non-zero when any correctness gate fails.  The working directory
   is the root of the checkout: BENCHMARK.json there names the metrics. *)

let workloads = [ "sched-churn"; "sched-gc-noncurrent"; "engine-tpcc"; "serve-ycsb-b" ]

(* End-to-end metrics of an in-process run made of whole passes, each
   taken per pass.  Other tenants of the host only ever slow a pass
   down, and do so in bursts, so rates and latencies report the fast
   end of the passes (the 90th percentile of rates, the 10th of
   latencies) as the program's own speed; [step_growth], a ratio within
   one pass, and [setup_s] report the median. *)
let pass_metrics (passes : Common.summary list) =
  let m = Report.metric in
  let over q f = Samples.quantile (List.map f passes) q in
  let fast_rate = over 0.9 and fast_latency = over 0.1 and med = over 0.5 in
  let per_s count (p : Common.summary) = float_of_int count /. (float_of_int p.run_ns /. 1e9) in
  let pct q (p : Common.summary) =
    float_of_int (Samples.percentile ~min_beyond:10 (Samples.sorted p.lat) q).Samples.value /. 1e3
  in
  let steps = List.fold_left (fun acc (p : Common.summary) -> acc + Array.length p.lat) 0 passes in
  let n = List.length passes in
  let note what = Printf.sprintf "%s of %d passes, %d steps" what n steps in
  [
    m "steps_per_s" (fast_rate (fun p -> per_s (Array.length p.lat) p)) ~note:(note "p90");
    m "goodput_txn_per_s" (fast_rate (fun p -> per_s p.committed p)) ~note:(note "p90");
    m "step_p50_us" (fast_latency (pct 50.)) ~note:(note "p10");
    m "step_p99_us" (fast_latency (pct 99.)) ~note:(note "p10");
    m "step_growth" (med (fun p -> Samples.step_growth p.lat)) ~note:(note "median");
    m "retained_mb" (Common.mb_of_words (List.hd passes).retained_words) ~note:"first pass";
    m "setup_s" (med (fun p -> float_of_int p.setup_ns /. 1e9)) ~note:(note "median");
  ]

let result ?(ledger = []) ~problems ~attempted metrics =
  { Report.correct = problems = []; attempted; failed = List.length problems; metrics; ledger;
    problems }

let run_passes ~trace ~timed ~traced =
  if trace then
    let metrics, ledger, problems, steps = traced () in
    result ~ledger ~problems ~attempted:steps metrics
  else
    let passes, problems = timed () in
    result ~problems
      ~attempted:(List.fold_left (fun acc (p : Common.summary) -> acc + Array.length p.lat) 0 passes)
      (pass_metrics passes)

let run ~workload ~seed ~seconds ~trace ~dct ~workdir =
  match workload with
  | "sched-churn" | "sched-gc-noncurrent" ->
      let spec = if workload = "sched-churn" then Inproc.churn else Inproc.gc_noncurrent in
      run_passes ~trace
        ~timed:(fun () -> Inproc.timed spec ~seed ~seconds)
        ~traced:(fun () -> Inproc.traced spec ~seed ~seconds)
  | "engine-tpcc" ->
      run_passes ~trace
        ~timed:(fun () -> Engine_wl.timed Engine_wl.tpcc ~seed ~seconds)
        ~traced:(fun () -> Engine_wl.traced Engine_wl.tpcc ~seed ~seconds)
  | "serve-ycsb-b" -> Serve.run ~seed ~seconds ~trace ~dct ~workdir
  | w -> invalid_arg ("unknown workload " ^ w)

(* Checked before every run; [--self-test] adds a stalled server. *)
let self_test () =
  Samples.self_test () @ Common.serializable_self_test () @ Report.check_catalogue ()

let usage () =
  prerr_endline
    ("usage: main.exe --workload (" ^ String.concat "|" workloads
   ^ ") --seed N --seconds S --trace 0|1 [--dct PATH] [--workdir DIR]\n\
     \       main.exe --self-test [--dct PATH] [--workdir DIR]");
  exit 2

let () =
  let workload = ref "" and seed = ref None and seconds = ref None and trace = ref None in
  let dct = ref "_perfbench_build/default/bin/dct.exe" and workdir = ref "_perfbench_build" in
  let self_test_only = ref false in
  let rec parse = function
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> seed := int_of_string_opt v; parse rest
    | "--seconds" :: v :: rest -> seconds := int_of_string_opt v; parse rest
    | "--trace" :: (("0" | "1") as v) :: rest -> trace := Some (v = "1"); parse rest
    | "--dct" :: v :: rest -> dct := v; parse rest
    | "--workdir" :: v :: rest -> workdir := v; parse rest
    | "--self-test" :: rest -> self_test_only := true; parse rest
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let slow_tests () = Serve.deadline_self_test ~dct:!dct ~workdir:!workdir in
  (match self_test () @ if !self_test_only then slow_tests () else [] with
  | [] -> if !self_test_only then (print_endline "self-test: ok"; exit 0)
  | errors ->
      List.iter (Printf.eprintf "self-test FAILED: %s\n") errors;
      exit 2);
  match (!seed, !seconds, !trace) with
  | Some seed, Some seconds, Some trace
    when List.mem !workload workloads && seconds > 0 ->
      let r =
        try run ~workload:!workload ~seed ~seconds ~trace ~dct:!dct ~workdir:!workdir with e ->
          let msg = "exception: " ^ Printexc.to_string e in
          { Report.correct = false; attempted = 1; failed = 1; metrics = []; ledger = [];
            problems = [ msg ] }
      in
      if r.Report.metrics = [] then begin
        List.iter (Printf.eprintf "perfbench: %s\n") r.Report.problems;
        exit 1
      end;
      Report.print ~workload:!workload ~seed ~trace r;
      exit (if r.Report.correct then 0 else 1)
  | _ -> usage ()
