module Si = Dct_sched.Scheduler_intf
module Step = Dct_txn.Step

type result = {
  name : string;
  original_txns : int;
  eventually_committed : int;
  gave_up : int;
  attempts : int;
  steps_submitted : int;
  peak_resident : int;
  wall_seconds : float;
}

let goodput r =
  if r.original_txns = 0 then 0.0
  else float_of_int r.eventually_committed /. float_of_int r.original_txns

(* Retried copies live far above the original id range. *)
let retry_stride = 1_000_000

let remap_step offset = function
  | Step.Begin t -> Step.Begin (t + offset)
  | Step.Read (t, x) -> Step.Read (t + offset, x)
  | Step.Write (t, xs) -> Step.Write (t + offset, xs)
  | Step.Begin_declared (t, a) -> Step.Begin_declared (t + offset, a)
  | Step.Write_one (t, x) -> Step.Write_one (t + offset, x)
  | Step.Finish t -> Step.Finish (t + offset)

let origin_of id = id mod retry_stride

let run ?(max_attempts = 4) ?(tracer = Dct_telemetry.Tracer.disabled)
    (handle : Si.handle) schedule =
  let t0 = Dct_telemetry.Probe.now_ns () in
  (* Full step list per original transaction, in program order. *)
  let steps_of : (int, Step.t list) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let t = Step.txn s in
      Hashtbl.replace steps_of t
        (s :: Option.value ~default:[] (Hashtbl.find_opt steps_of t)))
    schedule;
  Hashtbl.iter (fun t l -> Hashtbl.replace steps_of t (List.rev l)) steps_of;
  let original_txns = Hashtbl.length steps_of in
  let attempts_of : (int, int) Hashtbl.t = Hashtbl.create 64 in
  let committed : (int, unit) Hashtbl.t = Hashtbl.create 64 in
  let gave_up = ref 0 in
  let attempts = ref original_txns in
  let submitted = ref 0 in
  let peak = ref 0 in
  let submit s =
    incr submitted;
    ignore (handle.Si.step s);
    peak := max !peak (handle.Si.stats ()).Si.resident_txns
  in
  (* Run one wave of ids, then classify each id after the drain: a
     transaction whose id was never aborted has committed (the schedule
     is complete and well-formed, so nothing stays active). *)
  let classify ids =
    List.filter_map
      (fun id ->
        if handle.Si.aborted_txn id then begin
          let origin = origin_of id in
          let a = 1 + Hashtbl.find attempts_of origin in
          if a <= max_attempts then begin
            Hashtbl.replace attempts_of origin a;
            incr attempts;
            Dct_telemetry.Tracer.event tracer (fun () ->
                Dct_telemetry.Event.Restart { txn = origin; attempt = a });
            Dct_telemetry.Tracer.incr tracer "restart.scheduled";
            Some origin (* needs another attempt *)
          end
          else begin
            incr gave_up;
            None
          end
        end
        else begin
          Hashtbl.replace committed (origin_of id) ();
          None
        end)
      ids
  in
  (* Wave 0: the given schedule verbatim. *)
  Hashtbl.iter (fun t _ -> Hashtbl.replace attempts_of t 1) steps_of;
  List.iter submit schedule;
  ignore (handle.Si.drain ());
  let wave0 = Hashtbl.fold (fun t _ acc -> t :: acc) steps_of [] in
  let to_retry = ref (classify wave0) in
  while !to_retry <> [] do
    (* Interleave this wave's transactions round-robin so retries still
       contend with each other. *)
    let streams =
      List.map
        (fun origin ->
          let a = Hashtbl.find attempts_of origin in
          let offset = (a - 1) * retry_stride in
          ( origin + offset,
            ref (List.map (remap_step offset) (Hashtbl.find steps_of origin)) ))
        !to_retry
    in
    (* Bounded retry concurrency: at most 8 retried transactions in
       flight at once, round-robin inside each chunk. *)
    let rec chunks = function
      | [] -> []
      | l ->
          let rec split n acc = function
            | rest when n = 0 -> (List.rev acc, rest)
            | [] -> (List.rev acc, [])
            | x :: tl -> split (n - 1) (x :: acc) tl
          in
          let head, rest = split 8 [] l in
          head :: chunks rest
    in
    List.iter
      (fun chunk ->
        let queue = Queue.create () in
        List.iter (fun s -> Queue.push s queue) chunk;
        while not (Queue.is_empty queue) do
          let (_, steps) as slot = Queue.pop queue in
          match !steps with
          | [] -> ()
          | s :: rest ->
              submit s;
              steps := rest;
              if rest <> [] then Queue.push slot queue
        done)
      (chunks streams);
    ignore (handle.Si.drain ());
    to_retry := classify (List.map fst streams)
  done;
  {
    name = handle.Si.name;
    original_txns;
    eventually_committed = Hashtbl.length committed;
    gave_up = !gave_up;
    attempts = !attempts;
    steps_submitted = !submitted;
    peak_resident = !peak;
    wall_seconds = (Dct_telemetry.Probe.now_ns () -. t0) /. 1e9;
  }

let pp ppf r =
  Format.fprintf ppf
    "%s: %d/%d committed (%.0f%%), %d gave up, %d attempts, %d steps"
    r.name r.eventually_committed r.original_txns (100.0 *. goodput r)
    r.gave_up r.attempts r.steps_submitted
