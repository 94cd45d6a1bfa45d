(* Exact statistics over the benchmark's own per-op samples: no
   histogram buckets, so a percentile is a measured value. *)

let sorted a =
  let c = Array.copy a in
  Array.sort compare c;
  c

(* Nearest-rank: the smallest sample with at least [p]% of the samples
   at or below it.  Integer arithmetic on hundredths of a percent keeps
   ranks exact. *)
let rank ~n p =
  let bp = int_of_float (Float.round (p *. 100.)) in
  max 1 (min n (((bp * n) + 9999) / 10000))

type percentile = {
  p : float;  (** the percentile actually reported *)
  value : int;
  samples : int;
}

(* [p] of the sorted samples, or — when fewer than [min_beyond] samples
   lie above that rank — the highest percentile that has [min_beyond]
   samples beyond it. *)
let percentile ?(min_beyond = 0) sorted p =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Samples.percentile: no samples";
  let r = rank ~n p in
  let r, p =
    if n - r >= min_beyond then (r, p)
    else
      let r = max 1 (n - min_beyond) in
      (r, 100. *. float_of_int r /. float_of_int n)
  in
  { p; value = sorted.(r - 1); samples = n }

let mean_range a lo hi =
  let s = ref 0 in
  for i = lo to hi - 1 do
    s := !s + a.(i)
  done;
  float_of_int !s /. float_of_int (hi - lo)

(* Mean of the last decile over mean of the first, in sample order: a
   run whose per-op cost does not grow with its length reads 1.0. *)
let step_growth a =
  let n = Array.length a in
  if n < 10 then invalid_arg "Samples.step_growth: fewer than 10 samples";
  let k = n / 10 in
  let first = mean_range a 0 k in
  mean_range a (n - k) n /. Float.max first 1.

(* The [q]-quantile of a list by linear interpolation between order
   statistics (position q·(n-1)): 0 is the minimum, 1 the maximum. *)
let quantile l q =
  match List.sort compare l with
  | [] -> invalid_arg "Samples.quantile: empty"
  | s ->
      let a = Array.of_list s in
      let pos = q *. float_of_int (Array.length a - 1) in
      let i = int_of_float pos in
      if i >= Array.length a - 1 then a.(Array.length a - 1)
      else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median l = quantile l 0.5

(* Known answers on synthetic samples; [main] runs this before every
   workload and refuses to report if it fails. *)
let self_test () =
  let errors = ref [] in
  let expect what got want =
    if got <> want then
      errors := Printf.sprintf "%s: got %s, want %s" what got want :: !errors
  in
  let f = Printf.sprintf "%g" in
  let ramp n = Array.init n (fun i -> i + 1) in
  let s1000 = sorted (Array.of_list (List.rev (Array.to_list (ramp 1000)))) in
  let p50 = percentile s1000 50. in
  expect "p50 of 1..1000" (string_of_int p50.value) "500";
  let p99 = percentile ~min_beyond:10 s1000 99. in
  expect "p99 of 1..1000" (string_of_int p99.value) "990";
  expect "p99 of 1..1000 stays p99" (f p99.p) "99";
  let p999 = percentile ~min_beyond:10 s1000 99.9 in
  expect "p99.9 of 1..1000 falls back" (string_of_int p999.value) "990";
  let p99_small = percentile ~min_beyond:10 (ramp 100) 99. in
  expect "p99 of 1..100 falls back to p90 value" (string_of_int p99_small.value) "90";
  expect "p99 of 1..100 falls back to p90" (f p99_small.p) "90";
  expect "p100 of 1..7" (string_of_int (percentile (ramp 7) 100.).value) "7";
  expect "p1 of 1..7" (string_of_int (percentile (ramp 7) 1.).value) "1";
  expect "growth of a flat run" (f (step_growth (Array.make 50 7))) "1";
  let ramped = Array.init 100 (fun i -> if i < 10 then 2 else if i >= 90 then 6 else 4) in
  expect "growth 2 -> 6" (f (step_growth ramped)) "3";
  expect "growth uses whole deciles"
    (f (step_growth (Array.init 25 (fun i -> if i < 2 then 1 else if i >= 23 then 5 else 99))))
    "5";
  expect "quantile 0.9 of 0..10" (f (quantile (List.init 11 float_of_int) 0.9)) "9";
  expect "quantile 0.1 of 0..10" (f (quantile (List.rev (List.init 11 float_of_int)) 0.1)) "1";
  expect "quantile 0.9 of 1..6" (f (quantile [ 6.; 1.; 5.; 2.; 4.; 3. ] 0.9)) "5.5";
  expect "quantile of one" (f (quantile [ 7. ] 0.9)) "7";
  expect "median odd" (f (median [ 3.; 1.; 2. ])) "2";
  expect "median even" (f (median [ 4.; 1.; 2.; 3. ])) "2.5";
  List.rev !errors
