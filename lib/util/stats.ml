(* Descriptive statistics and simple hypothesis-test helpers used by the
   benchmark harness and by the uniformity tests for the path sampler. *)

let mean xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.mean: empty";
  Array.fold_left ( +. ) 0.0 xs /. float_of_int n

let variance xs =
  let n = Array.length xs in
  if n < 2 then 0.0
  else begin
    let m = mean xs in
    let acc = Array.fold_left (fun acc x -> acc +. ((x -. m) *. (x -. m))) 0.0 xs in
    acc /. float_of_int (n - 1)
  end

let stddev xs = sqrt (variance xs)

let min_max xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.min_max: empty";
  let lo = ref xs.(0) and hi = ref xs.(0) in
  for i = 1 to n - 1 do
    if xs.(i) < !lo then lo := xs.(i);
    if xs.(i) > !hi then hi := xs.(i)
  done;
  (!lo, !hi)

(* Quantile by linear interpolation on the sorted sample (type-7, the
   default of R and NumPy). *)
let quantile xs q =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.quantile: empty";
  if q < 0.0 || q > 1.0 then invalid_arg "Stats.quantile: q outside [0,1]";
  let sorted = Array.copy xs in
  Array.sort compare sorted;
  let pos = q *. float_of_int (n - 1) in
  let lo = int_of_float (floor pos) in
  let hi = int_of_float (ceil pos) in
  if lo = hi then sorted.(lo)
  else begin
    let w = pos -. float_of_int lo in
    ((1.0 -. w) *. sorted.(lo)) +. (w *. sorted.(hi))
  end

let median xs = quantile xs 0.5

(* Chi-square statistic of observed counts against expected counts.
   Categories with zero expectation must have zero observation. *)
let chi_square ~observed ~expected =
  if Array.length observed <> Array.length expected then
    invalid_arg "Stats.chi_square: length mismatch";
  let acc = ref 0.0 in
  Array.iteri
    (fun i obs ->
      let exp = expected.(i) in
      if exp <= 0.0 then begin
        if obs <> 0 then invalid_arg "Stats.chi_square: observation in zero-probability cell"
      end
      else begin
        let d = float_of_int obs -. exp in
        acc := !acc +. (d *. d /. exp)
      end)
    observed;
  !acc

(* Upper bound on the chi-square critical value at significance ~0.001 via
   the Wilson-Hilferty cube approximation.  Accurate enough for the
   goodness-of-fit gates in our tests (dozens to thousands of categories). *)
let chi_square_critical ~df =
  if df <= 0 then invalid_arg "Stats.chi_square_critical: df must be positive";
  let z = 3.09 (* one-sided 0.001 normal quantile *) in
  let k = float_of_int df in
  let t = 1.0 -. (2.0 /. (9.0 *. k)) +. (z *. sqrt (2.0 /. (9.0 *. k))) in
  k *. t *. t *. t

let relative_error ~truth ~estimate =
  if truth = 0.0 then (if estimate = 0.0 then 0.0 else infinity)
  else Float.abs ((truth -. estimate) /. truth)

type summary = {
  count : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
  p50 : float;
  p95 : float;
}

let summarize xs =
  let lo, hi = min_max xs in
  {
    count = Array.length xs;
    mean = mean xs;
    stddev = stddev xs;
    min = lo;
    max = hi;
    p50 = quantile xs 0.5;
    p95 = quantile xs 0.95;
  }
