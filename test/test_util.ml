(* Tests for gqkg_util: PRNG, statistics, union-find, heap, alias
   sampling, parallel slicing, dynamic arrays and table rendering. *)

open Gqkg_util

let check = Alcotest.check
let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* ---------- Splitmix ---------- *)

let test_splitmix_deterministic () =
  let a = Splitmix.create 42 and b = Splitmix.create 42 in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Splitmix.next_int64 a) (Splitmix.next_int64 b)
  done

let test_splitmix_seed_sensitivity () =
  let a = Splitmix.create 1 and b = Splitmix.create 2 in
  checkb "different seeds diverge" true (Splitmix.next_int64 a <> Splitmix.next_int64 b)

let test_splitmix_int_bounds () =
  let rng = Splitmix.create 7 in
  for _ = 1 to 1000 do
    let v = Splitmix.int rng 13 in
    checkb "in range" true (v >= 0 && v < 13)
  done

let test_splitmix_int_rejects_bad_bound () =
  let rng = Splitmix.create 7 in
  Alcotest.check_raises "zero bound" (Invalid_argument "Splitmix.int: bound must be positive")
    (fun () -> ignore (Splitmix.int rng 0))

let test_splitmix_int_in_range () =
  let rng = Splitmix.create 3 in
  for _ = 1 to 500 do
    let v = Splitmix.int_in_range rng ~lo:(-5) ~hi:5 in
    checkb "range" true (v >= -5 && v <= 5)
  done

let test_splitmix_float_unit () =
  let rng = Splitmix.create 9 in
  for _ = 1 to 1000 do
    let x = Splitmix.unit_float rng in
    checkb "unit interval" true (x >= 0.0 && x < 1.0)
  done

let test_splitmix_split_independent () =
  (* Child stream differs from the parent's continued stream. *)
  let parent = Splitmix.create 11 in
  let child = Splitmix.split parent in
  let equal_count = ref 0 in
  for _ = 1 to 50 do
    if Splitmix.next_int64 parent = Splitmix.next_int64 child then incr equal_count
  done;
  checkb "streams differ" true (!equal_count < 5)

let test_splitmix_bernoulli_rate () =
  let rng = Splitmix.create 5 in
  let hits = ref 0 in
  let n = 20_000 in
  for _ = 1 to n do
    if Splitmix.bernoulli rng 0.3 then incr hits
  done;
  let rate = float_of_int !hits /. float_of_int n in
  checkb "close to 0.3" true (Float.abs (rate -. 0.3) < 0.02)

let test_splitmix_gaussian_moments () =
  let rng = Splitmix.create 6 in
  let n = 20_000 in
  let xs = Array.init n (fun _ -> Splitmix.gaussian rng ~mu:2.0 ~sigma:3.0) in
  checkb "mean" true (Float.abs (Stats.mean xs -. 2.0) < 0.1);
  checkb "stddev" true (Float.abs (Stats.stddev xs -. 3.0) < 0.1)

let test_splitmix_poisson_mean () =
  let rng = Splitmix.create 8 in
  let n = 20_000 in
  let xs = Array.init n (fun _ -> float_of_int (Splitmix.poisson rng 4.5)) in
  checkb "mean ~ lambda" true (Float.abs (Stats.mean xs -. 4.5) < 0.1)

let test_shuffle_is_permutation () =
  let rng = Splitmix.create 10 in
  let arr = Array.init 50 Fun.id in
  let shuffled = Splitmix.shuffle rng arr in
  let sorted = Array.copy shuffled in
  Array.sort compare sorted;
  check Alcotest.(array int) "permutation" arr sorted;
  check Alcotest.(array int) "input untouched" (Array.init 50 Fun.id) arr

let test_sample_without_replacement () =
  let rng = Splitmix.create 12 in
  List.iter
    (fun (n, k) ->
      let s = Splitmix.sample_without_replacement rng ~n ~k in
      checki "size" k (Array.length s);
      let distinct = List.sort_uniq compare (Array.to_list s) in
      checki "distinct" k (List.length distinct);
      Array.iter (fun v -> checkb "in range" true (v >= 0 && v < n)) s)
    [ (10, 10); (10, 3); (1000, 5); (8, 0) ]

(* ---------- Stats ---------- *)

let test_stats_mean_variance () =
  let xs = [| 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 |] in
  check (Alcotest.float 1e-9) "mean" 5.0 (Stats.mean xs);
  check (Alcotest.float 1e-9) "variance (sample)" (32.0 /. 7.0) (Stats.variance xs)

let test_stats_quantiles () =
  let xs = [| 1.0; 2.0; 3.0; 4.0 |] in
  check (Alcotest.float 1e-9) "median interpolated" 2.5 (Stats.median xs);
  check (Alcotest.float 1e-9) "q0 = min" 1.0 (Stats.quantile xs 0.0);
  check (Alcotest.float 1e-9) "q1 = max" 4.0 (Stats.quantile xs 1.0)

let test_stats_chi_square_uniform () =
  (* Perfectly uniform observations give statistic 0. *)
  let observed = Array.make 10 100 in
  let expected = Array.make 10 100.0 in
  check (Alcotest.float 1e-9) "zero" 0.0 (Stats.chi_square ~observed ~expected)

let test_stats_chi_square_detects_skew () =
  let observed = [| 400; 10; 10; 10 |] in
  let expected = Array.make 4 107.5 in
  checkb "above critical" true
    (Stats.chi_square ~observed ~expected > Stats.chi_square_critical ~df:3)

let test_stats_relative_error () =
  check (Alcotest.float 1e-9) "exact" 0.0 (Stats.relative_error ~truth:5.0 ~estimate:5.0);
  check (Alcotest.float 1e-9) "20%" 0.2 (Stats.relative_error ~truth:5.0 ~estimate:4.0);
  checkb "zero truth" true (Float.is_integer (Stats.relative_error ~truth:0.0 ~estimate:0.0))

let test_stats_summary () =
  let s = Stats.summarize [| 1.0; 2.0; 3.0 |] in
  checki "count" 3 s.Stats.count;
  check (Alcotest.float 1e-9) "mean" 2.0 s.Stats.mean;
  check (Alcotest.float 1e-9) "min" 1.0 s.Stats.min;
  check (Alcotest.float 1e-9) "max" 3.0 s.Stats.max

(* ---------- Union-find ---------- *)

let test_union_find_basics () =
  let uf = Union_find.create 5 in
  checki "initial components" 5 (Union_find.components uf);
  checkb "fresh union" true (Union_find.union uf 0 1);
  checkb "redundant union" false (Union_find.union uf 1 0);
  checkb "same" true (Union_find.same uf 0 1);
  checkb "not same" false (Union_find.same uf 0 2);
  checki "components" 4 (Union_find.components uf)

let test_union_find_labeling () =
  let uf = Union_find.create 6 in
  ignore (Union_find.union uf 0 1);
  ignore (Union_find.union uf 2 3);
  ignore (Union_find.union uf 3 4);
  let labels = Union_find.labeling uf in
  checki "label equality 0-1" labels.(0) labels.(1);
  checki "label equality 2-4" labels.(2) labels.(4);
  checkb "labels differ" true (labels.(0) <> labels.(2) && labels.(5) <> labels.(0));
  checkb "dense" true (Array.for_all (fun l -> l >= 0 && l < 3) labels)

(* ---------- Heap ---------- *)

let test_heap_sorts () =
  let rng = Splitmix.create 20 in
  let heap = Heap.create (-1) in
  let values = Array.init 200 (fun _ -> Splitmix.int rng 1000) in
  Array.iter (fun v -> Heap.add heap ~key:(float_of_int v) v) values;
  let out = ref [] in
  let rec drain () =
    match Heap.pop heap with
    | Some (_, v) ->
        out := v :: !out;
        drain ()
    | None -> ()
  in
  drain ();
  let sorted = Array.copy values in
  Array.sort compare sorted;
  check Alcotest.(list int) "heap sort" (Array.to_list sorted) (List.rev !out)

let test_heap_empty () =
  let heap : int Heap.t = Heap.create 0 in
  checkb "empty" true (Heap.is_empty heap);
  checkb "pop none" true (Heap.pop heap = None);
  checkb "peek none" true (Heap.peek heap = None)

(* ---------- Alias sampling ---------- *)

let test_alias_distribution () =
  let weights = [| 1.0; 2.0; 3.0; 4.0 |] in
  let alias = Alias.create weights in
  let rng = Splitmix.create 30 in
  let counts = Array.make 4 0 in
  let n = 100_000 in
  for _ = 1 to n do
    let i = Alias.sample alias rng in
    counts.(i) <- counts.(i) + 1
  done;
  let expected = Array.map (fun w -> w /. 10.0 *. float_of_int n) weights in
  let stat = Stats.chi_square ~observed:counts ~expected in
  checkb "chi-square acceptable" true (stat < Stats.chi_square_critical ~df:3)

let test_alias_zero_weight_never_drawn () =
  let alias = Alias.create [| 0.0; 1.0; 0.0 |] in
  let rng = Splitmix.create 31 in
  for _ = 1 to 1000 do
    checki "always middle" 1 (Alias.sample alias rng)
  done

let test_alias_rejects_bad_input () =
  Alcotest.check_raises "empty" (Invalid_argument "Alias.create: empty distribution") (fun () ->
      ignore (Alias.create [||]));
  Alcotest.check_raises "all zero"
    (Invalid_argument "Alias.create: weights must have positive sum") (fun () ->
      ignore (Alias.create [| 0.0; 0.0 |]))

let test_sample_weights_matches () =
  let rng = Splitmix.create 32 in
  let counts = Array.make 3 0 in
  let n = 60_000 in
  for _ = 1 to n do
    let i = Alias.sample_weights [| 1.0; 1.0; 2.0 |] rng in
    counts.(i) <- counts.(i) + 1
  done;
  let expected = [| 0.25; 0.25; 0.5 |] |> Array.map (fun p -> p *. float_of_int n) in
  checkb "chi-square ok" true
    (Stats.chi_square ~observed:counts ~expected < Stats.chi_square_critical ~df:2)

(* ---------- Dynarray ---------- *)

let test_dynarray () =
  let d = Dynarray.create 0 in
  checki "empty" 0 (Dynarray.length d);
  for i = 0 to 99 do
    checki "push index" i (Dynarray.push d (i * i))
  done;
  checki "length" 100 (Dynarray.length d);
  checki "get" 81 (Dynarray.get d 9);
  Dynarray.set d 9 7;
  checki "set" 7 (Dynarray.get d 9);
  checki "to_array length" 100 (Array.length (Dynarray.to_array d));
  Alcotest.check_raises "oob" (Invalid_argument "Dynarray.get: out of bounds") (fun () ->
      ignore (Dynarray.get d 100))

(* ---------- Table ---------- *)

let test_table_renders () =
  let t = Table.create ~aligns:[ Table.Left; Table.Right ] [ "name"; "count" ] in
  Table.add_row t [ "alpha"; "10" ];
  Table.add_row t [ "b"; "2000" ];
  let rendered = Table.render t in
  checkb "contains header" true
    (String.length rendered > 0
    &&
    let lines = String.split_on_char '\n' rendered in
    List.length lines >= 4);
  Alcotest.check_raises "width mismatch" (Invalid_argument "Table.add_row: width mismatch")
    (fun () -> Table.add_row t [ "only-one" ])


let test_table_bar_chart () =
  let chart =
    Table.bar_chart ~width:10 [ ("s1", [ ("a", 5.0); ("b", 10.0) ]); ("s2", [ ("a", 0.0) ]) ]
  in
  let lines = String.split_on_char '\n' chart in
  checkb "series header present" true (List.mem "s1" lines);
  (* The maximum bar reaches the full width. *)
  checkb "full bar" true
    (List.exists (fun l -> String.length l > 10 &&
       (let hashes = String.fold_left (fun acc c -> if c = '#' then acc + 1 else acc) 0 l in
        hashes = 10)) lines);
  checkb "empty data" true (Table.bar_chart [] = "(no data)\n");
  checkb "zero data" true (Table.bar_chart [ ("s", [ ("a", 0.0) ]) ] = "(no data)\n")

(* ---------- Vec ---------- *)

let test_vec_ops () =
  check (Alcotest.float 1e-9) "dot" 32.0 (Vec.dot [| 1.0; 2.0; 3.0 |] [| 4.0; 5.0; 6.0 |]);
  let m = Vec.mat_of_rows [ [| 1.0; 2.0 |]; [| 3.0; 4.0 |] ] in
  let y = Vec.vec_mat [| 1.0; 1.0 |] m in
  checkb "vec-mat" true (Vec.vec_equal y [| 4.0; 6.0 |]);
  let identity = Vec.mat_identity 3 in
  let x = [| 7.0; -2.0; 0.5 |] in
  checkb "identity" true (Vec.vec_equal (Vec.vec_mat x identity) x);
  check (Alcotest.float 1e-9) "trunc relu low" 0.0 (Vec.truncated_relu (-3.0));
  check (Alcotest.float 1e-9) "trunc relu high" 1.0 (Vec.truncated_relu 5.0);
  check (Alcotest.float 1e-9) "trunc relu mid" 0.4 (Vec.truncated_relu 0.4)

let test_mat_mul () =
  let a = Vec.mat_of_rows [ [| 1.0; 2.0 |]; [| 3.0; 4.0 |] ] in
  let b = Vec.mat_of_rows [ [| 0.0; 1.0 |]; [| 1.0; 0.0 |] ] in
  let c = Vec.mat_mul a b in
  check (Alcotest.float 1e-9) "c00" 2.0 (Vec.get c 0 0);
  check (Alcotest.float 1e-9) "c01" 1.0 (Vec.get c 0 1);
  check (Alcotest.float 1e-9) "c10" 4.0 (Vec.get c 1 0);
  check (Alcotest.float 1e-9) "c11" 3.0 (Vec.get c 1 1)

(* ---------- QCheck properties ---------- *)

let prop_shuffle_permutation =
  QCheck2.Test.make ~name:"shuffle preserves multiset" ~count:100
    QCheck2.Gen.(pair (list_size (int_range 0 30) int) int)
    (fun (xs, seed) ->
      let rng = Splitmix.create seed in
      let arr = Array.of_list xs in
      let shuffled = Splitmix.shuffle rng arr in
      List.sort compare (Array.to_list shuffled) = List.sort compare xs)

let prop_quantile_monotone =
  QCheck2.Test.make ~name:"quantile monotone in q" ~count:100
    QCheck2.Gen.(list_size (int_range 1 40) (float_bound_inclusive 100.0))
    (fun xs ->
      let arr = Array.of_list xs in
      Stats.quantile arr 0.25 <= Stats.quantile arr 0.75)

let prop_union_find_transitive =
  QCheck2.Test.make ~name:"union-find transitivity" ~count:100
    QCheck2.Gen.(list_size (int_range 0 50) (pair (int_bound 19) (int_bound 19)))
    (fun unions ->
      let uf = Union_find.create 20 in
      List.iter (fun (a, b) -> ignore (Union_find.union uf a b)) unions;
      (* find is a congruence: same root <-> same label *)
      let labels = Union_find.labeling uf in
      List.for_all
        (fun (a, b) -> Union_find.same uf a b = (labels.(a) = labels.(b)))
        unions)

let prop_heap_min =
  QCheck2.Test.make ~name:"heap pops minimum" ~count:100
    QCheck2.Gen.(list_size (int_range 1 50) (float_bound_inclusive 1000.0))
    (fun xs ->
      let heap = Heap.create 0 in
      List.iteri (fun i x -> Heap.add heap ~key:x i) xs;
      match Heap.pop heap with
      | Some (k, _) -> List.for_all (fun x -> k <= x) xs
      | None -> false)

(* ---------- Bitset ---------- *)

let test_bitset_words_for () =
  checki "one bit" 1 (Bitset.words_for 1);
  checki "zero bits still one word" 1 (Bitset.words_for 0);
  checki "exactly one word" 1 (Bitset.words_for Bitset.bits_per_word);
  checki "one past a word" 2 (Bitset.words_for (Bitset.bits_per_word + 1))

let test_bitset_raw_roundtrip () =
  let n = (2 * Bitset.bits_per_word) + 3 in
  let members = [| 0; 1; Bitset.bits_per_word - 1; Bitset.bits_per_word; n - 1 |] in
  let ws = Bitset.raw_of_array n members in
  checkb "is_empty" false (Bitset.raw_is_empty ws);
  checki "cardinal" (Array.length members) (Bitset.raw_cardinal ws);
  Array.iter (fun m -> checkb (Printf.sprintf "mem %d" m) true (Bitset.raw_mem ws m)) members;
  checkb "non-member" false (Bitset.raw_mem ws 2);
  check Alcotest.(array int) "to_array is sorted members" members (Bitset.raw_to_array ws);
  Bitset.raw_clear ws;
  checkb "cleared" true (Bitset.raw_is_empty ws)

let test_bitset_raw_union_equal_hash () =
  let n = Bitset.bits_per_word + 7 in
  let a = Bitset.raw_of_array n [| 1; 5; Bitset.bits_per_word |] in
  let b = Bitset.raw_of_array n [| 5; n - 1 |] in
  let u = Array.copy a in
  Bitset.raw_union_into ~into:u b;
  check Alcotest.(array int) "union members"
    [| 1; 5; Bitset.bits_per_word; n - 1 |]
    (Bitset.raw_to_array u);
  let u' = Bitset.raw_of_array n [| 1; 5; Bitset.bits_per_word; n - 1 |] in
  checkb "equal" true (Bitset.raw_equal u u');
  checki "equal sets hash alike" (Bitset.raw_hash u) (Bitset.raw_hash u');
  checkb "distinct sets differ" false (Bitset.raw_equal a b)

let test_bitset_growable () =
  let s = Bitset.create () in
  checkb "fresh empty" true (Bitset.is_empty s);
  let members = [ 0; 3; 64; 65; 1000 ] in
  List.iter (Bitset.add s) members;
  Bitset.add s 3;
  checki "cardinal ignores duplicate add" (List.length members) (Bitset.cardinal s);
  List.iter (fun m -> checkb (Printf.sprintf "mem %d" m) true (Bitset.mem s m)) members;
  checkb "absent far out" false (Bitset.mem s 4096);
  check Alcotest.(array int) "sorted members" [| 0; 3; 64; 65; 1000 |] (Bitset.to_sorted_array s);
  Bitset.clear s;
  checkb "cleared" true (Bitset.is_empty s)

(* ---------- Parallel ---------- *)

let test_parallel_slices_cover () =
  List.iter
    (fun (domains, n) ->
      let slices = Parallel.slices ~domains ~n in
      let covered = Array.make (max 1 n) 0 in
      List.iter
        (fun (first, last) ->
          checkb "non-empty slice" true (first < last);
          for i = first to last - 1 do
            covered.(i) <- covered.(i) + 1
          done)
        slices;
      if n > 0 then
        Array.iteri (fun i c -> checki (Printf.sprintf "index %d covered once" i) 1 c) covered
      else checki "no slices for empty range" 0 (List.length slices))
    [ (1, 10); (4, 10); (8, 3); (3, 0); (2, 1) ]

let test_parallel_map_slices_domain_independent () =
  let sum_range first last =
    let acc = ref 0 in
    for i = first to last - 1 do
      acc := !acc + (i * i)
    done;
    !acc
  in
  let total domains =
    List.fold_left ( + ) 0 (Parallel.map_slices ~domains 100 sum_range)
  in
  let expected = total 1 in
  List.iter
    (fun d -> checki (Printf.sprintf "domains=%d" d) expected (total d))
    [ 2; 3; 4; 8 ]

let test_parallel_sum_float_arrays () =
  let into = [| 1.0; 2.0; 3.0 |] in
  let result = Parallel.sum_float_arrays ~into [| 0.5; 0.0; -3.0 |] in
  checkb "in-place" true (result == into);
  check Alcotest.(array (float 1e-9)) "elementwise sum" [| 1.5; 2.0; 0.0 |] into

let () =
  let q = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "gqkg_util"
    [
      ( "splitmix",
        [
          Alcotest.test_case "deterministic" `Quick test_splitmix_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_splitmix_seed_sensitivity;
          Alcotest.test_case "int bounds" `Quick test_splitmix_int_bounds;
          Alcotest.test_case "int bad bound" `Quick test_splitmix_int_rejects_bad_bound;
          Alcotest.test_case "int_in_range" `Quick test_splitmix_int_in_range;
          Alcotest.test_case "unit float" `Quick test_splitmix_float_unit;
          Alcotest.test_case "split independence" `Quick test_splitmix_split_independent;
          Alcotest.test_case "bernoulli rate" `Quick test_splitmix_bernoulli_rate;
          Alcotest.test_case "gaussian moments" `Quick test_splitmix_gaussian_moments;
          Alcotest.test_case "poisson mean" `Quick test_splitmix_poisson_mean;
          Alcotest.test_case "shuffle permutation" `Quick test_shuffle_is_permutation;
          Alcotest.test_case "sample w/o replacement" `Quick test_sample_without_replacement;
        ] );
      ( "bitset",
        [
          Alcotest.test_case "words_for" `Quick test_bitset_words_for;
          Alcotest.test_case "raw roundtrip" `Quick test_bitset_raw_roundtrip;
          Alcotest.test_case "raw union/equal/hash" `Quick test_bitset_raw_union_equal_hash;
          Alcotest.test_case "growable" `Quick test_bitset_growable;
        ] );
      ( "parallel",
        [
          Alcotest.test_case "slices cover" `Quick test_parallel_slices_cover;
          Alcotest.test_case "map_slices domain-independent" `Quick
            test_parallel_map_slices_domain_independent;
          Alcotest.test_case "sum_float_arrays" `Quick test_parallel_sum_float_arrays;
        ] );
      ( "stats",
        [
          Alcotest.test_case "mean/variance" `Quick test_stats_mean_variance;
          Alcotest.test_case "quantiles" `Quick test_stats_quantiles;
          Alcotest.test_case "chi-square uniform" `Quick test_stats_chi_square_uniform;
          Alcotest.test_case "chi-square skew" `Quick test_stats_chi_square_detects_skew;
          Alcotest.test_case "relative error" `Quick test_stats_relative_error;
          Alcotest.test_case "summary" `Quick test_stats_summary;
        ] );
      ( "union_find",
        [
          Alcotest.test_case "basics" `Quick test_union_find_basics;
          Alcotest.test_case "labeling" `Quick test_union_find_labeling;
        ] );
      ( "heap",
        [
          Alcotest.test_case "sorts" `Quick test_heap_sorts;
          Alcotest.test_case "empty" `Quick test_heap_empty;
        ] );
      ( "alias",
        [
          Alcotest.test_case "distribution" `Quick test_alias_distribution;
          Alcotest.test_case "zero weight" `Quick test_alias_zero_weight_never_drawn;
          Alcotest.test_case "bad input" `Quick test_alias_rejects_bad_input;
          Alcotest.test_case "sample_weights" `Quick test_sample_weights_matches;
        ] );
      ("dynarray", [ Alcotest.test_case "basics" `Quick test_dynarray ]);
      ( "table",
        [
          Alcotest.test_case "renders" `Quick test_table_renders;
          Alcotest.test_case "bar chart" `Quick test_table_bar_chart;
        ] );
      ( "vec",
        [
          Alcotest.test_case "ops" `Quick test_vec_ops;
          Alcotest.test_case "mat_mul" `Quick test_mat_mul;
        ] );
      ( "properties",
        q [ prop_shuffle_permutation; prop_quantile_monotone; prop_union_find_transitive; prop_heap_min ]
      );
    ]
