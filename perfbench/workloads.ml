(* Seeded inputs of the benchmark workloads: the graphs, the request
   streams and the fixed join-batch patterns.  Everything here is a pure
   function of the workload seed, so a run can be repeated byte for
   byte and the generator tests can check the streams' properties. *)

module Splitmix = Gqkg_util.Splitmix
module Contact_network = Gqkg_workload.Contact_network
module Bibliometrics = Gqkg_workload.Bibliometrics
module Jsonx = Gqkg_server.Jsonx
module Regex_parser = Gqkg_automata.Regex_parser
module Rpq = Gqkg_core.Rpq

type workload = Hot_reads | Cold_reads | Write_mix | Join_batch

let all = [ Hot_reads; Cold_reads; Write_mix; Join_batch ]

let name = function
  | Hot_reads -> "hot-reads"
  | Cold_reads -> "cold-reads"
  | Write_mix -> "write-mix"
  | Join_batch -> "join-batch"

let of_name s = List.find_opt (fun w -> name w = s) all

(* ---- the served graph ------------------------------------------------ *)

(* Sized so a hot key answers 1.5k-2.5k pairs (its 1000-pair page is
   always full) and a cold key costs ~10 ms of planning and kernel work
   server-side. *)
let contact_params =
  {
    Contact_network.people = 1800;
    infected = 0.15;
    buses = 60;
    companies = 6;
    addresses = 600;
    household = 3;
    rides_per_person = 2;
    contacts = 12_000;
  }

(* The graph the Naive spot check runs on: same shape, small enough for
   the exponential reference evaluator. *)
let small_params =
  {
    Contact_network.people = 60;
    infected = 0.3;
    buses = 6;
    companies = 2;
    addresses = 20;
    household = 3;
    rides_per_person = 2;
    contacts = 240;
  }

(* Independent sub-streams of one seed, so e.g. changing the request
   stream never changes the graph. *)
let rng ~seed stream = Splitmix.create ((seed * 1_000_003) + stream)

let contact_graph ?(params = contact_params) seed =
  Contact_network.generate ~params (rng ~seed 1)

let min_age = 5
let max_age = 90

let hot_query age = Printf.sprintf "?(person & age=%d)/rides/?bus/rides^-/?person" age

let cold_query age (month, day) =
  Printf.sprintf
    "?(person & age=%d)/(contact & date=%d/%d/21)^-/?infected/rides/?bus/rides^-/?person" age
    month day

(* Longest path any workload query matches: the Naive bound. *)
let max_query_length = 5

(* ---- wire lines ------------------------------------------------------ *)

let page_limit = 1000

let query_line ~id ~limit q =
  Jsonx.to_string
    (Jsonx.Obj
       [
         ("op", Jsonx.Str "query");
         ("id", Jsonx.Num (float_of_int id));
         ("q", Jsonx.Str q);
         ("limit", Jsonx.Num (float_of_int limit));
       ])

let mutate_line ~id ops =
  Jsonx.to_string
    (Jsonx.Obj
       [
         ("op", Jsonx.Str "mutate");
         ("id", Jsonx.Num (float_of_int id));
         ("ops", Jsonx.Arr (List.map (fun l -> Jsonx.Str l) ops));
       ])

(* Write [k]: a new person aged [age] who rides a bus, plus a new dated
   contact edge to an existing person, committed as one epoch.  The
   script also deletes write [k - 1]'s person, and with it that person's
   two edges, so exactly one written person exists at any time: every
   commit changes the answers of the hot keys (a lost write shows in the
   checks) while the graph's size, and so the cost of a read or a
   commit, stays the same over a run.  [tag] keeps the ids of different
   script families apart. *)
let write_script rng ~tag ~age k =
  let id prefix j = Printf.sprintf "%s%s%d" prefix tag j in
  [
    Printf.sprintf "node %s person" (id "w" k);
    Printf.sprintf "nprop %s age=%d" (id "w" k) age;
    Printf.sprintf "edge %s %s b%d rides" (id "y" k) (id "w" k)
      (Splitmix.int rng contact_params.Contact_network.buses);
    Printf.sprintf "edge %s %s p%d contact" (id "x" k) (id "w" k)
      (Splitmix.int rng contact_params.Contact_network.people);
    Printf.sprintf "eprop %s date=%d/%d/21" (id "x" k)
      (Splitmix.int_in_range rng ~lo:1 ~hi:4)
      (Splitmix.int_in_range rng ~lo:1 ~hi:28);
  ]
  @ if k > 0 then [ Printf.sprintf "delnode %s" (id "w" (k - 1)) ] else []

(* ---- request streams ------------------------------------------------- *)

type stream = {
  warm : string array;  (** untimed: fills caches, not measured *)
  timed : string array;  (** sent in order until the run's time is up *)
  probe : string array;
      (** untimed writes after the timed phase: write_p50_ms of the workloads without writes *)
  connections : int;
  params : (string * Jsonx.t) list;  (** workload parameters for the run record *)
}

(* Upper bounds on the request rate, so a timed stream never runs dry. *)
let max_rate = function Hot_reads -> 4000 | Cold_reads -> 400 | Write_mix -> 3000 | Join_batch -> 0

let result_cache_entries = 128
let hot_pool_max = 96
let write_every = 20
let write_keys = 4
(* enough for the write probe's seconds, a warm-up included, at well
   over today's commit rate *)
let probe_writes = 4000

(* Warm-up lengths: about 1.5 s each, long enough for the daemon's heap
   and caches to reach the steady state the timed phase measures. *)
let hot_warm_rounds = 20
let write_warm_cycles = 20
let cold_warm = 96

(* Totals of every hot key on the graph, ascending by age. *)
let hot_totals snap =
  List.init (max_age - min_age + 1) (fun i ->
      let age = min_age + i in
      (age, List.length (Rpq.eval_pairs snap (Regex_parser.parse (hot_query age)))))

(* Hot keys whose page is full (total above the page limit), so every
   hit renders exactly [page_limit] pairs. *)
let full_page_ages totals = List.filter (fun (_, t) -> t > page_limit) totals

let probe_stream ~seed ~first_id =
  let r = rng ~seed 4 in
  Array.init probe_writes (fun k ->
      let age = Splitmix.int_in_range r ~lo:min_age ~hi:max_age in
      mutate_line ~id:(first_id + k) (write_script r ~tag:"p" ~age k))

let hot_stream ~seed ~seconds totals =
  let r = rng ~seed 2 in
  let pool = Array.of_list (List.map fst (full_page_ages totals)) in
  Splitmix.shuffle_in_place r pool;
  let pool = Array.sub pool 0 (min hot_pool_max (Array.length pool)) in
  let n = Array.length pool in
  if n = 0 then failwith "hot-reads: no hot key fills a page";
  let id = ref 0 in
  let next age =
    incr id;
    query_line ~id:!id ~limit:page_limit (hot_query age)
  in
  let warm = Array.init (hot_warm_rounds * n) (fun i -> next pool.(i mod n)) in
  let timed =
    Array.init (max_rate Hot_reads * seconds) (fun i ->
        if i mod n = 0 && i > 0 then Splitmix.shuffle_in_place r pool;
        next pool.(i mod n))
  in
  {
    warm;
    timed;
    probe = probe_stream ~seed ~first_id:(!id + 1);
    connections = 1;
    params = [ ("pool_keys", Jsonx.Num (float_of_int n)) ];
  }

let cold_stream ~seed ~seconds =
  let r = rng ~seed 2 in
  let keys =
    Array.init ((max_age - min_age + 1) * 4 * 28) (fun i ->
        (min_age + (i / 112), (1 + (i mod 112 / 28), 1 + (i mod 28))))
  in
  Splitmix.shuffle_in_place r keys;
  let n_timed = min (max_rate Cold_reads * seconds) (Array.length keys - cold_warm) in
  let line i =
    let age, date = keys.(i) in
    query_line ~id:(i + 1) ~limit:page_limit (cold_query age date)
  in
  {
    warm = Array.init cold_warm line;
    timed = Array.init n_timed (fun i -> line (cold_warm + i));
    probe = probe_stream ~seed ~first_id:(cold_warm + n_timed + 1);
    connections = 2;
    params = [ ("distinct_keys", Jsonx.Num (float_of_int (Array.length keys))) ];
  }

(* The [write_keys] full-page ages whose totals sit closest to the pool's
   median, so a recompute costs the same whichever key it is and p90
   never lands between two key classes. *)
let write_ages totals =
  let full = full_page_ages totals in
  let sorted = List.sort compare (List.map snd full) in
  let median = List.nth sorted (List.length sorted / 2) in
  full
  |> List.map (fun (age, t) -> (abs (t - median), age))
  |> List.sort compare
  |> List.filteri (fun i _ -> i < write_keys)
  |> List.map snd |> Array.of_list

let write_stream ~seed ~seconds totals =
  let r = rng ~seed 2 in
  let ages = write_ages totals in
  Splitmix.shuffle_in_place r ages;
  let writes = ref 0 in
  (* op i of a cycle: 0 is the write, 1..19 read the keys in turn; write
     k adds a person of key k mod 4's age *)
  let line i =
    let j = i mod write_every in
    if j = 0 then begin
      let k = !writes in
      incr writes;
      mutate_line ~id:(i + 1) (write_script r ~tag:"" ~age:ages.(k mod write_keys) k)
    end
    else query_line ~id:(i + 1) ~limit:page_limit (hot_query ages.((j - 1) mod write_keys))
  in
  let n_warm = write_warm_cycles * write_every in
  let warm = Array.init n_warm line in
  let n_timed = max_rate Write_mix * seconds / write_every * write_every in
  let timed = Array.init n_timed (fun i -> line (n_warm + i)) in
  {
    warm;
    timed;
    probe = [||];
    connections = 1;
    params =
      [
        ("hot_keys", Jsonx.Num (float_of_int write_keys));
        ("write_every", Jsonx.Num (float_of_int write_every));
      ];
  }

let stream workload ~seed ~seconds snap =
  match workload with
  | Hot_reads -> hot_stream ~seed ~seconds (hot_totals snap)
  | Cold_reads -> cold_stream ~seed ~seconds
  | Write_mix -> write_stream ~seed ~seconds (hot_totals snap)
  | Join_batch -> invalid_arg "Workloads.stream: join-batch has no request stream"

(* ---- join-batch ------------------------------------------------------ *)

let citation_papers = 4_000

let citations seed = Bibliometrics.citation_snapshot (rng ~seed 5) ~papers:citation_papers

let biblio_volume = 0.2
let biblio seed = Bibliometrics.generate ~volume_scale:biblio_volume (rng ~seed 6)

(* The cites triangle and extends-anchored co-citation shapes; the one
   regex atom is a two-step path from a small anchor set. *)
let crpq_patterns =
  [
    ("triangle", "SELECT x, y, z WHERE (x)-[cites]->(y), (y)-[cites]->(z), (x)-[cites]->(z)");
    ("cocited", "SELECT a, x, y WHERE (a)-[extends]->(x), (a)-[cites]->(y), (x)-[cites]->(y)");
    ( "co-extended",
      "SELECT a, b, y WHERE (a)-[extends]->(y), (b)-[extends]->(y), (a)-[cites]->(b)" );
    ("extends-path", "SELECT a, y WHERE (a)-[extends]->(x), (x)-[extends/cites]->(y)");
  ]

(* Figure 1: publications per keyword per year, one SPARQL-lite query
   per keyword grouped by year. *)
let sparql_query keyword =
  Printf.sprintf
    "SELECT ?p ?y WHERE { ?p a <urn:bib:Publication> . ?p <urn:bib:keyword> <urn:bib:kw/%s> . \
     ?p <urn:bib:year> ?y }"
    keyword
