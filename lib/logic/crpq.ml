(* Conjunctive regular path queries (CRPQs): the closure of conjunctive
   queries under regular path atoms — the backbone of modern graph query
   languages (SPARQL property paths, Cypher patterns, G-CORE; the paper's
   reference model [Angles et al. 2017]).

     Q(x̄) :- (x₁, r₁, y₁), ..., (x_m, r_m, y_m)

   where every rᵢ is a full Section 4 regular expression with tests.
   The atoms go through the one conjunctive compiler
   ({!Gqkg_core.Conjunctive}, shared with SPARQL BGPs): postings sets for
   node-label atoms, zero-copy CSR views for single edge labels, and
   relations through the Governor's result cache for every other
   regex; the worst-case-optimal join ({!Gqkg_core.Join}) then solves the
   conjunction variable-by-variable under a planned global order.

   [max_length] bounds path length per atom (needed only to tame costs on
   star-heavy patterns; answers are complete regardless because the
   product is finite); a negative one raises [Invalid_argument]. *)

open Gqkg_automata
module Join = Gqkg_core.Join
module Conjunctive = Gqkg_core.Conjunctive

type atom = { src : string; regex : Regex.t; dst : string }

type t = { head : string list; body : atom list; limit : int option }

let atom ~src ~regex ~dst = { src; regex; dst }

let query ?limit ~head ~body () =
  (match limit with
  | Some l when l < 0 -> invalid_arg "Crpq.query: negative limit"
  | _ -> ());
  { head; body; limit }

module Vars = Set.Make (String)

let atom_vars a = Vars.add a.src (Vars.singleton a.dst)
let body_vars body = List.fold_left (fun acc a -> Vars.union acc (atom_vars a)) Vars.empty body

let validate_head q =
  List.iter
    (fun v ->
      if not (Vars.mem v (body_vars q.body)) then
        invalid_arg (Printf.sprintf "Crpq: head variable %s not bound by the body" v))
    q.head

let to_string q =
  Printf.sprintf "SELECT %s WHERE %s%s" (String.concat ", " q.head)
    (String.concat ", "
       (List.map
          (fun a -> Printf.sprintf "(%s)-[%s]->(%s)" a.src (Regex.to_string ~top:true a.regex) a.dst)
          q.body))
    (match q.limit with Some l -> Printf.sprintf " LIMIT %d" l | None -> "")

(* WCOJ path: the atoms through the one conjunctive compiler. *)
let specs ?budget ?max_length inst body =
  let endpoints a = { Conjunctive.src = Var a.src; mid = Regex a.regex; dst = Var a.dst } in
  fst (Conjunctive.compile ?budget ?max_length inst (List.map endpoints body))

(* Evaluate, calling [yield] once per distinct head tuple. *)
let iter_answers ?budget ?max_length inst q ~yield =
  validate_head q;
  let specs = specs ?budget ?max_length inst q.body in
  let count = ref 0 in
  let exception Enough in
  try
    Join.solve ?budget ~snapshot:inst specs ~vars:q.head ~yield:(fun row ->
        yield (Array.to_list row);
        incr count;
        match q.limit with Some l when !count >= l -> raise Enough | _ -> ())
  with Enough -> ()

let answers ?budget ?max_length inst q =
  let out = ref [] in
  iter_answers ?budget ?max_length inst q ~yield:(fun row -> out := row :: !out);
  List.sort compare !out

let answer_nodes ?budget ?max_length inst q =
  List.filter_map (function [ v ] -> Some v | _ -> None) (answers ?budget ?max_length inst q)

(* ------------------------------------------------------------------ *)
(* Materialized relations for the oracles                             *)
(* ------------------------------------------------------------------ *)

(* The fully-indexed relation of one path atom (oracle machinery; the
   WCOJ path uses sorted pair arrays instead). *)
type atom_relation = {
  pairs : (int * int) list;
  forward : (int, int list) Hashtbl.t; (* src -> dsts *)
  backward : (int, int list) Hashtbl.t; (* dst -> srcs *)
  pair_set : (int * int, unit) Hashtbl.t;
}

let materialize_atom ?max_length inst regex =
  let pairs = Gqkg_core.Rpq.eval_pairs ?max_length inst regex in
  let forward = Hashtbl.create 64 and backward = Hashtbl.create 64 in
  let pair_set = Hashtbl.create 256 in
  let push tbl k v = Hashtbl.replace tbl k (v :: Option.value (Hashtbl.find_opt tbl k) ~default:[]) in
  List.iter
    (fun (a, b) ->
      push forward a b;
      push backward b a;
      Hashtbl.replace pair_set (a, b) ())
    pairs;
  { pairs; forward; backward; pair_set }

(* Prepass variable numbering: oracle environments are int slot arrays
   (-1 unbound), constant-time lookup instead of List.assoc. *)
let number_vars body =
  let ids = Hashtbl.create 16 in
  let next = ref 0 in
  List.iter
    (fun a ->
      List.iter
        (fun v ->
          if not (Hashtbl.mem ids v) then begin
            Hashtbl.add ids v !next;
            incr next
          end)
        [ a.src; a.dst ])
    body;
  (ids, max 1 !next)

(* Candidate count of an atom under the current bindings. *)
let atom_cost rel env ~ssrc ~sdst =
  match (env.(ssrc), env.(sdst)) with
  | s, d when s >= 0 && d >= 0 -> 1
  | s, _ when s >= 0 -> List.length (Option.value (Hashtbl.find_opt rel.forward s) ~default:[])
  | _, d when d >= 0 -> List.length (Option.value (Hashtbl.find_opt rel.backward d) ~default:[])
  | _ -> List.length rel.pairs

let atom_matches rel env ~ssrc ~sdst k =
  let with_binding v value k =
    env.(v) <- value;
    k ();
    env.(v) <- -1
  in
  match (env.(ssrc) >= 0, env.(sdst) >= 0) with
  | true, true -> if Hashtbl.mem rel.pair_set (env.(ssrc), env.(sdst)) then k ()
  | true, false ->
      List.iter
        (fun d -> with_binding sdst d k)
        (Option.value (Hashtbl.find_opt rel.forward env.(ssrc)) ~default:[])
  | false, true ->
      List.iter
        (fun s -> with_binding ssrc s k)
        (Option.value (Hashtbl.find_opt rel.backward env.(sdst)) ~default:[])
  | false, false ->
      List.iter
        (fun (s, d) ->
          if ssrc = sdst then begin
            if s = d then with_binding ssrc s k
          end
          else with_binding ssrc s (fun () -> with_binding sdst d k))
        rel.pairs

(* Reference oracle: the pre-WCOJ greedy backtracking join (cheapest
   atom first under the current bindings), yielding distinct head
   tuples with LIMIT applied. *)
let iter_answers_backtrack ?max_length inst q ~yield =
  validate_head q;
  let cache = Hashtbl.create 8 in
  let ids, num_vars = number_vars q.body in
  let env = Array.make num_vars (-1) in
  let relations =
    List.map
      (fun a ->
        let key = Regex.to_string ~top:true a.regex in
        let rel =
          match Hashtbl.find_opt cache key with
          | Some rel -> rel
          | None ->
              let rel = materialize_atom ?max_length inst a.regex in
              Hashtbl.add cache key rel;
              rel
        in
        (Hashtbl.find ids a.src, Hashtbl.find ids a.dst, rel))
      q.body
  in
  let head_slots = List.map (Hashtbl.find ids) q.head in
  let seen = Hashtbl.create 64 in
  let exception Enough in
  let rec solve remaining =
    match remaining with
    | [] ->
        let answer = List.map (fun v -> env.(v)) head_slots in
        if not (Hashtbl.mem seen answer) then begin
          Hashtbl.replace seen answer ();
          yield answer;
          match q.limit with
          | Some l when Hashtbl.length seen >= l -> raise Enough
          | _ -> ()
        end
    | _ ->
        let best = ref None in
        List.iter
          (fun ((ssrc, sdst, rel) as entry) ->
            let cost = atom_cost rel env ~ssrc ~sdst in
            match !best with
            | Some (_, c) when c <= cost -> ()
            | _ -> best := Some (entry, cost))
          remaining;
        (match !best with
        | None -> ()
        | Some (((ssrc, sdst, rel) as entry), _) ->
            let rest = List.filter (fun e -> e != entry) remaining in
            atom_matches rel env ~ssrc ~sdst (fun () -> solve rest))
  in
  (try solve relations with Enough -> ())

let answers_backtrack ?max_length inst q =
  let out = ref [] in
  iter_answers_backtrack ?max_length inst q ~yield:(fun row -> out := row :: !out);
  List.sort compare !out

(* Full solution mappings (every body variable bound), deduplicated. *)
let solutions ?budget ?max_length inst q =
  let vars = Vars.elements (body_vars q.body) in
  let out = ref [] in
  (* Selecting every body variable makes iter_answers' dedup a dedup of
     full solution mappings. *)
  iter_answers ?budget ?max_length inst { q with head = vars } ~yield:(fun row ->
      out := List.combine vars row :: !out);
  List.rev !out

(* Solutions with one shortest witness path per atom — paths as
   first-class results, the G-CORE idea the paper's reference [5]
   advocates.  Witness search is memoized per (atom regex, endpoints). *)
let solutions_with_witnesses ?max_length inst q =
  let cache = Hashtbl.create 64 in
  let witness regex s d =
    let key = (Regex.to_string ~top:true regex, s, d) in
    match Hashtbl.find_opt cache key with
    | Some w -> w
    | None ->
        let w = Gqkg_core.Rpq.shortest_witness ?max_length inst regex ~source:s ~target:d in
        Hashtbl.add cache key w;
        w
  in
  List.filter_map
    (fun env ->
      let witnesses =
        List.map
          (fun a ->
            match witness a.regex (List.assoc a.src env) (List.assoc a.dst env) with
            | Some p -> Some (a, p)
            | None -> None)
          q.body
      in
      if List.for_all Option.is_some witnesses then
        Some (env, List.map Option.get witnesses)
      else None (* cannot happen for genuine solutions; defensive *))
    (solutions ?max_length inst q)

(* Plan explanation: per-atom relation sizes/kinds and the chosen
   global variable order with its estimates. *)
let explain ?max_length inst q =
  Conjunctive.explain ~header:(to_string q) inst (specs ?max_length inst q.body)
