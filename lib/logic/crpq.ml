(* Conjunctive regular path queries (CRPQs): the closure of conjunctive
   queries under regular path atoms — the backbone of modern graph query
   languages (SPARQL property paths, Cypher patterns, G-CORE; the paper's
   reference model [Angles et al. 2017]).

     Q(x̄) :- (x₁, r₁, y₁), ..., (x_m, r_m, y_m)

   where every rᵢ is a full Section 4 regular expression with tests.
   Evaluation goes through the worst-case-optimal multiway join engine
   ({!Gqkg_core.Join}): a node-label atom (x, ?c, x) is the label's
   postings set and a single-edge-label atom a zero-copy view over the
   label-sorted CSR index (no materialization), so a conjunctive query
   over labels never runs the product engine; every other atom's
   endpoint relation is computed once by the batched Frontier-backed
   product engine ({!Gqkg_core.Join.path_pairs}) and shared across
   identical regexes, and the conjunction is solved variable-by-variable
   under a planned global order.

   [max_length] bounds path length per atom (needed only to tame costs on
   star-heavy patterns; answers are complete regardless because the
   product is finite). *)

open Gqkg_graph
open Gqkg_automata
module Join = Gqkg_core.Join

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

(* ------------------------------------------------------------------ *)
(* WCOJ path: compile atoms to join specs                             *)
(* ------------------------------------------------------------------ *)

(* A single-edge-label atom needs no materialization: its relation IS
   the label's CSR adjacency.  [Bwd] flips the endpoint roles (a
   backward step from x lands on the edge's source). *)
let csr_label inst ?max_length regex =
  if inst.Snapshot.num_labels = 0 then None
  else if (match max_length with Some k -> k < 1 | None -> false) then None
  else
    match regex with
    | Regex.Fwd (Regex.Atom (Atom.Label c)) -> Some (c, false)
    | Regex.Bwd (Regex.Atom (Atom.Label c)) -> Some (c, true)
    | _ -> None

let atom_display a =
  Printf.sprintf "(%s)-[%s]->(%s)" a.src (Regex.to_string ~top:true a.regex) a.dst

(* A node-label atom (x, ?c, x) is the unary relation of the label's
   postings.  Under a negative [max_length] it stays a product run, so
   what such a bound admits is decided in one place. *)
let node_label ?max_length a =
  match (a.regex, max_length) with
  | _, Some k when k < 0 -> None
  | Regex.Node_test (Regex.Atom (Atom.Label c)), _ when a.src = a.dst -> Some c
  | _ -> None

(* One spec per atom; identical regexes share one materialization
   through [cache] (keyed by the printed form). *)
let join_specs ?budget ?max_length inst body =
  let idx = Join.Index.get inst in
  let cache = Hashtbl.create 8 in
  List.map
    (fun a ->
      match (node_label ?max_length a, csr_label inst ?max_length a.regex) with
      | Some c, _ ->
          Join.atom ~name:(atom_display a) [| a.src |]
            (Join.Set (Join.Index.nodes_with_const_label idx c))
      | None, Some (c, flipped) ->
          let vars = if flipped then [| a.dst; a.src |] else [| a.src; a.dst |] in
          Join.atom ~name:(atom_display a) vars
            (Join.Edges (Join.Index.edge_label_ids idx c))
      | None, None ->
          let key = Regex.to_string ~top:true a.regex in
          let pairs =
            match Hashtbl.find_opt cache key with
            | Some pairs -> pairs
            | None ->
                let pairs = Join.path_pairs ?budget ?max_length inst a.regex in
                Hashtbl.add cache key pairs;
                pairs
          in
          Join.atom ~name:(atom_display a) [| a.src; a.dst |] (Join.Pairs pairs))
    body

(* Evaluate, calling [yield] once per distinct head tuple. *)
let iter_answers ?budget ?max_length inst q ~yield =
  validate_head q;
  let specs = join_specs ?budget ?max_length inst q.body in
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
  let pairs = Join.path_pairs ?max_length inst regex in
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

(* Reference evaluator: enumerate all assignments of body variables and
   check every atom — exponential, the oracle for tests. *)
let answers_naive ?max_length inst q =
  let vars = Vars.elements (body_vars q.body) in
  let relations =
    List.map (fun a -> (a, materialize_atom ?max_length inst a.regex)) q.body
  in
  let n = inst.Snapshot.num_nodes in
  let seen = Hashtbl.create 64 in
  let out = ref [] in
  let rec assign env = function
    | [] ->
        if
          List.for_all
            (fun (a, rel) -> Hashtbl.mem rel.pair_set (List.assoc a.src env, List.assoc a.dst env))
            relations
        then begin
          let answer = List.map (fun v -> List.assoc v env) q.head in
          if not (Hashtbl.mem seen answer) then begin
            Hashtbl.replace seen answer ();
            out := answer :: !out
          end
        end
    | v :: rest ->
        for node = 0 to n - 1 do
          assign ((v, node) :: env) rest
        done
  in
  assign [] vars;
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
  let specs = join_specs ?max_length inst q.body in
  let plan = Join.plan ~snapshot:inst specs in
  let buf = Buffer.create 256 in
  Buffer.add_string buf (to_string q);
  Buffer.add_string buf "\npath atoms (csr = zero-copy adjacency view):\n";
  List.iter
    (fun (name, kind, rows) ->
      Buffer.add_string buf
        (Printf.sprintf "  %s: %d endpoint pairs [%s]\n" name rows kind))
    plan.Join.atom_summary;
  Buffer.add_string buf (plan.Join.rendered);
  Buffer.contents buf
