(* Regular expressions over graphs, grammar (1) of Section 4 together with
   its property-graph and vector-labeled extensions:

     test ::= ℓ | (p = v) | (f_i = v) | (¬test) | (test ∨ test) | (test ∧ test)
     r    ::= ?test | test | test⁻ | (r + r) | (r / r) | (r)*

   A test is a boolean combination of atomic tests (Atom.t); which atoms a
   given data model supports is the model's business (Snapshot.t oracle). *)

open Gqkg_graph

type test = Atom of Atom.t | Not of test | Or of test * test | And of test * test

type t =
  | Node_test of test  (** [?test] — zero-length paths at satisfying nodes *)
  | Fwd of test  (** [test] — one forward edge whose label/properties satisfy it *)
  | Bwd of test  (** [test⁻] — one edge traversed against its direction *)
  | Alt of t * t  (** [(r + r)] *)
  | Seq of t * t  (** [(r / r)] *)
  | Star of t  (** [(r)*] — Kleene iteration *)

(* Smart constructors for the derived forms. *)
let label l = Fwd (Atom (Atom.label l))
let node_label l = Node_test (Atom (Atom.label l))

(* A tautological test: satisfied by every node and edge. *)
let any_test = Or (Atom (Atom.Label Const.bottom), Not (Atom (Atom.Label Const.bottom)))
let any_edge = Fwd any_test
let opt r = Alt (Node_test any_test, r)
let plus r = Seq (r, Star r)

let rec seq_of_list = function
  | [] -> invalid_arg "Regex.seq_of_list: empty"
  | [ r ] -> r
  | r :: rest -> Seq (r, seq_of_list rest)

let rec alt_of_list = function
  | [] -> invalid_arg "Regex.alt_of_list: empty"
  | [ r ] -> r
  | r :: rest -> Alt (r, alt_of_list rest)

(* Evaluate a test given an oracle for its atoms (the usual interpretation
   of the boolean connectives, omitted in the paper). *)
let rec eval_test sat = function
  | Atom a -> sat a
  | Not t -> not (eval_test sat t)
  | Or (t1, t2) -> eval_test sat t1 || eval_test sat t2
  | And (t1, t2) -> eval_test sat t1 && eval_test sat t2

(* Does the test only mention [Label] atoms?  Such a test is a pure
   function of an edge's label, so the product kernel can evaluate it
   once per interned label instead of once per edge. *)
let rec label_pure = function
  | Atom (Atom.Label _) -> true
  | Atom (Atom.Prop _ | Atom.Feature _) -> false
  | Not t -> label_pure t
  | Or (t1, t2) | And (t1, t2) -> label_pure t1 && label_pure t2

let rec test_size = function
  | Atom _ -> 1
  | Not t -> 1 + test_size t
  | Or (t1, t2) | And (t1, t2) -> 1 + test_size t1 + test_size t2

let rec size = function
  | Node_test t | Fwd t | Bwd t -> 1 + test_size t
  | Alt (r1, r2) | Seq (r1, r2) -> 1 + size r1 + size r2
  | Star r -> 1 + size r

(* Shortest possible length (number of edges) of a matching path; used by
   the enumeration pruning and as a sanity bound. *)
let rec min_path_length = function
  | Node_test _ -> 0
  | Fwd _ | Bwd _ -> 1
  | Alt (r1, r2) -> min (min_path_length r1) (min_path_length r2)
  | Seq (r1, r2) -> min_path_length r1 + min_path_length r2
  | Star _ -> 0

(* Can the expression match a path of unbounded length? *)
let rec unbounded = function
  | Node_test _ | Fwd _ | Bwd _ -> false
  | Alt (r1, r2) -> unbounded r1 || unbounded r2
  | Seq (r1, r2) -> unbounded r1 || unbounded r2
  | Star r -> not (only_node_tests r)

and only_node_tests = function
  | Node_test _ -> true
  | Fwd _ | Bwd _ -> false
  | Alt (r1, r2) | Seq (r1, r2) -> only_node_tests r1 && only_node_tests r2
  | Star r -> only_node_tests r

(* Maximum length of a matching path, when bounded. *)
let max_path_length r =
  let rec go = function
    | Node_test _ -> Some 0
    | Fwd _ | Bwd _ -> Some 1
    | Alt (r1, r2) -> (
        match (go r1, go r2) with Some a, Some b -> Some (max a b) | _ -> None)
    | Seq (r1, r2) -> ( match (go r1, go r2) with Some a, Some b -> Some (a + b) | _ -> None)
    | Star r -> if only_node_tests r then Some 0 else None
  in
  go r

(* Reversal: [[reverse r]] is [[r]] with every path read back to front.
   Edge steps swap direction, concatenations swap order, node tests stay
   (a zero-length path is its own reverse).  Used by the evaluator to run
   a query from its targets when fewer nodes can end a match than start
   one. *)
let rec reverse = function
  | Node_test t -> Node_test t
  | Fwd t -> Bwd t
  | Bwd t -> Fwd t
  | Alt (r1, r2) -> Alt (reverse r1, reverse r2)
  | Seq (r1, r2) -> Seq (reverse r2, reverse r1)
  | Star r -> Star (reverse r)

let rec map_test_atoms f = function
  | Atom a -> Atom (f a)
  | Not t -> Not (map_test_atoms f t)
  | Or (t1, t2) -> Or (map_test_atoms f t1, map_test_atoms f t2)
  | And (t1, t2) -> And (map_test_atoms f t1, map_test_atoms f t2)

(* Concrete syntax, matching what the parser accepts (ASCII for ¬ ∨ ∧). *)
let rec test_to_string ?(top = false) t =
  let wrap s = if top then s else "(" ^ s ^ ")" in
  match t with
  | Atom a -> Atom.to_query_string a
  | Not t -> "!" ^ test_to_string t
  | Or (t1, t2) -> wrap (test_to_string t1 ^ " | " ^ test_to_string t2)
  | And (t1, t2) -> wrap (test_to_string t1 ^ " & " ^ test_to_string t2)

let rec to_string ?(top = false) r =
  let wrap s = if top then s else "(" ^ s ^ ")" in
  match r with
  | Node_test t -> "?" ^ test_to_string t
  | Fwd t -> test_to_string t
  | Bwd t -> test_to_string t ^ "^-"
  | Alt (r1, r2) -> wrap (to_string r1 ^ " + " ^ to_string r2)
  | Seq (r1, r2) -> wrap (to_string r1 ^ "/" ^ to_string r2)
  | Star r -> to_string r ^ "*"

let pp ppf r = Fmt.string ppf (to_string ~top:true r)

let rec equal_test a b =
  match (a, b) with
  | Atom x, Atom y -> Atom.equal x y
  | Not x, Not y -> equal_test x y
  | Or (x1, x2), Or (y1, y2) | And (x1, x2), And (y1, y2) -> equal_test x1 y1 && equal_test x2 y2
  | (Atom _ | Not _ | Or _ | And _), _ -> false

let rec equal a b =
  match (a, b) with
  | Node_test x, Node_test y | Fwd x, Fwd y | Bwd x, Bwd y -> equal_test x y
  | Alt (x1, x2), Alt (y1, y2) | Seq (x1, x2), Seq (y1, y2) -> equal x1 y1 && equal x2 y2
  | Star x, Star y -> equal x y
  | (Node_test _ | Fwd _ | Bwd _ | Alt _ | Seq _ | Star _), _ -> false

(* Algebraic simplification: a bottom-up rewriting pass applying the
   Kleene-algebra identities that shrink the Thompson automaton without
   changing [[r]]:

     r + r = r          star of star = star     (?any)/r = r = r/(?any)
     star of opt = star     star/star = star     Alt/Seq deduplication

   ?any is the tautological node test (matched by every node), the unit
   of concatenation.  Equivalence is checked by property tests against
   the unsimplified expression on random graphs. *)

let is_any_node_test = function
  | Node_test (Or (Atom a, Not (Atom b))) -> Gqkg_graph.Atom.equal a b
  | Node_test _ | Fwd _ | Bwd _ | Alt _ | Seq _ | Star _ -> false

let rec simplify r =
  match r with
  | Node_test _ | Fwd _ | Bwd _ -> r
  | Alt (a, b) -> begin
      let a = simplify a and b = simplify b in
      (* Deduplicate across the whole alternation, preserving order. *)
      let rec branches = function Alt (x, y) -> branches x @ branches y | r -> [ r ] in
      let all = branches (Alt (a, b)) in
      let distinct =
        List.fold_left (fun acc r -> if List.exists (equal r) acc then acc else r :: acc) [] all
        |> List.rev
      in
      alt_of_list distinct
    end
  | Seq (a, b) -> begin
      match (simplify a, simplify b) with
      | a, b when is_any_node_test a -> b (* unit elimination *)
      | a, b when is_any_node_test b -> a
      | Star x, Star y when equal x y -> Star x (* star/star = star *)
      | a, b -> Seq (a, b)
    end
  | Star r -> begin
      match simplify r with
      | Star inner -> Star inner (* star of star *)
      | Alt (x, inner) when is_any_node_test x -> begin
          (* star of opt = star *)
          match inner with Star deep -> Star deep | inner -> Star inner
        end
      | inner when is_any_node_test inner -> inner (* (?any)* = ?any *)
      | inner -> Star inner
    end
