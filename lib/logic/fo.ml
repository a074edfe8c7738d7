(* First-order logic over graph vocabularies (Section 4.3): node labels as
   unary predicates, edge labels as binary predicates, and the extensions
   the section's correspondence chain needs.

     φ ::= label(x) | label(x,y) | adj(x,y) | x=y | TC(step)(x,y)
         | ¬φ | φ∧φ | φ∨φ | ∃x φ | ∃≥k x φ | ∀x φ

   - adj(x,y) holds when any edge joins x and y in either direction: the
     undirected view of WL and the GNNs.  With counting quantifiers the
     two-variable fragment (width ≤ 2) is C², whose distinguishing power
     equals the Weisfeiler-Lehman test [Cai, Fürer & Immerman 1992];
     graded modal logic embeds into it ({!of_gml}).
   - TC(step)(x,y) is reachability logic [Alechina & Immerman 2000]: the
     pairs of the RPQ step/step*, or step* when reflexive (a star matches
     the empty path at every node).

   The φ(x) / ψ(x) example of the paper lives here, together with the two
   evaluation strategies it contrasts:

   - {!eval_naive}: direct Tarskian evaluation, looping over all nodes at
     every quantifier — O(n^q) for quantifier rank q;
   - {!eval_bounded}: bottom-up relational evaluation in which every
     subformula's extension is a table over its free variables.  When the
     formula reuses a bounded number of variables (the point of ψ(x)),
     every intermediate table is at most binary and evaluation is
     polynomial with a small exponent [Vardi 1995].

   Both read the snapshot directly: the naive evaluator walks adjacency
   lists, the bounded one reads label postings. *)

open Gqkg_graph
open Gqkg_automata

type formula =
  | Node_pred of Const.t * string  (** label(x) *)
  | Edge_pred of Const.t * string * string  (** label(x, y): an edge x→y so labeled *)
  | Adjacent of string * string  (** any edge between x and y, either way *)
  | Eq of string * string
  | Tc of { step : Regex.t; reflexive : bool; src : string; dst : string }
  | Neg of formula
  | And of formula * formula
  | Or of formula * formula
  | Exists of string * formula
  | Count_exists of int * string * formula  (** ∃≥k x φ *)
  | Forall of string * formula

let node_pred l x = Node_pred (Const.str l, x)
let edge_pred l x y = Edge_pred (Const.str l, x, y)
let tc ?(reflexive = false) step ~src ~dst = Tc { step; reflexive; src; dst }

let rec and_of = function
  | [] -> invalid_arg "Fo.and_of: empty"
  | [ f ] -> f
  | f :: rest -> And (f, and_of rest)

module Vars = Set.Make (String)

(* Variables of a formula; [quantified x vs] says what a quantifier on x
   does to the variables of its body. *)
let rec vars ~quantified = function
  | Node_pred (_, x) -> Vars.singleton x
  | Edge_pred (_, x, y) | Adjacent (x, y) | Eq (x, y) | Tc { src = x; dst = y; _ } ->
      Vars.add x (Vars.singleton y)
  | Neg f -> vars ~quantified f
  | And (f, g) | Or (f, g) -> Vars.union (vars ~quantified f) (vars ~quantified g)
  | Exists (x, f) | Count_exists (_, x, f) | Forall (x, f) -> quantified x (vars ~quantified f)

let free_vars = vars ~quantified:Vars.remove

(* Total number of distinct variable names used: the "number of variables"
   resource the paper's ψ(x) example economizes. *)
let all_vars = vars ~quantified:Vars.add
let width f = Vars.cardinal (all_vars f)

let rec quantifier_rank = function
  | Node_pred _ | Edge_pred _ | Adjacent _ | Eq _ | Tc _ -> 0
  | Neg f -> quantifier_rank f
  | And (f, g) | Or (f, g) -> max (quantifier_rank f) (quantifier_rank g)
  | Exists (_, f) | Count_exists (_, _, f) | Forall (_, f) -> 1 + quantifier_rank f

let rec to_string = function
  | Node_pred (l, x) -> Printf.sprintf "%s(%s)" (Const.to_string l) x
  | Edge_pred (l, x, y) -> Printf.sprintf "%s(%s,%s)" (Const.to_string l) x y
  | Adjacent (x, y) -> Printf.sprintf "adj(%s,%s)" x y
  | Eq (x, y) -> Printf.sprintf "%s=%s" x y
  | Tc { step; reflexive; src; dst } ->
      Printf.sprintf "TC%s(%s)(%s,%s)" (if reflexive then "0" else "")
        (Regex.to_string ~top:true step) src dst
  | Neg f -> Printf.sprintf "~%s" (to_string f)
  | And (f, g) -> Printf.sprintf "(%s & %s)" (to_string f) (to_string g)
  | Or (f, g) -> Printf.sprintf "(%s | %s)" (to_string f) (to_string g)
  | Exists (x, f) -> Printf.sprintf "E%s.%s" x (to_string f)
  | Count_exists (k, x, f) -> Printf.sprintf "E>=%d %s.%s" k x (to_string f)
  | Forall (x, f) -> Printf.sprintf "A%s.%s" x (to_string f)

let pp ppf f = Fmt.string ppf (to_string f)

let rec thresholds_positive = function
  | Node_pred _ | Edge_pred _ | Adjacent _ | Eq _ | Tc _ -> true
  | Count_exists (k, _, f) -> k >= 1 && thresholds_positive f
  | Neg f | Exists (_, f) | Forall (_, f) -> thresholds_positive f
  | And (f, g) | Or (f, g) -> thresholds_positive f && thresholds_positive g

let check_unary formula ~free =
  if not (Vars.subset (free_vars formula) (Vars.singleton free)) then
    invalid_arg
      (Printf.sprintf "Fo: formula has free variables beyond %s: %s" free
         (String.concat ", " (Vars.elements (Vars.remove free (free_vars formula)))));
  if not (thresholds_positive formula) then invalid_arg "Fo: counting threshold below 1"

(* The pairs of TC(step): the RPQ step/step*, or step* when reflexive. *)
let tc_pairs inst step ~reflexive =
  Gqkg_core.Rpq.eval_pairs inst (if reflexive then Regex.Star step else Regex.plus step)

(* ---------------- Naive Tarskian evaluation --------------------------- *)

(* Does some out-edge (e, head) of [v] satisfy [p]? *)
let exists_out inst v p =
  let found = ref false in
  Snapshot.iter_out inst v (fun e w -> if p e w then found := true);
  !found

(* Unary query: the nodes x satisfying φ(x).  An environment binds
   variables innermost first; each TC atom's pairs are computed once. *)
let eval_naive inst formula ~free =
  check_unary formula ~free;
  let n = inst.Snapshot.num_nodes in
  let closures = Hashtbl.create 4 in
  let closure step reflexive =
    match Hashtbl.find_opt closures (step, reflexive) with
    | Some set -> set
    | None ->
        let set = Hashtbl.create 64 in
        List.iter (fun pair -> Hashtbl.replace set pair ()) (tc_pairs inst step ~reflexive);
        Hashtbl.add closures (step, reflexive) set;
        set
  in
  let rec holds env = function
    | Node_pred (l, x) -> Snapshot.node_atom inst (List.assoc x env) (Atom.Label l)
    | Edge_pred (l, x, y) ->
        let d = List.assoc y env in
        exists_out inst (List.assoc x env) (fun e w -> w = d && Snapshot.edge_atom inst e (Atom.Label l))
    | Adjacent (x, y) ->
        let u = List.assoc x env and v = List.assoc y env in
        exists_out inst u (fun _ w -> w = v) || exists_out inst v (fun _ w -> w = u)
    | Eq (x, y) -> List.assoc x env = List.assoc y env
    | Tc { step; reflexive; src; dst } ->
        Hashtbl.mem (closure step reflexive) (List.assoc src env, List.assoc dst env)
    | Neg f -> not (holds env f)
    | And (f, g) -> holds env f && holds env g
    | Or (f, g) -> holds env f || holds env g
    | Exists (x, f) -> holds env (Count_exists (1, x, f))
    | Forall (x, f) -> not (holds env (Count_exists (1, x, Neg f)))
    | Count_exists (k, x, f) ->
        (* Stops as soon as the threshold is reached. *)
        let rec count v c =
          c >= k || (v < n && count (v + 1) (if holds ((x, v) :: env) f then c + 1 else c))
        in
        count 0 0
  in
  List.filter (fun v -> holds [ (free, v) ] formula) (List.init n Fun.id)

(* ---------------- Bounded-variable relational evaluation -------------- *)

(* A relation: a set of tuples over a sorted list of variables.  The
   closed-world complement needs the full assignment space, so arity is
   capped — the cap *is* the bounded-variable discipline. *)
type rel = { vars : string list; tuples : (int list, unit) Hashtbl.t }

let arity_cap = 3

let rel_create vars = { vars; tuples = Hashtbl.create 64 }

let rel_add rel tuple = Hashtbl.replace rel.tuples tuple ()

(* Reorder/extend a tuple over [from_vars] to [to_vars] given bindings. *)
let project_tuple ~from_vars tuple ~to_vars =
  let env = List.combine from_vars tuple in
  List.map (fun v -> List.assoc v env) to_vars

(* Extend a relation to a superset of variables by crossing with the full
   node domain for the missing ones. *)
let extend inst rel to_vars =
  if rel.vars = to_vars then rel
  else begin
    let missing = List.filter (fun v -> not (List.mem v rel.vars)) to_vars in
    if List.length to_vars > arity_cap then
      invalid_arg "Fo.eval_bounded: intermediate arity exceeds the variable bound";
    let out = rel_create to_vars in
    let n = inst.Snapshot.num_nodes in
    let rec assignments acc = function
      | [] ->
          Hashtbl.iter
            (fun tuple () ->
              let env = List.combine rel.vars tuple @ acc in
              rel_add out (List.map (fun v -> List.assoc v env) to_vars))
            rel.tuples
      | m :: rest ->
          for v = 0 to n - 1 do
            assignments ((m, v) :: acc) rest
          done
    in
    assignments [] missing;
    out
  end

let union_vars a b = List.sort_uniq compare (a @ b)

let rel_and inst r1 r2 =
  (* Natural join; implemented by extending both to the union of their
     variables then intersecting (fine at arity <= 3 scale). *)
  let vars = union_vars r1.vars r2.vars in
  let shared = List.filter (fun v -> List.mem v r2.vars) r1.vars in
  if shared = [] || List.length vars > arity_cap then begin
    let e1 = extend inst r1 vars and e2 = extend inst r2 vars in
    let small, large = if Hashtbl.length e1.tuples <= Hashtbl.length e2.tuples then (e1, e2) else (e2, e1) in
    let out = rel_create vars in
    Hashtbl.iter (fun t () -> if Hashtbl.mem large.tuples t then rel_add out t) small.tuples;
    out
  end
  else begin
    (* Hash join on the shared variables to avoid materializing the
       extension cross-products. *)
    let key_of rel_vars tuple = project_tuple ~from_vars:rel_vars tuple ~to_vars:shared in
    let index = Hashtbl.create 64 in
    Hashtbl.iter
      (fun t () ->
        let k = key_of r2.vars t in
        Hashtbl.replace index k (t :: Option.value (Hashtbl.find_opt index k) ~default:[]))
      r2.tuples;
    let out = rel_create vars in
    Hashtbl.iter
      (fun t1 () ->
        match Hashtbl.find_opt index (key_of r1.vars t1) with
        | None -> ()
        | Some matches ->
            List.iter
              (fun t2 ->
                let env = List.combine r1.vars t1 @ List.combine r2.vars t2 in
                rel_add out (List.map (fun v -> List.assoc v env) vars))
              matches)
      r1.tuples;
    out
  end

let rel_or inst r1 r2 =
  let vars = union_vars r1.vars r2.vars in
  let e1 = extend inst r1 vars and e2 = extend inst r2 vars in
  let out = rel_create vars in
  Hashtbl.iter (fun t () -> rel_add out t) e1.tuples;
  Hashtbl.iter (fun t () -> rel_add out t) e2.tuples;
  out

let rel_neg inst rel =
  if List.length rel.vars > arity_cap then
    invalid_arg "Fo.eval_bounded: negation arity exceeds the variable bound";
  let out = rel_create rel.vars in
  let n = inst.Snapshot.num_nodes in
  let rec loop acc = function
    | [] -> begin
        let tuple = List.rev acc in
        if not (Hashtbl.mem rel.tuples tuple) then rel_add out tuple
      end
    | _ :: rest ->
        for v = 0 to n - 1 do
          loop (v :: acc) rest
        done
  in
  loop [] rel.vars;
  out

(* ∃≥k x over a relation whose variables include x: group the tuples by
   the other variables and keep each group with at least k distinct x
   values (tuples are distinct, so a group's size is its count). *)
let rel_count_exists k x rel =
  let keep = List.filter (fun v -> v <> x) rel.vars in
  let counts = Hashtbl.create 64 in
  Hashtbl.iter
    (fun t () ->
      let key = project_tuple ~from_vars:rel.vars t ~to_vars:keep in
      Hashtbl.replace counts key (1 + Option.value (Hashtbl.find_opt counts key) ~default:0))
    rel.tuples;
  let out = rel_create keep in
  Hashtbl.iter (fun key c -> if c >= k then rel_add out key) counts;
  out

(* The relation of a binary atom over [x] and [y] from its (x, y) value
   pairs, fed to [add] by [iter]; when x = y only the diagonal counts. *)
let binary x y iter =
  if x = y then begin
    let out = rel_create [ x ] in
    iter (fun s d -> if s = d then rel_add out [ s ]);
    out
  end
  else begin
    let out = rel_create (List.sort compare [ x; y ]) in
    iter (fun s d -> rel_add out (if x < y then [ s; d ] else [ d; s ]));
    out
  end

let rec eval_rel inst = function
  | Node_pred (l, x) ->
      let out = rel_create [ x ] in
      Array.iter (fun v -> rel_add out [ v ]) (Postings.nodes inst (Atom.Label l));
      out
  | Edge_pred (l, x, y) ->
      binary x y (fun add ->
          Array.iter
            (fun e ->
              let s, d = Snapshot.endpoints inst e in
              add s d)
            (Postings.edges inst (Atom.Label l)))
  | Adjacent (x, y) ->
      binary x y (fun add ->
          for e = 0 to inst.Snapshot.num_edges - 1 do
            let s, d = Snapshot.endpoints inst e in
            add s d;
            add d s
          done)
  | Eq (x, y) ->
      binary x y (fun add ->
          for v = 0 to inst.Snapshot.num_nodes - 1 do
            add v v
          done)
  | Tc { step; reflexive; src; dst } ->
      binary src dst (fun add -> List.iter (fun (s, d) -> add s d) (tc_pairs inst step ~reflexive))
  | Neg f -> rel_neg inst (eval_rel inst f)
  | And (f, g) -> rel_and inst (eval_rel inst f) (eval_rel inst g)
  | Or (f, g) -> rel_or inst (eval_rel inst f) (eval_rel inst g)
  | Exists (x, f) -> eval_rel inst (Count_exists (1, x, f))
  | Forall (x, f) -> eval_rel inst (Neg (Exists (x, Neg f)))
  | Count_exists (k, x, f) ->
      let r = eval_rel inst f in
      (* A relation's variables are its formula's free variables, so x
         absent means vacuous quantification: φ, if there are k nodes. *)
      if List.mem x r.vars then rel_count_exists k x r
      else if inst.Snapshot.num_nodes >= k then r
      else rel_create r.vars

(* Unary query via the relational pipeline; the result is over [free], or
   over no variable for a closed formula. *)
let eval_bounded inst formula ~free =
  check_unary formula ~free;
  let rel = extend inst (eval_rel inst formula) [ free ] in
  Hashtbl.fold (fun t () acc -> match t with [ v ] -> v :: acc | _ -> acc) rel.tuples []
  |> List.sort compare

(* ---------------- Graded modal logic ---------------------------------- *)

(* On simple graphs, where counting neighbor nodes agrees with counting
   incident edges, ◇≥k φ(x) is ∃≥k y (adj(x,y) ∧ φ(y)), alternating the
   two variables. *)
let of_gml formula =
  let other = function "x" -> "y" | _ -> "x" in
  let rec go x = function
    | Gml.Atom (Atom.Label l) -> Node_pred (l, x)
    | Gml.Atom _ -> invalid_arg "Fo.of_gml: only label atoms translate"
    | Gml.True -> Eq (x, x)
    | Gml.Not f -> Neg (go x f)
    | Gml.And (f, g) -> And (go x f, go x g)
    | Gml.Or (f, g) -> Or (go x f, go x g)
    | Gml.Diamond (k, f) ->
        let y = other x in
        Count_exists (k, y, And (Adjacent (x, y), go y f))
  in
  go "x" formula

(* ---------------- The paper's worked formulas ------------------------- *)

(* φ(x) = person(x) ∧ ∃y∃z (rides(x,y) ∧ bus(y) ∧ rides(z,y) ∧ infected(z)) *)
let phi =
  And
    ( node_pred "person" "x",
      Exists
        ( "y",
          Exists
            ( "z",
              and_of
                [ edge_pred "rides" "x" "y"; node_pred "bus" "y"; edge_pred "rides" "z" "y";
                  node_pred "infected" "z" ] ) ) )

(* ψ(x) = person(x) ∧ ∃y (rides(x,y) ∧ bus(y) ∧ ∃x (rides(x,y) ∧ infected(x)))
   — the equivalent 2-variable rewriting. *)
let psi =
  And
    ( node_pred "person" "x",
      Exists
        ( "y",
          and_of
            [ edge_pred "rides" "x" "y"; node_pred "bus" "y";
              Exists ("x", And (edge_pred "rides" "x" "y", node_pred "infected" "x")) ] ) )
