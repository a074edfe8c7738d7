(* First-order logic over graph vocabularies (Section 4.3): node labels as
   unary predicates, edge labels as binary predicates.  The φ(x) / ψ(x)
   example of the paper lives here, together with the two evaluation
   strategies it contrasts:

   - {!eval_naive}: direct Tarskian evaluation, looping over all nodes at
     every quantifier — O(n^q) for quantifier rank q;
   - {!eval_bounded}: bottom-up relational evaluation in which every
     subformula's extension is a table over its free variables.  When the
     formula reuses a bounded number of variables (the point of ψ(x)),
     every intermediate table is at most binary and evaluation is
     polynomial with a small exponent [Vardi 1995]. *)

open Gqkg_graph

type formula =
  | Node_pred of Const.t * string  (** label(x) *)
  | Edge_pred of Const.t * string * string  (** label(x, y): an edge x→y so labeled *)
  | Eq of string * string
  | Neg of formula
  | And of formula * formula
  | Or of formula * formula
  | Exists of string * formula
  | Forall of string * formula


let node_pred l x = Node_pred (Const.str l, x)
let edge_pred l x y = Edge_pred (Const.str l, x, y)

let rec and_of = function
  | [] -> invalid_arg "Fo.and_of: empty"
  | [ f ] -> f
  | f :: rest -> And (f, and_of rest)

module Vars = Set.Make (String)

let rec free_vars = function
  | Node_pred (_, x) -> Vars.singleton x
  | Edge_pred (_, x, y) -> Vars.add x (Vars.singleton y)
  | Eq (x, y) -> Vars.add x (Vars.singleton y)
  | Neg f -> free_vars f
  | And (f, g) | Or (f, g) -> Vars.union (free_vars f) (free_vars g)
  | Exists (x, f) | Forall (x, f) -> Vars.remove x (free_vars f)

(* Total number of distinct variable names used: the "number of variables"
   resource the paper's ψ(x) example economizes. *)
let rec all_vars = function
  | Node_pred (_, x) -> Vars.singleton x
  | Edge_pred (_, x, y) | Eq (x, y) -> Vars.add x (Vars.singleton y)
  | Neg f -> all_vars f
  | And (f, g) | Or (f, g) -> Vars.union (all_vars f) (all_vars g)
  | Exists (x, f) | Forall (x, f) -> Vars.add x (all_vars f)

let width f = Vars.cardinal (all_vars f)

let rec quantifier_rank = function
  | Node_pred _ | Edge_pred _ | Eq _ -> 0
  | Neg f -> quantifier_rank f
  | And (f, g) | Or (f, g) -> max (quantifier_rank f) (quantifier_rank g)
  | Exists (_, f) | Forall (_, f) -> 1 + quantifier_rank f

let rec to_string = function
  | Node_pred (l, x) -> Printf.sprintf "%s(%s)" (Const.to_string l) x
  | Edge_pred (l, x, y) -> Printf.sprintf "%s(%s,%s)" (Const.to_string l) x y
  | Eq (x, y) -> Printf.sprintf "%s=%s" x y
  | Neg f -> Printf.sprintf "~%s" (to_string f)
  | And (f, g) -> Printf.sprintf "(%s & %s)" (to_string f) (to_string g)
  | Or (f, g) -> Printf.sprintf "(%s | %s)" (to_string f) (to_string g)
  | Exists (x, f) -> Printf.sprintf "E%s.%s" x (to_string f)
  | Forall (x, f) -> Printf.sprintf "A%s.%s" x (to_string f)

let pp ppf f = Fmt.string ppf (to_string f)

(* Edge-label lookup structures shared by both evaluators. *)
type db = {
  inst : Snapshot.t;
  has_edge : (Const.t * int * int, unit) Hashtbl.t;
  pairs_with_label : (Const.t, (int * int) list) Hashtbl.t;
}

let db_of_instance inst =
  let has_edge = Hashtbl.create 256 in
  let pairs_with_label = Hashtbl.create 16 in
  (* The snapshot's atom oracle can only test atoms, so the pairs of a
     label are collected lazily, by testing each edge against the labels
     that occur syntactically in formulas (see [ensure_label]). *)
  { inst; has_edge; pairs_with_label }

let ensure_label db label =
  if not (Hashtbl.mem db.pairs_with_label label) then begin
    let pairs = ref [] in
    for e = db.inst.Snapshot.num_edges - 1 downto 0 do
      if Snapshot.edge_atom db.inst e (Atom.Label label) then begin
        let s, d = (Snapshot.endpoints db.inst) e in
        if not (Hashtbl.mem db.has_edge (label, s, d)) then begin
          Hashtbl.replace db.has_edge (label, s, d) ();
          pairs := (s, d) :: !pairs
        end
      end
    done;
    Hashtbl.replace db.pairs_with_label label !pairs
  end

let db_instance db = db.inst

let edge_holds db label s d =
  ensure_label db label;
  Hashtbl.mem db.has_edge (label, s, d)

let pairs_with_label db label =
  ensure_label db label;
  Hashtbl.find db.pairs_with_label label

(* ---------------- Naive Tarskian evaluation --------------------------- *)

let rec holds db env = function
  | Node_pred (l, x) -> Snapshot.node_atom db.inst (List.assoc x env) (Atom.Label l)
  | Edge_pred (l, x, y) -> edge_holds db l (List.assoc x env) (List.assoc y env)
  | Eq (x, y) -> List.assoc x env = List.assoc y env
  | Neg f -> not (holds db env f)
  | And (f, g) -> holds db env f && holds db env g
  | Or (f, g) -> holds db env f || holds db env g
  | Exists (x, f) ->
      let n = db.inst.Snapshot.num_nodes in
      let rec loop v = v < n && (holds db ((x, v) :: env) f || loop (v + 1)) in
      loop 0
  | Forall (x, f) ->
      let n = db.inst.Snapshot.num_nodes in
      let rec loop v = v >= n || (holds db ((x, v) :: env) f && loop (v + 1)) in
      loop 0

let check_unary formula ~free =
  if not (Vars.subset (free_vars formula) (Vars.singleton free)) then
    invalid_arg
      (Printf.sprintf "Fo: formula has free variables beyond %s: %s" free
         (String.concat ", " (Vars.elements (Vars.remove free (free_vars formula)))))

(* Unary query: the nodes x satisfying φ(x).  The formula must have no
   free variables other than [free]. *)
let eval_naive inst formula ~free =
  check_unary formula ~free;
  let db = db_of_instance inst in
  let out = ref [] in
  for v = inst.Snapshot.num_nodes - 1 downto 0 do
    if holds db [ (free, v) ] formula then out := v :: !out
  done;
  !out

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

let rel_project rel keep_vars =
  let out = rel_create keep_vars in
  Hashtbl.iter
    (fun t () -> rel_add out (project_tuple ~from_vars:rel.vars t ~to_vars:keep_vars))
    rel.tuples;
  out

let rec eval_rel inst db = function
  | Node_pred (l, x) ->
      let out = rel_create [ x ] in
      for v = 0 to inst.Snapshot.num_nodes - 1 do
        if Snapshot.node_atom inst v (Atom.Label l) then rel_add out [ v ]
      done;
      out
  | Edge_pred (l, x, y) ->
      if x = y then begin
        let out = rel_create [ x ] in
        List.iter (fun (s, d) -> if s = d then rel_add out [ s ]) (pairs_with_label db l);
        out
      end
      else begin
        let vars = List.sort compare [ x; y ] in
        let out = rel_create vars in
        List.iter
          (fun (s, d) ->
            let env = [ (x, s); (y, d) ] in
            rel_add out (List.map (fun v -> List.assoc v env) vars))
          (pairs_with_label db l);
        out
      end
  | Eq (x, y) ->
      if x = y then begin
        let out = rel_create [ x ] in
        for v = 0 to inst.Snapshot.num_nodes - 1 do
          rel_add out [ v ]
        done;
        out
      end
      else begin
        let vars = List.sort compare [ x; y ] in
        let out = rel_create vars in
        for v = 0 to inst.Snapshot.num_nodes - 1 do
          rel_add out [ v; v ]
        done;
        out
      end
  | Neg f -> rel_neg inst (eval_rel inst db f)
  | And (f, g) -> rel_and inst (eval_rel inst db f) (eval_rel inst db g)
  | Or (f, g) -> rel_or inst (eval_rel inst db f) (eval_rel inst db g)
  | Exists (x, f) ->
      let r = eval_rel inst db f in
      if List.mem x r.vars then rel_project r (List.filter (fun v -> v <> x) r.vars)
      else r (* vacuous quantification *)
  | Forall (x, f) -> eval_rel inst db (Neg (Exists (x, Neg f)))

(* Unary query via the relational pipeline. *)
let eval_bounded inst formula ~free =
  check_unary formula ~free;
  let db = db_of_instance inst in
  let rel = eval_rel inst db formula in
  let rel =
    if rel.vars = [ free ] then rel
    else if rel.vars = [] then extend inst rel [ free ]
    else rel_project rel [ free ]
  in
  Hashtbl.fold (fun t () acc -> match t with [ v ] -> v :: acc | _ -> acc) rel.tuples []
  |> List.sort compare

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
