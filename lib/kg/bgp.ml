(* Basic graph pattern (BGP) matching: the conjunctive core of SPARQL
   [Harris & Seaborne 2013], which Section 4 treats as the declarative
   face of node/pattern extraction over RDF.

   A pattern component is a constant term or a variable; a query is a
   list of triple patterns (or SPARQL-1.1-style property-path patterns)
   with a SELECT head.  Evaluation goes through the worst-case-optimal
   multiway join engine ({!Gqkg_core.Join}) on the store's frozen view,
   whose one id space serves every triple position: a constant-predicate
   pattern is the zero-copy trie of that predicate's edge label, a
   constant subject or object a pinned singleton, property paths are
   materialized once per distinct expression by the batched
   Frontier-backed product engine on the same snapshot, and the
   conjunction is solved variable-by-variable under a planned global
   order. *)

module Join = Gqkg_core.Join
module Snapshot = Gqkg_graph.Snapshot

type component = Const of Term.t | Var of string

type triple_pattern = { ps : component; pp : component; po : component }

(* A pattern is a plain triple pattern, or a SPARQL-1.1-style property
   path: subject and object joined by a Section 4 regular expression over
   predicates (evaluated by the RPQ product engine over the store's
   frozen view). *)
type pattern =
  | Triple of triple_pattern
  | Path of { src : component; path : Gqkg_automata.Regex.t; dst : component }

let pattern ps pp po = Triple { ps; pp; po }
let path_pattern src path dst = Path { src; path; dst }

let v name = Var name
let c term = Const term
let iri s = Const (Term.Iri s)

type query = { select : string list; where : pattern list }

type binding = (string * Term.t) list

let component_vars cs = List.filter_map (function Var x -> Some x | Const _ -> None) cs

let pattern_vars = function
  | Triple { ps; pp; po } -> component_vars [ ps; pp; po ]
  | Path { src; dst; _ } -> component_vars [ src; dst ]

let query_vars query =
  let seen = Hashtbl.create 16 in
  let out = ref [] in
  List.iter
    (fun pat ->
      List.iter
        (fun x ->
          if not (Hashtbl.mem seen x) then begin
            Hashtbl.add seen x ();
            out := x :: !out
          end)
        (pattern_vars pat))
    query.where;
  List.rev !out

(* ------------------------------------------------------------------ *)
(* Compile patterns to join atoms over the store's frozen view        *)
(* ------------------------------------------------------------------ *)

let component_name = function
  | Const t -> Term.to_string t
  | Var x -> "?" ^ x

let pattern_name = function
  | Triple { ps; pp; po } ->
      Printf.sprintf "%s %s %s" (component_name ps) (component_name pp) (component_name po)
  | Path { src; path; dst } ->
      Printf.sprintf "%s (%s) %s" (component_name src)
        (Gqkg_automata.Regex.to_string ~top:true path)
        (component_name dst)

(* A constant that matches nothing makes the whole conjunction empty. *)
exception Unsat

(* Per-query compile state: the pinned constants (variable name, view
   id), and one materialization per distinct path expression. *)
type compile = {
  view : Triple_store.view;
  mutable pins : (string * int) list;
  paths : (string, (int * int) list) Hashtbl.t;
}

let view_id ctx t =
  let id = Triple_store.view_of_term ctx.view t in
  if id < 0 then raise Unsat else id

let node_id ctx t =
  let id = view_id ctx t in
  if id >= ctx.view.Triple_store.nodes then raise Unsat else id

(* A subject/object column: a variable, or a constant node pinned by a
   singleton atom on a fresh variable named after it (no SPARQL
   variable name can start with '<' or '"'). *)
let column ctx = function
  | Var x -> x
  | Const t ->
      let name = Term.to_string t in
      if not (List.mem_assoc name ctx.pins) then ctx.pins <- (name, node_id ctx t) :: ctx.pins;
      name

(* One join atom per pattern.  A constant predicate is a zero-copy view
   of its exact IRI's edge label; a variable predicate materializes the
   matching edges over the variable columns; a path is its endpoint
   pairs, computed once per distinct expression on the same snapshot. *)
let compile_pattern ?budget ctx pat =
  let name = pattern_name pat in
  let v = ctx.view in
  match pat with
  | Triple { ps; pp = Const p; po } ->
      let label = v.Triple_store.label_of.(view_id ctx p) in
      if label < 0 then raise Unsat;
      Join.atom ~name [| column ctx ps; column ctx po |] (Join.Edges [ label ])
  | Triple { ps; pp = Var _ as pp; po } ->
      let g = v.Triple_store.snap in
      let fixed = function Const t -> node_id ctx t | Var _ -> -1 in
      let at e = function
        | 0 -> g.Snapshot.esrc.(e)
        | 1 -> v.Triple_store.label_pred.(g.Snapshot.elabel.(e))
        | _ -> g.Snapshot.edst.(e)
      in
      let vars, cols =
        List.split
          (List.filter_map
             (function Var x, col -> Some (x, col) | Const _, _ -> None)
             [ (ps, 0); (pp, 1); (po, 2) ])
      in
      let acc = ref [] in
      Triple_store.iter_edges v ~src:(fixed ps) ~label:(-1) ~dst:(fixed po) (fun e ->
          acc := e :: !acc);
      let rel =
        match cols with
        | [ a ] -> Join.Set (Array.of_list (List.map (fun e -> at e a) !acc))
        | [ a; b ] -> Join.Pairs (List.map (fun e -> (at e a, at e b)) !acc)
        | _ -> Join.Rows3 (List.map (fun e -> (at e 0, at e 1, at e 2)) !acc)
      in
      Join.atom ~name (Array.of_list vars) rel
  | Path { src; path; dst } ->
      let key = Gqkg_automata.Regex.to_string ~top:true path in
      let pairs =
        match Hashtbl.find_opt ctx.paths key with
        | Some pairs -> pairs
        | None ->
            let pairs = Join.path_pairs ?budget v.Triple_store.snap path in
            Hashtbl.add ctx.paths key pairs;
            pairs
      in
      Join.atom ~name [| column ctx src; column ctx dst |] (Join.Pairs pairs)

(* The atoms of a query, pins first, and the pinned variables; raises
   [Unsat] when a constant matches nothing. *)
let compile_query ?budget view query =
  let ctx = { view; pins = []; paths = Hashtbl.create 4 } in
  let atoms = List.map (compile_pattern ?budget ctx) query.where in
  let pins = List.rev ctx.pins in
  ( List.map (fun (name, id) -> Join.atom ~name [| name |] (Join.Set [| id |])) pins @ atoms,
    List.map fst pins )

(* Solve on view ids.  Each row starts with the values of [vars]: when
   they cover every query variable, every solution comes once (the
   pinned constants ride along as extra columns with one value each, so
   no dedup table is kept); otherwise once per distinct projection. *)
let solve_ids ?budget view query ~vars ~yield =
  match compile_query ?budget view query with
  | exception Unsat -> ()
  | specs, pins ->
      let covers = List.for_all (fun x -> List.mem x vars) (query_vars query) in
      Join.solve ?budget ~snapshot:view.Triple_store.snap specs
        ~vars:(if covers then vars @ pins else vars)
        ~yield

let iter_solutions ?budget store query ~yield =
  let view = Triple_store.view store and vars = query_vars query in
  solve_ids ?budget view query ~vars ~yield:(fun row ->
      yield (List.mapi (fun i x -> (x, view.Triple_store.terms.(row.(i)))) vars))

(* The join plan for a query (variable order + per-atom estimates). *)
let explain store query =
  let view = Triple_store.view store in
  match compile_query view query with
  | exception Unsat -> "statically empty: a constant pattern matches nothing"
  | [], _ -> "no patterns: exactly the empty solution"
  | specs, _ -> (Join.plan ~snapshot:view.Triple_store.snap specs).Join.rendered

let check_select query =
  List.iter
    (fun x ->
      if not (List.exists (fun pat -> List.mem x (pattern_vars pat)) query.where) then
        invalid_arg (Printf.sprintf "Bgp.select: variable ?%s not used in the pattern" x))
    query.select

(* SELECT evaluation: the distinct projections of the solutions onto the
   selected variables (unbound selected variables are an error).  The
   join deduplicates on id rows; terms are looked up once per distinct
   row. *)
let select ?budget store query =
  check_select query;
  let view = Triple_store.view store and k = List.length query.select in
  let out = ref [] in
  solve_ids ?budget view query ~vars:query.select ~yield:(fun row ->
      let terms = ref [] in
      for i = k - 1 downto 0 do
        terms := view.Triple_store.terms.(row.(i)) :: !terms
      done;
      out := !terms :: !out);
  List.sort (List.compare Term.compare) !out

(* COUNT of all solution mappings, without projection or dedup. *)
let count_solutions ?budget store query =
  let n = ref 0 in
  solve_ids ?budget (Triple_store.view store) query ~vars:(query_vars query) ~yield:(fun _ ->
      incr n);
  !n

(* ASK. *)
let ask ?budget store query =
  let exception Found in
  let view = Triple_store.view store in
  match solve_ids ?budget view query ~vars:[] ~yield:(fun _ -> raise Found) with
  | () -> false
  | exception Found -> true
