(* Basic graph pattern (BGP) matching: the conjunctive core of SPARQL
   [Harris & Seaborne 2013], which Section 4 treats as the declarative
   face of node/pattern extraction over RDF.

   A pattern component is a constant term or a variable; a query is a
   list of triple patterns (or SPARQL-1.1-style property-path patterns)
   with a SELECT head.  Over the store's frozen view a BGP is a CRPQ with
   pinned constants, so this module maps terms to view ids and hands the
   atoms to the one conjunctive compiler ({!Gqkg_core.Conjunctive}); the
   worst-case-optimal join ({!Gqkg_core.Join}) solves them. *)

module Join = Gqkg_core.Join
module Conjunctive = Gqkg_core.Conjunctive
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

let component_vars cs = List.filter_map (function Var x -> Some x | Const _ -> None) cs

let pattern_vars = function
  | Triple { ps; pp; po } -> component_vars [ ps; pp; po ]
  | Path { src; dst; _ } -> component_vars [ src; dst ]

let query_vars query =
  List.fold_left
    (fun acc x -> if List.mem x acc then acc else acc @ [ x ])
    [] (List.concat_map pattern_vars query.where)

(* ------------------------------------------------------------------ *)
(* Term mapping onto the conjunctive compiler                         *)
(* ------------------------------------------------------------------ *)

(* A constant that matches nothing makes the whole conjunction empty. *)
exception Unsat

(* A variable predicate materializes the matching edges over the
   variable columns: the one RDF-only atom, since it needs the view's
   label-to-predicate map. *)
let predicate_atom (v : Triple_store.view) ~fixed ps pp po =
  let g = v.snap in
  let at e = function
    | 0 -> g.Snapshot.esrc.(e)
    | 1 -> v.label_pred.(g.Snapshot.elabel.(e))
    | _ -> g.Snapshot.edst.(e)
  in
  let vars, cols =
    List.split
      (List.filter_map
         (function Var x, col -> Some (x, col) | Const _, _ -> None)
         [ (ps, 0); (pp, 1); (po, 2) ])
  in
  let acc = ref [] in
  Triple_store.iter_edges v ~src:(fixed ps) ~label:(-1) ~dst:(fixed po) (fun e -> acc := e :: !acc);
  let rel =
    match cols with
    | [ a ] -> Join.Set (Array.of_list (List.map (fun e -> at e a) !acc))
    | [ a; b ] -> Join.Pairs (List.map (fun e -> (at e a, at e b)) !acc)
    | _ -> Join.Rows3 (List.map (fun e -> (at e 0, at e 1, at e 2)) !acc)
  in
  let component_name = function Const t -> Term.to_string t | Var x -> "?" ^ x in
  let name = String.concat " " (List.map component_name [ ps; pp; po ]) in
  Join.atom ~name (Array.of_list vars) rel

(* The join atoms of a query and its pinned variables.  A constant
   subject or object is a pinned node named after the constant (no
   SPARQL variable name can start with '<' or '"'), a constant predicate
   its exact IRI's edge label and a path its regex, all compiled by
   {!Conjunctive}; variable-predicate atoms follow.  Raises [Unsat] when
   a constant matches nothing. *)
let compile ?budget (v : Triple_store.view) query =
  let view_id t =
    let id = Triple_store.view_of_term v t in
    if id < 0 then raise Unsat else id
  in
  let node_id t =
    let id = view_id t in
    if id >= v.nodes then raise Unsat else id
  in
  let endpoint = function
    | Var x -> Conjunctive.Var x
    | Const t -> Conjunctive.Pin { name = Term.to_string t; id = node_id t }
  in
  let fixed = function Const t -> node_id t | Var _ -> -1 in
  let atoms, by_predicate =
    List.partition_map
      (function
        | Triple { ps; pp = Const p; po } ->
            let label = v.label_of.(view_id p) in
            if label < 0 then raise Unsat;
            Left { Conjunctive.src = endpoint ps; mid = Label label; dst = endpoint po }
        | Triple { ps; pp = Var _ as pp; po } -> Right (predicate_atom v ~fixed ps pp po)
        | Path { src; path; dst } ->
            Left { Conjunctive.src = endpoint src; mid = Regex path; dst = endpoint dst })
      query.where
  in
  let specs, pins = Conjunctive.compile ?budget v.snap atoms in
  (specs @ by_predicate, pins)

(* Solve on view ids.  Each row starts with the values of [vars]: when
   they cover every query variable, every solution comes once (the
   pinned constants ride along as extra columns with one value each, so
   no dedup table is kept); otherwise once per distinct projection. *)
let solve_ids ?budget view query ~vars ~yield =
  match compile ?budget view query with
  | exception Unsat -> ()
  | specs, pins ->
      let covers = List.for_all (fun x -> List.mem x vars) (query_vars query) in
      Join.solve ?budget ~snapshot:view.Triple_store.snap specs
        ~vars:(if covers then vars @ pins else vars)
        ~yield

(* The join plan for a query (variable order + per-atom estimates). *)
let explain store query =
  let view = Triple_store.view store in
  match compile view query with
  | exception Unsat -> "statically empty: a constant pattern matches nothing"
  | specs, _ ->
      let header = "SELECT " ^ String.concat " " (List.map (fun x -> "?" ^ x) query.select) in
      Conjunctive.explain ~header view.Triple_store.snap specs

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
