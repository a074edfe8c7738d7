(* Basic graph pattern (BGP) matching: the conjunctive core of SPARQL
   [Harris & Seaborne 2013], which Section 4 treats as the declarative
   face of node/pattern extraction over RDF.

   A pattern component is a constant term or a variable; a query is a
   list of triple patterns (or SPARQL-1.1-style property-path patterns)
   with a SELECT head.  Evaluation goes through the worst-case-optimal
   multiway join engine ({!Gqkg_core.Join}) over interned term ids:
   each triple pattern's matching triples are scanned once through the
   SPO/POS/OSP indexes into a sorted relation over its variable columns,
   property paths are materialized once per distinct expression by the
   batched Frontier-backed product engine, and the conjunction is solved
   variable-by-variable under a planned global order.

   The previous greedy backtracking join survives as
   {!iter_solutions_backtrack} (the reference oracle), with int-slot
   environments under a prepass variable numbering instead of the old
   O(vars) assoc lists. *)

module Join = Gqkg_core.Join

type component = Const of Term.t | Var of string

type triple_pattern = { ps : component; pp : component; po : component }

(* A pattern is a plain triple pattern, or a SPARQL-1.1-style property
   path: subject and object joined by a Section 4 regular expression over
   predicates (evaluated by the RPQ product engine over the RDF graph
   view). *)
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
(* Property-path endpoint pairs over interned term ids                *)
(* ------------------------------------------------------------------ *)

(* Lazy RDF graph view + per-regex endpoint-pair cache, shared by the
   WCOJ compile and the oracle. *)
type context = {
  store : Triple_store.t;
  mutable rdf : (Rdf_graph.t * Gqkg_graph.Snapshot.t) option;
  path_cache : (string, (int * int) list) Hashtbl.t; (* term-id pairs *)
}

let make_context store = { store; rdf = None; path_cache = Hashtbl.create 4 }

let rdf_view ctx =
  match ctx.rdf with
  | Some gi -> gi
  | None ->
      let g = Rdf_graph.of_store ctx.store in
      let gi = (g, Rdf_graph.to_snapshot g) in
      ctx.rdf <- Some gi;
      gi

(* Endpoint pairs of a path expression as interned term ids: the one
   materialization both evaluators share (built by the batched Frontier
   engine via {!Gqkg_core.Join.path_pairs}). *)
let path_id_pairs ?budget ctx path =
  let key = Gqkg_automata.Regex.to_string ~top:true path in
  match Hashtbl.find_opt ctx.path_cache key with
  | Some pairs -> pairs
  | None ->
      let g, inst = rdf_view ctx in
      let term_id n = Triple_store.id_of ctx.store (Rdf_graph.node_term g n) in
      let pairs =
        List.filter_map
          (fun (a, b) ->
            match (term_id a, term_id b) with
            | Some ia, Some ib -> Some (ia, ib)
            | _ -> None (* defensive: every graph node comes from the store *))
          (Join.path_pairs ?budget inst path)
      in
      Hashtbl.add ctx.path_cache key pairs;
      pairs

(* ------------------------------------------------------------------ *)
(* WCOJ path: compile patterns to join specs                          *)
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

(* Compile one pattern into a join atom over its variable columns, with
   constants substituted away.  Returns [None] when the pattern has no
   variables: [Some spec] otherwise; all-constant patterns instead
   report through [constant_sat] (false short-circuits the query). *)
let compile_pattern ?budget ctx pat =
  let store = ctx.store in
  let id_of = Triple_store.id_of store in
  match pat with
  | Triple { ps; pp; po } -> begin
      let comp = function
        | Const t -> (match id_of t with Some id -> `Id id | None -> `Missing)
        | Var x -> `Var x
      in
      match (comp ps, comp pp, comp po) with
      | `Missing, _, _ | _, `Missing, _ | _, _, `Missing ->
          (* A constant term absent from the store: nothing matches. *)
          if pattern_vars pat = [] then `Unsat
          else
            `Atom
              (Join.atom ~name:(pattern_name pat)
                 (Array.of_list (pattern_vars pat))
                 (match List.length (pattern_vars pat) with
                 | 1 -> Join.Set [||]
                 | 2 -> Join.Pairs []
                 | _ -> Join.Rows3 []))
      | `Id s, `Id p, `Id o ->
          if Triple_store.mem_ids store ~s ~p ~o then `Sat else `Unsat
      | cs, cp, co ->
          let fixed = function `Id id -> Some id | _ -> None in
          let vars, cols =
            List.split
              (List.filter_map
                 (function `Var x, col -> Some (x, col) | _ -> None)
                 [ (cs, 0); (cp, 1); (co, 2) ])
          in
          let pick col s p o = match col with 0 -> s | 1 -> p | _ -> o in
          let scan f =
            Triple_store.iter_matching_ids store ~s:(fixed cs) ~p:(fixed cp) ~o:(fixed co) f
          in
          let rel =
            match cols with
            | [ a ] ->
                let acc = ref [] in
                scan (fun s p o -> acc := pick a s p o :: !acc);
                Join.Set (Array.of_list !acc)
            | [ a; b ] ->
                let acc = ref [] in
                scan (fun s p o -> acc := (pick a s p o, pick b s p o) :: !acc);
                Join.Pairs !acc
            | _ ->
                let acc = ref [] in
                scan (fun s p o -> acc := (s, p, o) :: !acc);
                Join.Rows3 !acc
          in
          `Atom (Join.atom ~name:(pattern_name pat) (Array.of_list vars) rel)
    end
  | Path { src; path; dst } -> begin
      let pairs = path_id_pairs ?budget ctx path in
      let comp c = match c with
        | Const t -> (match id_of t with Some id -> `Id id | None -> `Missing)
        | Var x -> `Var x
      in
      match (comp src, comp dst) with
      | `Missing, _ | _, `Missing ->
          if pattern_vars pat = [] then `Unsat
          else
            `Atom
              (Join.atom ~name:(pattern_name pat)
                 (Array.of_list (pattern_vars pat))
                 (if List.length (pattern_vars pat) = 1 then Join.Set [||] else Join.Pairs []))
      | `Id a, `Id b -> if List.mem (a, b) pairs then `Sat else `Unsat
      | `Id a, `Var y ->
          `Atom
            (Join.atom ~name:(pattern_name pat) [| y |]
               (Join.Set (Array.of_list (List.filter_map (fun (s, d) -> if s = a then Some d else None) pairs))))
      | `Var x, `Id b ->
          `Atom
            (Join.atom ~name:(pattern_name pat) [| x |]
               (Join.Set (Array.of_list (List.filter_map (fun (s, d) -> if d = b then Some s else None) pairs))))
      | `Var x, `Var y -> `Atom (Join.atom ~name:(pattern_name pat) [| x; y |] (Join.Pairs pairs))
    end

let compile_query ?budget ctx query =
  let rec go acc = function
    | [] -> Some (List.rev acc)
    | pat :: rest -> (
        match compile_pattern ?budget ctx pat with
        | `Unsat -> None
        | `Sat -> go acc rest
        | `Atom spec -> go (spec :: acc) rest)
  in
  go [] query.where

(* Solve on term ids, yielding the values of [vars] once per distinct
   tuple (each full solution once when [vars] covers every variable). *)
let solve_ids ?budget store query ~vars ~yield =
  match compile_query ?budget (make_context store) query with
  | None -> ()
  | Some specs -> Join.solve ?budget specs ~vars ~yield

let iter_solutions ?budget store query ~yield =
  let vars = query_vars query in
  solve_ids ?budget store query ~vars ~yield:(fun row ->
      yield (List.mapi (fun i x -> (x, Triple_store.term_of store row.(i))) vars))

(* The join plan for a query (variable order + per-atom estimates). *)
let explain store query =
  let ctx = make_context store in
  match compile_query ctx query with
  | None -> "statically empty: a constant pattern matches nothing"
  | Some [] -> "no variable patterns: at most the empty solution"
  | Some specs -> (Join.plan specs).Join.rendered

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
  let out = ref [] in
  solve_ids ?budget store query ~vars:query.select ~yield:(fun row ->
      out := Array.fold_right (fun id acc -> Triple_store.term_of store id :: acc) row [] :: !out);
  List.sort (List.compare Term.compare) !out

(* COUNT of all solution mappings, without projection or dedup. *)
let count_solutions ?budget store query =
  let n = ref 0 in
  solve_ids ?budget store query ~vars:(query_vars query) ~yield:(fun _ -> incr n);
  !n

(* ASK. *)
let ask ?budget store query =
  let exception Found in
  match solve_ids ?budget store query ~vars:[] ~yield:(fun _ -> raise Found) with
  | () -> false
  | exception Found -> true

(* ------------------------------------------------------------------ *)
(* Reference oracle: greedy backtracking join                         *)
(* ------------------------------------------------------------------ *)

(* Components resolved against the store and the slot numbering:
   constants become interned ids ([RMissing] when absent — matches
   nothing), variables become slot indexes into an int env array. *)
type rcomp = RId of int | RVar of int | RMissing

(* Materialized relation of a property-path pattern over term ids,
   indexed both ways for the oracle's directional probes. *)
type path_relation = {
  rel_pairs : (int * int) list;
  rel_forward : (int, int list) Hashtbl.t;
  rel_backward : (int, int list) Hashtbl.t;
  rel_pair_set : (int * int, unit) Hashtbl.t;
}

let path_relation ctx path =
  let pairs = path_id_pairs ctx path in
  let rel_forward = Hashtbl.create 64 and rel_backward = Hashtbl.create 64 in
  let rel_pair_set = Hashtbl.create 256 in
  let push tbl k value =
    Hashtbl.replace tbl k (value :: Option.value (Hashtbl.find_opt tbl k) ~default:[])
  in
  List.iter
    (fun (a, b) ->
      push rel_forward a b;
      push rel_backward b a;
      Hashtbl.replace rel_pair_set (a, b) ())
    pairs;
  { rel_pairs = pairs; rel_forward; rel_backward; rel_pair_set }

type rpattern =
  | RTriple of rcomp * rcomp * rcomp
  | RPath of rcomp * path_relation * rcomp

let iter_solutions_backtrack store query ~yield =
  let ctx = make_context store in
  (* Prepass variable numbering: int-slot environments. *)
  let vars = query_vars query in
  let slots = Hashtbl.create 16 in
  List.iteri (fun i x -> Hashtbl.add slots x i) vars;
  let env = Array.make (max 1 (List.length vars)) (-1) in
  let rcomp = function
    | Const t -> (
        match Triple_store.id_of store t with Some id -> RId id | None -> RMissing)
    | Var x -> RVar (Hashtbl.find slots x)
  in
  let patterns =
    List.map
      (function
        | Triple { ps; pp; po } -> RTriple (rcomp ps, rcomp pp, rcomp po)
        | Path { src; path; dst } -> RPath (rcomp src, path_relation ctx path, rcomp dst))
      query.where
  in
  (* A bound slot behaves like a constant. *)
  let resolve = function
    | RId id -> `Id id
    | RMissing -> `Missing
    | RVar s -> if env.(s) >= 0 then `Id env.(s) else `Open s
  in
  let to_opt = function `Id id -> Some (Some id) | `Open _ -> Some None | `Missing -> None in
  let pattern_cost = function
    | RTriple (cs, cp, co) -> begin
        match (to_opt (resolve cs), to_opt (resolve cp), to_opt (resolve co)) with
        | Some s, Some p, Some o -> Triple_store.count_matching_ids store ~s ~p ~o
        | _ -> 0
      end
    | RPath (cs, rel, cd) -> begin
        match (resolve cs, resolve cd) with
        | `Missing, _ | _, `Missing -> 0
        | `Id _, `Id _ -> 1
        | `Id s, `Open _ ->
            List.length (Option.value (Hashtbl.find_opt rel.rel_forward s) ~default:[])
        | `Open _, `Id d ->
            List.length (Option.value (Hashtbl.find_opt rel.rel_backward d) ~default:[])
        | `Open _, `Open _ -> List.length rel.rel_pairs
      end
  in
  (* Bind any open slots to the tuple's ids (checking repeated-variable
     consistency), run [k], restore. *)
  let bind_tuple comps ids k =
    let bound = ref [] in
    let ok =
      List.for_all2
        (fun c id ->
          match resolve c with
          | `Id existing -> existing = id
          | `Missing -> false
          | `Open s ->
              env.(s) <- id;
              bound := s :: !bound;
              true)
        comps ids
    in
    if ok then k ();
    List.iter (fun s -> env.(s) <- -1) !bound
  in
  let pattern_matches pat k =
    match pat with
    | RTriple (cs, cp, co) -> begin
        match (to_opt (resolve cs), to_opt (resolve cp), to_opt (resolve co)) with
        | Some s, Some p, Some o ->
            Triple_store.iter_matching_ids store ~s ~p ~o (fun si pi oi ->
                bind_tuple [ cs; cp; co ] [ si; pi; oi ] k)
        | _ -> ()
      end
    | RPath (cs, rel, cd) -> begin
        match (resolve cs, resolve cd) with
        | `Missing, _ | _, `Missing -> ()
        | `Id s, `Id d -> if Hashtbl.mem rel.rel_pair_set (s, d) then k ()
        | `Id s, `Open _ ->
            List.iter
              (fun d -> bind_tuple [ cd ] [ d ] k)
              (Option.value (Hashtbl.find_opt rel.rel_forward s) ~default:[])
        | `Open _, `Id d ->
            List.iter
              (fun s -> bind_tuple [ cs ] [ s ] k)
              (Option.value (Hashtbl.find_opt rel.rel_backward d) ~default:[])
        | `Open _, `Open _ ->
            List.iter (fun (s, d) -> bind_tuple [ cs; cd ] [ s; d ] k) rel.rel_pairs
      end
  in
  let rec solve remaining =
    match remaining with
    | [] -> yield (List.mapi (fun i x -> (x, Triple_store.term_of store env.(i))) vars)
    | _ ->
        let best = ref None in
        List.iter
          (fun pat ->
            let cost = pattern_cost pat in
            match !best with
            | Some (_, best_cost) when best_cost <= cost -> ()
            | _ -> best := Some (pat, cost))
          remaining;
        (match !best with
        | None -> ()
        | Some (pat, _) ->
            let rest = List.filter (fun p -> p != pat) remaining in
            pattern_matches pat (fun () -> solve rest))
  in
  solve patterns

let select_backtrack store query =
  check_select query;
  let seen = Hashtbl.create 64 in
  let out = ref [] in
  iter_solutions_backtrack store query ~yield:(fun env ->
      let row = List.map (fun x -> List.assoc x env) query.select in
      let key = List.map Term.to_string row in
      if not (Hashtbl.mem seen key) then begin
        Hashtbl.replace seen key ();
        out := row :: !out
      end);
  List.sort (fun a b -> List.compare Term.compare a b) !out

let count_solutions_backtrack store query =
  let n = ref 0 in
  iter_solutions_backtrack store query ~yield:(fun _ -> incr n);
  !n
