(* The static query analyzer: a pass pipeline over Regex.t / Nfa.t that
   runs before execution (Angles et al. treat RPQ analysis — emptiness,
   trimming — as the enabler for planning).

   Passes, in order:

     1. test simplification — three-valued evaluation of every test
        against an atom oracle (schema vocabulary or the instance
        itself), strengthened by label-exclusivity reasoning over a
        closed label universe and by an exhaustive truth table for small
        tests (catches pure contradictions like [l & !l]);
     2. regex pruning — statically-false tests propagate upwards
        ([Fwd false] branches disappear, [Seq] with an empty factor is
        empty, [Star] of an empty body is the empty path), followed by
        the Kleene-algebra {!Regex.simplify};
     3. NFA trimming — the Thompson automaton of the pruned expression
        is rebuilt keeping only states reachable from the start AND
        co-reachable from the accept over statically-alive moves;
     4. seed-cost estimates — estimated sizes of the first forward
        frontier (edge moves out of the start closure) and first
        backward frontier (edge moves into the accept co-closure), from
        per-label edge multiplicities.  A lint/explain figure only: the
        evaluator picks its direction from measured live-seed counts
        (Rpq), not from this guess.

   The final verdict is [Empty] (no path can ever match: the evaluator
   answers without touching the product) or [Possibly_nonempty] (the
   trimmed automaton feeds the kernel).  All rewrites are
   instance-truth-preserving, so analysis on/off is observationally
   identical — checked by property tests. *)

open Gqkg_graph
open Gqkg_automata

type verdict = Empty | Possibly_nonempty

type report = {
  verdict : verdict;
  regex : Regex.t;
  nfa : Nfa.t option;
  diagnostics : Diagnostic.t list;
  fwd_cost : float;
  bwd_cost : float;
  states_before : int;
  states_after : int;
}

let is_empty r = match r.verdict with Empty -> true | Possibly_nonempty -> false

(* ---- Atom oracles ---------------------------------------------------- *)

type context = Cnode | Cedge

type atom_verdict = V_true | V_false | V_unknown

(* A closed label universe: every label that actually occurs, as a pair
   of an evaluator for label-pure tests and the label's multiplicity.
   Works both over schema constants and over an instance's interned
   label ids, which is why the evaluator is abstract. *)
type universe = ((Regex.test -> bool) * int) list

type oracle = {
  atom : context -> Atom.t -> atom_verdict * Diagnostic.t option;
  node_universe : universe option;
  edge_universe : universe option;
  default_edge_cost : float;
}

let where = function Cnode -> "node" | Cedge -> "edge"

(* ---- Three-valued test simplification -------------------------------- *)

type tri = T | F | U of Regex.test

let rec tri_of av ctx t =
  match t with
  | Regex.Atom a -> ( match av ctx a with V_true -> T | V_false -> F | V_unknown -> U t)
  | Regex.Not t1 -> ( match tri_of av ctx t1 with T -> F | F -> T | U t' -> U (Regex.Not t'))
  | Regex.Or (a, b) -> (
      match (tri_of av ctx a, tri_of av ctx b) with
      | T, _ | _, T -> T
      | F, x | x, F -> x
      | U a', U b' -> U (Regex.Or (a', b')))
  | Regex.And (a, b) -> (
      match (tri_of av ctx a, tri_of av ctx b) with
      | F, _ | _, F -> F
      | T, x | x, T -> x
      | U a', U b' -> U (Regex.And (a', b')))

let distinct_atoms t =
  let rec go acc = function
    | Regex.Atom a -> if List.exists (Atom.equal a) acc then acc else a :: acc
    | Regex.Not t -> go acc t
    | Regex.Or (a, b) | Regex.And (a, b) -> go (go acc a) b
  in
  go [] t

(* Exhaustive truth table over the distinct atoms of a (small) test.
   Atoms are treated as independent, which is sound for both directions
   we use: unsatisfiable under free assignments implies unsatisfiable on
   any graph, and tautological under free assignments implies always
   true. *)
let truth_table_limit = 12

let truth_table t =
  let atoms = Array.of_list (distinct_atoms t) in
  let n = Array.length atoms in
  if n > truth_table_limit then `Open
  else begin
    let any = ref false and all = ref true in
    let mask = ref 0 in
    let limit = 1 lsl n in
    while (not !any || !all) && !mask < limit do
      let m = !mask in
      let sat a =
        let rec idx i = if Atom.equal atoms.(i) a then i else idx (i + 1) in
        m land (1 lsl idx 0) <> 0
      in
      if Regex.eval_test sat t then any := true else all := false;
      incr mask
    done;
    if not !any then `Never else if !all then `Always else `Open
  end

(* Boolean-only simplification (no vocabulary): what pass 1 does with an
   oracle that knows nothing.  Exposed for unit tests and the CLI. *)
let simplify_test t =
  match tri_of (fun _ _ -> V_unknown) Cnode t with
  | T -> `T
  | F -> `F
  | U t' -> ( match truth_table t' with `Never -> `F | `Always -> `T | `Open -> `Test t')

(* ---- NFA trimming ----------------------------------------------------- *)

let reachable n adj roots =
  let seen = Array.make n false in
  let stack = ref roots in
  List.iter (fun r -> seen.(r) <- true) roots;
  while !stack <> [] do
    match !stack with
    | [] -> ()
    | q :: rest ->
        stack := rest;
        List.iter
          (fun q' ->
            if not seen.(q') then begin
              seen.(q') <- true;
              stack := q' :: !stack
            end)
          adj.(q)
  done;
  seen

(* Keep only states reachable from the start and co-reachable from the
   accept over moves the [alive] predicate admits, renumbering densely.
   [None] when the accept is unreachable — the automaton's language is
   empty. *)
let trim nfa ~alive =
  let n = Nfa.num_states nfa in
  let all = Nfa.transition_list nfa in
  let edges = List.filter (fun (_, m, _) -> alive m) all in
  let fwd_adj = Array.make n [] and bwd_adj = Array.make n [] in
  List.iter
    (fun (q, _, q') ->
      fwd_adj.(q) <- q' :: fwd_adj.(q);
      bwd_adj.(q') <- q :: bwd_adj.(q'))
    edges;
  let reach = reachable n fwd_adj [ Nfa.start nfa ] in
  let coreach = reachable n bwd_adj [ Nfa.accept nfa ] in
  let keep = Array.init n (fun q -> reach.(q) && coreach.(q)) in
  if not (keep.(Nfa.start nfa) && keep.(Nfa.accept nfa)) then None
  else if
    (* Nothing removed: keep the original automaton object, preserving
       its transition order (and thus the kernel's exploration order)
       exactly — the analyzer must be free when it has nothing to say. *)
    Array.for_all Fun.id keep && List.length edges = List.length all
  then Some nfa
  else begin
    let remap = Array.make n (-1) in
    let count = ref 0 in
    for q = 0 to n - 1 do
      if keep.(q) then begin
        remap.(q) <- !count;
        incr count
      end
    done;
    let transitions =
      List.filter_map
        (fun (q, m, q') ->
          if keep.(q) && keep.(q') then Some (remap.(q), m, remap.(q')) else None)
        edges
    in
    Some
      (Nfa.make ~num_states:!count ~start:remap.(Nfa.start nfa) ~accept:remap.(Nfa.accept nfa)
         ~transitions)
  end

(* ---- Seed-cost estimates ----------------------------------------------- *)

(* Estimated number of edges examined by the first expansion when
   evaluating forwards (edge moves out of the start's spontaneous
   closure) vs backwards (edge moves into the accept's spontaneous
   co-closure).  Node-checks are optimistically assumed passable. *)
let seed_costs nfa ~edge_cost =
  let n = Nfa.num_states nfa in
  let spont = Array.make n [] and spont_rev = Array.make n [] in
  let edge_out = Array.make n [] in
  List.iter
    (fun (q, m, q') ->
      match m with
      | Nfa.Eps | Nfa.Node_check _ ->
          spont.(q) <- q' :: spont.(q);
          spont_rev.(q') <- q :: spont_rev.(q')
      | Nfa.Forward t | Nfa.Backward t -> edge_out.(q) <- (t, q') :: edge_out.(q))
    (Nfa.transition_list nfa);
  let start_set = reachable n spont [ Nfa.start nfa ] in
  let accept_co = reachable n spont_rev [ Nfa.accept nfa ] in
  let fwd = ref 0.0 and bwd = ref 0.0 in
  for q = 0 to n - 1 do
    List.iter
      (fun (t, q') ->
        if start_set.(q) then fwd := !fwd +. edge_cost t;
        if accept_co.(q') then bwd := !bwd +. edge_cost t)
      edge_out.(q)
  done;
  (!fwd, !bwd)

(* ---- Vocabulary suggestions ------------------------------------------- *)

let levenshtein a b =
  let la = String.length a and lb = String.length b in
  let prev = Array.init (lb + 1) Fun.id in
  let cur = Array.make (lb + 1) 0 in
  for i = 1 to la do
    cur.(0) <- i;
    for j = 1 to lb do
      let cost = if a.[i - 1] = b.[j - 1] then 0 else 1 in
      cur.(j) <- min (min (prev.(j) + 1) (cur.(j - 1) + 1)) (prev.(j - 1) + cost)
    done;
    Array.blit cur 0 prev 0 (lb + 1)
  done;
  prev.(lb)

(* Closest vocabulary entry within edit distance 2, for "did you mean"
   hints on unknown labels. *)
let suggest name candidates =
  let target = Const.to_string name in
  List.fold_left
    (fun acc c ->
      let d = levenshtein target (Const.to_string c) in
      if d = 0 || d > 2 then acc
      else
        match acc with
        | Some (_, best) when best <= d -> acc
        | _ -> Some (c, d))
    None candidates
  |> Option.map fst

(* ---- Oracles ---------------------------------------------------------- *)

let universe_of_histogram hist =
  Option.map
    (List.map (fun (l, n) ->
         let sat = function Atom.Label c -> Const.equal c l | Atom.Prop _ | Atom.Feature _ -> false in
         ((fun t -> Regex.eval_test sat t), n)))
    hist

(* Schema-backed oracle: vocabulary misses are statically false and get
   a lint diagnostic; everything inside the vocabulary stays unknown
   (except labels carried by every object, which are true). *)
let of_schema = function
  | None ->
      {
        atom = (fun _ _ -> (V_unknown, None));
        node_universe = None;
        edge_universe = None;
        default_edge_cost = 1.0;
      }
  | Some (s : Schema.t) ->
      let atom ctx a =
        let sub = Atom.to_query_string a in
        match a with
        | Atom.Label l -> begin
            let hist, total =
              match ctx with
              | Cnode -> (s.node_labels, s.num_nodes)
              | Cedge -> (s.edge_labels, s.num_edges)
            in
            match hist with
            | None -> (V_unknown, None)
            | Some hist -> (
                match Schema.find_label hist l with
                | Some (_, n) when n = total && total > 0 -> (V_true, None)
                | Some _ -> (V_unknown, None)
                | None ->
                    let hint =
                      match suggest l (List.map fst hist) with
                      | Some c -> Printf.sprintf " (did you mean `%s`?)" (Const.to_string c)
                      | None -> ""
                    in
                    ( V_false,
                      Some
                        (Diagnostic.make ~code:"GQ001" ~severity:Warning ~subterm:sub
                           ~message:
                             (Printf.sprintf "label `%s` does not occur on any %s%s"
                                (Const.to_string l) (where ctx) hint)) ))
          end
        | Atom.Prop (p, _) -> begin
            let props = match ctx with Cnode -> s.node_props | Cedge -> s.edge_props in
            match props with
            | None -> (V_unknown, None)
            | Some ps when List.exists (Const.equal p) ps -> (V_unknown, None)
            | Some _ ->
                ( V_false,
                  Some
                    (Diagnostic.make ~code:"GQ002" ~severity:Warning ~subterm:sub
                       ~message:
                         (Printf.sprintf "property `%s` never occurs on a %s" (Const.to_string p)
                            (where ctx))) )
          end
        | Atom.Feature (i, _) -> (
            match s.feature_dim with
            | None -> (V_unknown, None)
            | Some d when i <= d -> (V_unknown, None)
            | Some d ->
                ( V_false,
                  Some
                    (Diagnostic.make ~code:"GQ003" ~severity:Warning ~subterm:sub
                       ~message:
                         (Printf.sprintf "feature index %d exceeds the graph dimension %d" i d)) ))
      in
      {
        atom;
        node_universe = universe_of_histogram s.node_labels;
        edge_universe = universe_of_histogram s.edge_labels;
        default_edge_cost = float_of_int (max s.num_edges 1);
      }

(* Snapshot-backed oracle (the execution path): per-atom exists/forall
   answers from [count], the number of nodes (edges) satisfying an atom:
   exists iff it is positive, forall iff it is every object.  Edge label
   atoms read the snapshot's label-frequency stats instead (O(labels)). *)
let of_snapshot ~count (inst : Snapshot.t) =
  let edge_universe =
    if inst.Snapshot.num_labels = 0 then None
    else begin
      let counts = inst.Snapshot.stats.Snapshot.edge_label_counts in
      let out = ref [] in
      for id = inst.Snapshot.num_labels - 1 downto 0 do
        if counts.(id) > 0 then
          out := ((fun t -> Regex.eval_test (Snapshot.label_holds inst id) t), counts.(id)) :: !out
      done;
      Some !out
    end
  in
  let counted ~edge total a =
    let n = count ~edge a in
    (n > 0, n = total && total > 0)
  in
  let info ctx a =
    match (ctx, a, edge_universe) with
    | Cedge, Atom.Label _, Some u ->
        let t = Regex.Atom a in
        (List.exists (fun (ev, _) -> ev t) u, u <> [] && List.for_all (fun (ev, _) -> ev t) u)
    | Cnode, _, _ -> counted ~edge:false inst.Snapshot.num_nodes a
    | Cedge, _, _ -> counted ~edge:true inst.Snapshot.num_edges a
  in
  let atom ctx a =
    let exists, forall = info ctx a in
    if not exists then begin
      let code, what =
        match a with
        | Atom.Label l -> ("GQ001", Printf.sprintf "label `%s`" (Const.to_string l))
        | Atom.Prop (p, _) -> ("GQ002", Printf.sprintf "property test `%s`" (Atom.to_query_string a) ^ Printf.sprintf " (property `%s`)" (Const.to_string p))
        | Atom.Feature _ -> ("GQ003", Printf.sprintf "feature test `%s`" (Atom.to_query_string a))
      in
      ( V_false,
        Some
          (Diagnostic.make ~code ~severity:Warning ~subterm:(Atom.to_query_string a)
             ~message:(Printf.sprintf "%s matches no %s in the graph" what (where ctx))) )
    end
    else if forall then (V_true, None)
    else (V_unknown, None)
  in
  {
    atom;
    node_universe = None;
    edge_universe;
    default_edge_cost = float_of_int (max inst.Snapshot.num_edges 1);
  }

(* Static verdict of a test against a schema vocabulary, shared with the
   decision procedures in Decide: each atom is read as the GQ001/002/003
   pass reads it (outside a closed universe it is false), then the test
   is folded and truth-tabled.  That keeps containment verdicts
   consistent with lint (no false "subsumed" reports on
   out-of-vocabulary labels). *)
let schema_verdict schema ~edge t =
  let o = of_schema schema in
  match tri_of (fun ctx a -> fst (o.atom ctx a)) (if edge then Cedge else Cnode) t with
  | T -> `True
  | F -> `False
  | U t' -> ( match truth_table t' with `Never -> `False | `Always -> `True | `Open -> `Unknown)

(* ---- The pipeline ----------------------------------------------------- *)

let analyze_with (o : oracle) regex =
  let diags = ref [] in
  let add d = diags := d :: !diags in
  (* Atom verdicts come straight from the oracle; the vocabulary
     diagnostic of an atom is emitted once, on first use. *)
  let av ctx a =
    let v, d = o.atom ctx a in
    Option.iter (fun d -> if not (List.mem d !diags) then add d) d;
    v
  in
  let universe_for = function Cnode -> o.node_universe | Cedge -> o.edge_universe in
  (* Label exclusivity: every node/edge carries exactly one label, so a
     label-pure test holds on an object iff it holds on the object's
     label; a closed universe then decides the test. *)
  let universe_verdict ctx t =
    match universe_for ctx with
    | Some u when Regex.label_pure t ->
        let sats = List.length (List.filter (fun (ev, _) -> ev t) u) in
        if sats = 0 then `Never else if sats = List.length u then `Always else `Open
    | _ -> `Open
  in
  (* The verdict of one test; [report] gets its test-level finding.  The
     trimming pass asks again quietly: same verdicts, and the pruning
     pass already reported. *)
  let classify ~report ctx t0 =
    let finding code severity message =
      report (Diagnostic.make ~code ~severity ~subterm:(Regex.test_to_string ~top:true t0) ~message)
    in
    let always () =
      if not (Regex.equal_test t0 Regex.any_test) then
        finding "GQ011" Info "test always holds; equivalent to the any-test";
      `T
    in
    match tri_of av ctx t0 with
    | T -> `T
    | F -> `F
    | U t -> (
        match universe_verdict ctx t with
        | `Never ->
            finding "GQ013" Warning
              (Printf.sprintf "no occurring %s label satisfies this test" (where ctx));
            `F
        | `Always -> always ()
        | `Open -> (
            match truth_table t with
            | `Never ->
                finding "GQ010" Warning "test is unsatisfiable (contradiction)";
                `F
            | `Always -> always ()
            | `Open -> `Test t))
  in
  let analyze_test = classify ~report:add in
  let statically_false ctx t = classify ~report:ignore ctx t = `F in
  let alive = function
    | Nfa.Eps -> true
    | Nfa.Node_check t -> not (statically_false Cnode t)
    | Nfa.Forward t | Nfa.Backward t -> not (statically_false Cedge t)
  in
  let prune_diag sub reason = add (Diagnostic.make ~code:"GQ012" ~severity:Info ~subterm:sub ~message:reason) in
  let guard ctx t mk =
    match analyze_test ctx t with
    | `F -> None
    | `T -> Some (mk Regex.any_test)
    | `Test t' -> Some (mk t')
  in
  let rec prune r =
    match r with
    | Regex.Node_test t -> guard Cnode t (fun t -> Regex.Node_test t)
    | Regex.Fwd t -> guard Cedge t (fun t -> Regex.Fwd t)
    | Regex.Bwd t -> guard Cedge t (fun t -> Regex.Bwd t)
    | Regex.Alt (a, b) -> (
        match (prune a, prune b) with
        | None, None -> None
        | None, Some b' ->
            prune_diag (Regex.to_string ~top:true a) "alternation branch can never match; pruned";
            Some b'
        | Some a', None ->
            prune_diag (Regex.to_string ~top:true b) "alternation branch can never match; pruned";
            Some a'
        | Some a', Some b' -> Some (Regex.Alt (a', b')))
    | Regex.Seq (a, b) -> (
        match (prune a, prune b) with Some a', Some b' -> Some (Regex.Seq (a', b')) | _ -> None)
    | Regex.Star body -> (
        match prune body with
        | None ->
            prune_diag
              (Regex.to_string ~top:true r)
              "iterated expression can never match; (r)* reduces to the empty path";
            Some (Regex.Node_test Regex.any_test)
        | Some body' -> Some (Regex.Star body'))
  in
  let edge_cost t =
    match o.edge_universe with
    | Some u when Regex.label_pure t ->
        List.fold_left (fun acc (ev, n) -> if ev t then acc +. float_of_int n else acc) 0.0 u
    | _ -> o.default_edge_cost
  in
  let finish_empty () =
    add
      (Diagnostic.make ~code:"GQ000" ~severity:Error ~subterm:(Regex.to_string ~top:true regex)
         ~message:"query is statically empty: no path can ever match");
    {
      verdict = Empty;
      regex;
      nfa = None;
      diagnostics = Diagnostic.sort (List.rev !diags);
      fwd_cost = 0.0;
      bwd_cost = 0.0;
      states_before = 0;
      states_after = 0;
    }
  in
  match prune regex with
  | None -> finish_empty ()
  | Some pruned -> (
      let simplified = Regex.simplify pruned in
      let nfa0 = Nfa.of_regex simplified in
      let before = Nfa.num_states nfa0 in
      match trim nfa0 ~alive with
      | None -> finish_empty ()
      | Some nfa ->
          let after = Nfa.num_states nfa in
          if after < before then
            add
              (Diagnostic.make ~code:"GQ020" ~severity:Info ~subterm:""
                 ~message:(Printf.sprintf "NFA trimming removed %d of %d states" (before - after) before));
          let fwd_cost, bwd_cost = seed_costs nfa ~edge_cost in
          {
            verdict = Possibly_nonempty;
            regex = simplified;
            nfa = Some nfa;
            diagnostics = Diagnostic.sort (List.rev !diags);
            fwd_cost;
            bwd_cost;
            states_before = before;
            states_after = after;
          })

(* ---- Entry points ----------------------------------------------------- *)

(* Lint path: static, against an (optional) schema vocabulary. *)
let run ?schema regex = analyze_with (of_schema schema) regex

(* Execution path: against the instance the query is about to run on,
   its atoms counted by the snapshot's postings (built once per snapshot
   and atom, shared with seeding and joins). *)
let plan_with ~count inst regex = analyze_with (of_snapshot ~count inst) regex

let plan inst regex =
  plan_with inst regex ~count:(fun ~edge a ->
      Array.length ((if edge then Postings.edges else Postings.nodes) inst a))
