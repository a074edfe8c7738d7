(* The bridge between the static analyzer and the product kernel: every
   core entry point plans its query here instead of calling
   [Product.create] directly.

   The query is pruned and its NFA trimmed; a statically-empty query
   yields [Empty] and the caller answers without constructing any
   product state at all.

   The trimmed automaton is then canonicalized by the decision
   procedures (Decide): when the minimal canonical automaton is
   strictly smaller it is evaluated instead of the trimmed one
   (identity-preserving when the automaton is already minimal), and its
   canonical key makes syntactically different but equivalent queries
   share one entry in the semantic plan cache (Semcache).
   Canonicalization runs under a pure state cap — no wall clock — so
   planning stays deterministic; when it gives up, the trimmed
   automaton is used as before.

   [plan] does the analysis and canonicalization once; the products are
   built from that one plan on demand, so a caller that needs the
   semantic key first (the Governor's result cache) and a product later
   plans once.  All-pairs evaluation asks for the product over the
   reversed automaton too — plan-cached under [key|rev] — and [Rpq]
   picks the direction from measured live-seed counts.

   The optional [budget] is attached to the product here, so every
   kernel downstream of the planner shares one cooperative resource
   budget without further parameter threading.  Cached plans are only
   looked up or stored for unlimited budgets: a product warmed under a
   tripped budget must never be served to an unbudgeted caller. *)

module Analyze = Gqkg_analysis.Analyze
module Decide = Gqkg_analysis.Decide
module Schema = Gqkg_analysis.Schema
module Budget = Gqkg_util.Budget
module Nfa = Gqkg_automata.Nfa
module Regex = Gqkg_automata.Regex

type prep = Empty | Ready of Product.t

(* State cap for planning-time canonicalization: deterministic (no
   wall-clock component) and small — a query automaton that blows past
   this is evaluated untouched. *)
let canon_max_states = 256

(* A query planned once: analysis and canonicalization done, products
   built on demand by [build].  [eval] is the analyzed expression and
   the automaton to evaluate; [None] when statically empty. *)
type query = {
  inst : Gqkg_graph.Snapshot.t;
  budget : Budget.t option;
  report : Analyze.report;
  canon : Decide.canonical option;
  minimized : bool;
  eval : (Regex.t * Nfa.t) option;
}

type plan = {
  prep : prep;
  report : Analyze.report;
  canon : Decide.canonical option;
  minimized : bool;  (** the canonical automaton is the one being evaluated *)
  plan_cache_hit : bool;
}

(* Schema derivation is per snapshot, not per query: the vocabulary
   summary of a snapshot is a pure function of its (immutable) columns,
   so one [Schema.of_snapshot] per snapshot suffices. *)
let schema_id : Schema.t Type.Id.t = Type.Id.make ()
let schema_for inst = Gqkg_graph.Snapshot.memo inst schema_id Schema.of_snapshot

(* The canonical form of the analyzed automaton, from the snapshot's
   shape cache when a query of the same shape ({!Decide.shape}) was
   canonicalized before: the cached form with the earlier query's atoms
   renamed rank for rank to this one's ({!Decide.rename_atoms}), equal
   to a fresh canonicalization field for field. *)
let canonical_for inst nfa =
  let atoms, key = Decide.shape ~max_states:canon_max_states nfa in
  match Semcache.find_shape inst ~key with
  | Some (_, None) -> None
  | Some (cached, Some c) ->
      let rename a =
        match Array.find_index (Gqkg_graph.Atom.equal a) cached with
        | Some i -> atoms.(i)
        | None -> a
      in
      Some (Decide.rename_atoms c rename)
  | None ->
      let c = Decide.canonicalize_nfa ~schema:(schema_for inst) ~max_states:canon_max_states nfa in
      Semcache.store_shape inst ~key (atoms, c);
      c

let cacheable = function None -> true | Some b -> Budget.is_unlimited b

let plan ?budget inst regex =
  let report = Analyze.plan inst regex in
  let canon, minimized, eval =
    match report.Analyze.nfa with
    | None -> (None, false, None)
    | Some nfa ->
        let canon = canonical_for inst nfa in
        let minimized, eval_nfa =
          match canon with
          | Some c when c.Decide.states < Nfa.num_states nfa -> (true, c.Decide.nfa)
          | _ -> (false, nfa)
        in
        (canon, minimized, Some (report.Analyze.regex, eval_nfa))
  in
  { inst; budget; report; canon; minimized; eval }

(* The canonical key of a query on this snapshot, for semantic result
   caching: [None] when the query is statically empty (already O(1) —
   nothing to cache) or canonicalization gave up. *)
let key (q : query) = Option.map (fun c -> c.Decide.key) q.canon

(* Build (or fetch from the plan cache) the product over the evaluated
   automaton, or over its reversal; the boolean reports a plan-cache
   hit.  [None] when statically empty. *)
let build (q : query) ~reverse =
  let budget = q.budget in
  Option.map
    (fun (regex, nfa) ->
      let create () =
        if reverse then Product.create ?budget ~nfa:(Nfa.reverse nfa) q.inst (Regex.reverse regex)
        else Product.create ?budget ~nfa q.inst regex
      in
      match q.canon with
      | Some c when cacheable budget -> (
          let key = if reverse then c.Decide.key ^ "|rev" else c.Decide.key in
          match Semcache.find_product q.inst ~key with
          | Some p -> (p, true)
          | None ->
              let p = create () in
              Semcache.store_product q.inst ~key p;
              (p, false))
      | _ -> (create (), false))
    q.eval

let product q = Option.map fst (build q ~reverse:false)
let reversed q = Option.map fst (build q ~reverse:true)

let prepare ?budget inst regex =
  match product (plan ?budget inst regex) with None -> Empty | Some p -> Ready p

let prepare_explained ?budget inst regex =
  let q = plan ?budget inst regex in
  let prep, plan_cache_hit =
    match build q ~reverse:false with None -> (Empty, false) | Some (p, hit) -> (Ready p, hit)
  in
  { prep; report = q.report; canon = q.canon; minimized = q.minimized; plan_cache_hit }

let semantic_key inst regex = key (plan inst regex)
