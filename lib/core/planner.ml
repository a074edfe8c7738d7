(* The bridge between the static analyzer and the product kernel: every
   core entry point plans its query here instead of calling
   [Product.create] directly.

   With analysis enabled (the default), the query is pruned and its NFA
   trimmed; a statically-empty query yields [Empty] and the caller
   answers without constructing any product state at all.  With
   analysis disabled, [prepare] reproduces the pre-analyzer path bit for
   bit: the untrimmed Thompson automaton of the original expression.

   On top of that, with [minimize] on (the default), the trimmed
   automaton is canonicalized by the decision procedures (Decide):
   when the minimal canonical automaton is strictly smaller it is
   evaluated instead of the trimmed one (identity-preserving when the
   automaton is already minimal), and its canonical key makes
   syntactically different but equivalent queries share one entry in
   the semantic plan cache (Semcache).  Canonicalization runs under a
   pure state cap — no wall clock — so planning stays deterministic;
   when it gives up, the trimmed automaton is used as before.

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

(* Evaluate the minimized canonical automaton instead of the trimmed
   one?  Bench A/Bs this; [false] restores the pre-decision-procedure
   planner exactly. *)
let minimize = ref true

(* State cap for planning-time canonicalization: deterministic (no
   wall-clock component) and small — a query automaton that blows past
   this is evaluated untouched. *)
let canon_max_states = ref 256

(* A query planned once: analysis and canonicalization done, products
   built on demand by [build].  [eval] is the analyzed expression and
   the automaton to evaluate; [None] when statically empty. *)
type query = {
  inst : Gqkg_graph.Snapshot.t;
  budget : Budget.t option;
  regex : Regex.t;
  report : Analyze.report option;
  canon : Decide.canonical option;
  minimized : bool;
  eval : (Regex.t * Nfa.t) option;
}

type plan = {
  prep : prep;
  report : Analyze.report option;
  canon : Decide.canonical option;
  minimized : bool;  (** the canonical automaton is the one being evaluated *)
  plan_cache_hit : bool;
}

(* Schema derivation is per epoch, not per query: the vocabulary summary
   of a snapshot is a pure function of its (immutable) columns, so one
   [Schema.of_snapshot] per committed epoch suffices.  A short memo list
   (not a single slot) keeps pinned older epochs warm while the writer
   commits new ones. *)
let schema_memo : (int * Schema.t) list ref = ref []
let schema_memo_cap = 8

let schema_for (inst : Gqkg_graph.Snapshot.t) =
  let epoch = inst.Gqkg_graph.Snapshot.epoch in
  match List.assoc_opt epoch !schema_memo with
  | Some s -> s
  | None ->
      let s = Schema.of_snapshot inst in
      let rec take n = function [] -> [] | _ when n <= 0 -> [] | x :: r -> x :: take (n - 1) r in
      schema_memo := (epoch, s) :: take (schema_memo_cap - 1) !schema_memo;
      s

let canonical_for inst nfa =
  if not !minimize then None
  else Decide.canonicalize_nfa ~schema:(schema_for inst) ~max_states:!canon_max_states nfa

let cacheable = function None -> true | Some b -> Budget.is_unlimited b

let plan ?budget inst regex =
  let q report canon minimized eval = { inst; budget; regex; report; canon; minimized; eval } in
  match Analyze.plan_if_enabled inst regex with
  | None -> q None None false None
  | Some r -> (
      match r.Analyze.nfa with
      | None -> q (Some r) None false None
      | Some nfa ->
          let canon = canonical_for inst nfa in
          let minimized, eval_nfa =
            match canon with
            | Some c when c.Decide.states < Nfa.num_states nfa -> (true, c.Decide.nfa)
            | _ -> (false, nfa)
          in
          q (Some r) canon minimized (Some (r.Analyze.regex, eval_nfa)))

(* The canonical key of a query on this snapshot, for semantic result
   caching: [None] when analysis or minimization is off, the query is
   statically empty (already O(1) — nothing to cache), or
   canonicalization gave up. *)
let key (q : query) = Option.map (fun c -> c.Decide.key) q.canon

(* Build (or fetch from the plan cache) the product over the evaluated
   automaton, or over its reversal; the boolean reports a plan-cache
   hit.  [None] when statically empty.  Without analysis only the
   forward product exists: the untrimmed Thompson automaton of the
   original expression, exactly the pre-analyzer path. *)
let build (q : query) ~reverse =
  let budget = q.budget in
  match (q.report, q.eval) with
  | None, _ -> if reverse then None else Some (Product.create ?budget q.inst q.regex, false)
  | Some _, None -> None
  | Some _, Some (regex, nfa) -> (
      let create () =
        if reverse then Product.create ?budget ~nfa:(Nfa.reverse nfa) q.inst (Regex.reverse regex)
        else Product.create ?budget ~nfa q.inst regex
      in
      match q.canon with
      | Some c when cacheable budget -> (
          let key = if reverse then c.Decide.key ^ "|rev" else c.Decide.key in
          match Semcache.find_product q.inst ~key with
          | Some p -> Some (p, true)
          | None ->
              let p = create () in
              Semcache.store_product q.inst ~key p;
              Some (p, false))
      | _ -> Some (create (), false))

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
