(* Outcome-typed, cached all-pairs evaluation: run under the given
   budget, then read its completeness off the sticky trip flag.  A
   Partial answer is a subset of the pairs (the kernel's contract). *)

module Budget = Gqkg_util.Budget

let outcome budget value = { Budget.value; completeness = Budget.completeness budget }

(* eval_answer consults the snapshot's semantic result cache: keyed by
   the query's canonical-automaton key (+ max_length), so syntactically
   different but equivalent queries share one entry.  Only Complete
   results are stored, and by default only unlimited budgets look up —
   a Partial answer must never be served as if it were the whole truth,
   and a budgeted run must actually consume its budget (the
   fault-injection suites rely on that).  [use_cache] opts a budgeted
   caller in: serving a cached Complete result under a budget is sound
   (it IS the whole truth) and is how the server keeps hot queries
   cheap while every request still carries a deadline. *)
let eval_answer ?(use_cache = false) ~budget ?max_length inst regex =
  (* One plan serves both the key and, on a miss, the evaluation. *)
  let q = Planner.plan ~budget inst regex in
  let key =
    if use_cache || Budget.is_unlimited budget then
      Option.map
        (fun k ->
          match max_length with Some l -> k ^ "|len" ^ string_of_int l | None -> k)
        (Planner.key q)
    else None
  in
  match Option.map (fun key -> (key, Semcache.find_answer inst ~key)) key with
  | Some (_, Some a) -> { Budget.value = a; completeness = Budget.Complete }
  | None -> outcome budget (Rpq.eval_planned ?max_length q)
  | Some (key, None) ->
      let a = Rpq.eval_planned ?max_length q in
      if Budget.completeness budget = Budget.Complete then Semcache.store_answer inst ~key a;
      outcome budget a

let eval_pairs ?use_cache ~budget ?max_length inst regex =
  let o = eval_answer ?use_cache ~budget ?max_length inst regex in
  { o with Budget.value = Answer.to_pairs o.Budget.value }

let eval_relation ~budget ?max_length inst regex =
  let o = eval_answer ~budget ?max_length inst regex in
  { o with Budget.value = Join.relation_of_answer o.Budget.value }

(* Derived state lives on each snapshot, so a commit has nothing to
   invalidate: the governed write path is the epoch manager's. *)
let commit = Gqkg_graph.Epochs.commit
