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
let consults ~use_cache budget = use_cache || Budget.is_unlimited budget

(* The result key: the canonical key with any max_length folded in. *)
let result_key ?max_length q =
  Option.map
    (fun k -> match max_length with Some l -> k ^ "|len" ^ string_of_int l | None -> k)
    (Planner.key q)

(* Evaluate a planned query whose result-cache lookup under [key] gave
   [cached] ([key] is None when the cache is not consulted). *)
let eval_keyed ~budget ?max_length inst q ~key ~cached =
  match (key, cached) with
  | _, Some a -> { Budget.value = a; completeness = Budget.Complete }
  | None, None -> outcome budget (Rpq.eval_planned ?max_length q)
  | Some key, None ->
      let a = Rpq.eval_planned ?max_length q in
      if Budget.completeness budget = Budget.Complete then Semcache.store_answer inst ~key a;
      outcome budget a

let lookup inst key = Option.bind key (fun key -> Semcache.find_answer inst ~key)

let eval_answer ?(use_cache = false) ~budget ?max_length inst regex =
  (* One plan serves both the key and, on a miss, the evaluation. *)
  let q = Planner.plan ~budget inst regex in
  let key = if consults ~use_cache budget then result_key ?max_length q else None in
  eval_keyed ~budget ?max_length inst q ~key ~cached:(lookup inst key)

(* The text memo's key: max_length, then the text, so no two (text,
   max_length) pairs share one whatever the text holds. *)
let text_key ?max_length text =
  (match max_length with Some l -> string_of_int l | None -> "*") ^ ":" ^ text

(* eval_answer behind the snapshot's text memo.  A text hit whose answer
   is still cached answers with no parse and no plan.  A text hit whose
   answer was evicted plans once and skips the lookup it already made,
   so each call makes exactly one result-cache lookup.  A miss plans
   once and memoizes the key that plan gave, when the answer is
   Complete. *)
let eval_text ?(use_cache = false) ~budget ?max_length ~parse inst text =
  if not (consults ~use_cache budget) then
    Result.map (eval_answer ~budget ?max_length inst) (parse text)
  else
    let tkey = text_key ?max_length text in
    let known = Semcache.find_text inst ~key:tkey in
    match lookup inst known with
    | Some a -> Ok { Budget.value = a; completeness = Budget.Complete }
    | None ->
        Result.map
          (fun regex ->
            let q = Planner.plan ~budget inst regex in
            let key = result_key ?max_length q in
            let cached = if Option.is_some known then None else lookup inst key in
            let o = eval_keyed ~budget ?max_length inst q ~key ~cached in
            (match key with
            | Some key when Option.is_none known && o.Budget.completeness = Budget.Complete ->
                Semcache.store_text inst ~key:tkey key
            | _ -> ());
            o)
          (parse text)

let eval_pairs ?use_cache ~budget ?max_length inst regex =
  let o = eval_answer ?use_cache ~budget ?max_length inst regex in
  { o with Budget.value = Answer.to_pairs o.Budget.value }

let eval_relation ~budget ?max_length inst regex =
  let o = eval_answer ~budget ?max_length inst regex in
  { o with Budget.value = Join.relation_of_answer o.Budget.value }

(* Derived state lives on each snapshot, so a commit has nothing to
   invalidate: the governed write path is the epoch manager's. *)
let commit = Gqkg_graph.Epochs.commit
