(* Outcome-typed facade over the budget-aware kernels: run under the
   given budget, then read its completeness off the sticky trip flag.
   Soundness of each Partial value is the kernel's contract (subsets /
   undercounts / enumeration prefixes) — see the per-module notes. *)

module Budget = Gqkg_util.Budget

let outcome budget value = { Budget.value; completeness = Budget.completeness budget }

(* eval_pairs consults the semantic result cache: keyed by the query's
   canonical-automaton key (+ max_length) and the snapshot epoch, so
   syntactically different but equivalent queries share one entry.
   Only Complete results are stored, and by default only unlimited
   budgets look up — a Partial answer must never be served as if it
   were the whole truth, and a budgeted run must actually consume its
   budget (the fault-injection suites rely on that).  [use_cache]
   opts a budgeted caller in: serving a cached Complete result under a
   budget is sound (it IS the whole truth) and is how the server keeps
   hot queries cheap while every request still carries a deadline. *)
let eval_pairs ?(use_cache = false) ~budget ?max_length inst regex =
  (* One plan serves both the key and, on a miss, the evaluation. *)
  let q = Planner.plan ~budget inst regex in
  let key =
    if (use_cache || Budget.is_unlimited budget) && !Semcache.enabled then
      Option.map
        (fun k ->
          match max_length with Some l -> k ^ "|len" ^ string_of_int l | None -> k)
        (Planner.key q)
    else None
  in
  match key with
  | None -> outcome budget (Rpq.eval_planned ?max_length q)
  | Some key -> (
      match Semcache.find_pairs inst ~key with
      | Some v -> { Budget.value = v; completeness = Budget.Complete }
      | None ->
          let v = Rpq.eval_planned ?max_length q in
          (match Budget.completeness budget with
          | Budget.Complete -> Semcache.store_pairs inst ~key v
          | Budget.Partial _ -> ());
          outcome budget v)

let reachable_many ~budget ?max_length inst regex ~sources =
  outcome budget (Rpq.reachable_many ~budget ?max_length inst regex ~sources)

let source_nodes ~budget ?max_length inst regex =
  outcome budget (Rpq.source_nodes ~budget ?max_length inst regex)

let count ~budget inst regex ~length = outcome budget (Count.count ~budget inst regex ~length)

let count_all ~budget inst regex ~max_length =
  outcome budget (Count.count_all ~budget inst regex ~max_length)

let approx_count ~budget ?seed inst regex ~length ~epsilon =
  outcome budget (Approx_count.count ~budget ?seed inst regex ~length ~epsilon)

let paths ~budget ?sources inst regex ~length =
  outcome budget (Enumerate.paths ~budget ?sources inst regex ~length)

let shortest_path_length ~budget ?max_length inst regex ~source ~target =
  outcome budget (Rpq.shortest_path_length ~budget ?max_length inst regex ~source ~target)

(* The write path joins the governed surface here: commit the overlay
   through the epoch manager, then tell the semantic cache which epochs
   are still live — entries of retired epochs drop, entries of pinned
   ones are retained (a reader pinned to epoch N keeps its hits while
   the writer commits N+1). *)
let commit mgr overlay =
  let base, reuse = Gqkg_graph.Epochs.commit mgr overlay in
  Semcache.note_commit ~live_epochs:(Gqkg_graph.Epochs.live_epochs mgr);
  (base, reuse)
