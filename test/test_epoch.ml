(* The write path and MVCC snapshot epochs.

   The load-bearing property: a snapshot produced by incremental epoch
   commits (Overlay.commit through Epochs, at random commit boundaries)
   answers every kernel exactly like a snapshot rebuilt from scratch by
   Journal.replay_ops — across the property, labeled, vector and RDF
   renderings of the same history, and through the batched frontier
   path. The numbering invariant (base survivors keep base order, new
   objects append in insertion order) makes the comparison exact on raw
   node indexes for the first three models; RDF compares name-pair sets
   through the urn:gqkg: node IRIs.

   Plus: readers-never-block (a pinned epoch survives a commit and keeps
   its semantic-cache entries), retired snapshots being collectable,
   concurrent readers across commits, column-reuse accounting, merge
   semantics, the overlay read API, and torn-journal recovery. *)

open Gqkg_graph
open Gqkg_core
module Sm = Gqkg_util.Splitmix
module Budget = Gqkg_util.Budget

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let parse = Gqkg_automata.Regex_parser.parse
let c = Const.str
let sortp l = List.sort compare l

(* ---------- random valid histories ---------- *)

let node_pool = [| "n0"; "n1"; "n2"; "n3"; "n4"; "n5" |]
let edge_pool = [| "e0"; "e1"; "e2"; "e3"; "e4"; "e5"; "e6"; "e7"; "e8"; "e9" |]
let node_labels = [| "person"; "place" |]
let edge_labels = [| "knows"; "likes" |]
let prop_names = [| "age"; "name" |]

(* Derive a sequence of ops that is valid by construction (a tiny model
   of live ids drives the choices; Merge ops keep the rest total),
   starting from the live ids of [init] (empty by default). *)
let gen_ops ?(init = ([], [])) rng n =
  let nodes = ref (fst init) and edges = ref (snd init) and ops = ref [] in
  let pick arr = arr.(Sm.int rng (Array.length arr)) in
  let pick_list l = List.nth l (Sm.int rng (List.length l)) in
  let push op = ops := op :: !ops in
  let merge_node () =
    let id = pick node_pool in
    push (Mutation.Merge_node { id = c id; label = c (pick node_labels) });
    if not (List.mem id !nodes) then nodes := id :: !nodes
  in
  for _ = 1 to n do
    match Sm.int rng 12 with
    | 0 | 1 | 2 -> merge_node ()
    | 3 -> (
        match List.filter (fun id -> not (List.mem id !nodes)) (Array.to_list node_pool) with
        | [] -> merge_node ()
        | free ->
            let id = pick_list free in
            push (Mutation.Add_node { id = c id; label = c (pick node_labels) });
            nodes := id :: !nodes)
    | (4 | 5 | 6) when !nodes <> [] ->
        let src = pick_list !nodes and dst = pick_list !nodes and id = pick edge_pool in
        push (Mutation.Merge_edge { id = c id; src = c src; dst = c dst; label = c (pick edge_labels) });
        if not (List.mem_assoc id !edges) then edges := (id, (src, dst)) :: !edges
    | 7 when !nodes <> [] ->
        push
          (Mutation.Set_node_prop
             { id = c (pick_list !nodes); prop = c (pick prop_names); value = Const.int (Sm.int rng 5) })
    | 8 when !edges <> [] ->
        push
          (Mutation.Set_edge_prop
             { id = c (fst (pick_list !edges)); prop = c (pick prop_names); value = Const.int (Sm.int rng 5) })
    | 9 when !nodes <> [] ->
        push (Mutation.Del_node_prop { id = c (pick_list !nodes); prop = c (pick prop_names) })
    | 10 when !nodes <> [] ->
        let id = pick_list !nodes in
        push (Mutation.Del_node { id = c id });
        nodes := List.filter (fun x -> x <> id) !nodes;
        edges := List.filter (fun (_, (s, d)) -> s <> id && d <> id) !edges
    | 11 when !edges <> [] ->
        let id = fst (pick_list !edges) in
        push (Mutation.Del_edge { id = c id });
        edges := List.remove_assoc id !edges
    | _ -> merge_node ()
  done;
  List.rev !ops

(* Apply [ops] through the epoch manager, committing every
   [commit_every] ops — the incremental path under test. *)
let build_incremental ops commit_every =
  let mgr = Epochs.create (Overlay.base_of_property (Journal.replay_ops [])) in
  let ov = ref (Overlay.create (Epochs.base mgr)) in
  List.iteri
    (fun i op ->
      Overlay.apply !ov op;
      if (i + 1) mod commit_every = 0 then (
        ignore (Epochs.commit mgr !ov);
        ov := Overlay.create (Epochs.base mgr)))
    ops;
  if Overlay.size !ov > 0 then ignore (Epochs.commit mgr !ov);
  mgr

let queries =
  List.map parse
    [
      "knows";
      "likes";
      "knows/likes";
      "knows^-";
      "(knows + likes)*";
      "?person/knows";
      "?person/(knows + likes^-)/?place";
    ]

let scenario_gen =
  QCheck2.Gen.(
    let* seed = int_bound 1_000_000 in
    let* n_ops = int_range 1 40 in
    let* commit_every = int_range 1 7 in
    return (seed, n_ops, commit_every))

(* ---------- incremental ≡ scratch: kernels on the property model ---------- *)

let prop_incremental_equiv =
  QCheck2.Test.make ~name:"epoch commit = scratch rebuild (pairs/count/enumerate)" ~count:120
    scenario_gen (fun (seed, n_ops, commit_every) ->
      let ops = gen_ops (Sm.create seed) n_ops in
      let mgr = build_incremental ops commit_every in
      let inc = Epochs.snapshot mgr in
      let scratch = Snapshot.of_property (Journal.replay_ops ops) in
      inc.Snapshot.num_nodes = scratch.Snapshot.num_nodes
      && inc.Snapshot.num_edges = scratch.Snapshot.num_edges
      && List.for_all
           (fun r ->
             sortp (Rpq.eval_pairs inc ~max_length:6 r)
             = sortp (Rpq.eval_pairs scratch ~max_length:6 r)
             && Rpq.source_nodes inc ~max_length:6 r = Rpq.source_nodes scratch ~max_length:6 r
             && List.for_all
                  (fun k -> Count.count inc r ~length:k = Count.count scratch r ~length:k)
                  [ 0; 1; 2; 3 ]
             && List.equal Path.equal
                  (List.sort Path.compare (Enumerate.paths inc r ~length:2))
                  (List.sort Path.compare (Enumerate.paths scratch r ~length:2)))
           queries)

(* ---------- incremental ≡ scratch through the batched frontier ---------- *)

let prop_frontier_equiv =
  QCheck2.Test.make ~name:"epoch commit = scratch rebuild (batched reachable_many)" ~count:100
    scenario_gen (fun (seed, n_ops, commit_every) ->
      let ops = gen_ops (Sm.create seed) n_ops in
      let mgr = build_incremental ops commit_every in
      let inc = Epochs.snapshot mgr in
      let scratch = Snapshot.of_property (Journal.replay_ops ops) in
      let sources = Array.init scratch.Snapshot.num_nodes Fun.id in
      List.for_all
        (fun r ->
          Rpq.reachable_many inc ~max_length:6 r ~sources
          = Rpq.reachable_many scratch ~max_length:6 r ~sources)
        queries)

(* ---------- incremental ≡ scratch across the four data models ---------- *)

let node_iri_string g v =
  Gqkg_kg.Term.to_string (Gqkg_kg.Pg_rdf.node_iri (Property_graph.node_id g v))

let prop_model_equiv =
  QCheck2.Test.make ~name:"epoch commit = scratch rebuild (labeled/vector/RDF models)" ~count:60
    scenario_gen (fun (seed, n_ops, commit_every) ->
      let ops = gen_ops (Sm.create seed) n_ops in
      let mgr = build_incremental ops commit_every in
      let inc = Epochs.snapshot mgr in
      let g = Journal.replay_ops ops in
      let lab = Snapshot.of_labeled (Property_graph.to_labeled g) in
      let vec = Snapshot.of_vector (fst (Vector_graph.of_property g)) in
      let rg = Gqkg_kg.Triple_store.view (Gqkg_kg.Pg_rdf.of_property_graph g) in
      let rsnap = rg.snap in
      let iris = Hashtbl.create 16 in
      for v = 0 to Property_graph.num_nodes g - 1 do
        Hashtbl.replace iris (node_iri_string g v) ()
      done;
      List.for_all
        (fun r ->
          let reference = sortp (Rpq.eval_pairs inc ~max_length:6 r) in
          reference = sortp (Rpq.eval_pairs lab ~max_length:6 r)
          && reference = sortp (Rpq.eval_pairs vec ~max_length:6 r)
          &&
          (* RDF renumbers (reified edges, labels and literals become
             nodes too), so compare as name-pair sets over node IRIs. *)
          let expect =
            sortp (List.map (fun (a, b) -> (node_iri_string g a, node_iri_string g b)) reference)
          in
          let got =
            Rpq.eval_pairs rsnap ~max_length:6 r
            |> List.filter_map (fun (a, b) ->
                   let sa = Gqkg_kg.Term.to_string rg.terms.(a) in
                   let sb = Gqkg_kg.Term.to_string rg.terms.(b) in
                   if Hashtbl.mem iris sa && Hashtbl.mem iris sb then Some (sa, sb) else None)
            |> sortp
          in
          expect = got)
        queries)

(* ---------- the id index: handed along the chain, rebuilt by forks ---------- *)

(* Live ids of a replayed graph, as [gen_ops]'s model. *)
let model_of g =
  let name v = Const.to_string (Property_graph.node_id g v) in
  ( List.init (Property_graph.num_nodes g) name,
    List.init (Property_graph.num_edges g) (fun e ->
        let s, d = Property_graph.endpoints g e in
        (Const.to_string (Property_graph.edge_id g e), (name s, name d))) )

(* Every overlay read over every pool id. *)
let pool_reads ov =
  let props get id = Array.map (fun p -> get ov id (c p)) prop_names in
  ( Array.map
      (fun id ->
        let id = c id in
        ( Overlay.mem_node ov id,
          Overlay.node_label ov id,
          props Overlay.node_prop id,
          Overlay.out_edges ov id,
          Overlay.in_edges ov id ))
      node_pool,
    Array.map
      (fun id ->
        let id = c id in
        (Overlay.mem_edge ov id, props Overlay.edge_prop id))
      edge_pool )

(* A committed base equals the from-scratch replay of [ops]: the same
   minimal history (ids, labels, endpoints, props and numbering) and the
   same pairs. *)
let same_as_replay base ops =
  let g = Journal.replay_ops ops in
  let snap = Overlay.snapshot base and scratch = Snapshot.of_property g in
  Overlay.history base = Journal.ops_of_graph g
  && List.for_all
       (fun r ->
         sortp (Rpq.eval_pairs snap ~max_length:6 r)
         = sortp (Rpq.eval_pairs scratch ~max_length:6 r))
       queries

(* Along the epoch chain each commit hands its base's id index, updated
   by the delta, to the next base: after every commit the overlay reads
   over the chained base must equal those over a base built fresh from
   the replayed prefix.  At one random commit point a second overlay is
   opened on the base that commit supersedes; half of a random suffix is
   applied before the commit takes the index away and half after, and
   the fork, committed directly, must equal the replay of prefix and
   suffix. *)
let prop_index_handover =
  QCheck2.Test.make ~name:"index handover: chained reads and forks = scratch replay" ~count:120
    QCheck2.Gen.(pair scenario_gen (int_bound 1_000_000))
    (fun ((seed, n_ops, commit_every), fork_seed) ->
      let ops = gen_ops (Sm.create seed) n_ops in
      let rng = Sm.create fork_seed in
      let fork_at = Sm.int rng ((n_ops + commit_every - 1) / commit_every) in
      let mgr = Epochs.create (Overlay.base_of_property (Journal.replay_ops [])) in
      let ok = ref true and points = ref 0 in
      (* ops of the current base and of the open overlay, newest first *)
      let committed = ref [] and pending = ref [] in
      let ov = ref (Overlay.create (Epochs.base mgr)) in
      let commit_point () =
        let prefix = List.rev !committed in
        let fork =
          if !points <> fork_at then None
          else begin
            let suffix =
              gen_ops ~init:(model_of (Journal.replay_ops prefix)) rng (1 + Sm.int rng 12)
            in
            let half = List.length suffix / 2 in
            let fo = Overlay.create (Epochs.base mgr) in
            List.iteri (fun i op -> if i < half then Overlay.apply fo op) suffix;
            Some (fo, suffix, half)
          end
        in
        ignore (Epochs.commit mgr !ov);
        incr points;
        committed := !pending @ !committed;
        pending := [];
        (match fork with
        | Some (fo, suffix, half) ->
            List.iteri (fun i op -> if i >= half then Overlay.apply fo op) suffix;
            ok := !ok && same_as_replay (fst (Overlay.commit fo)) (prefix @ suffix)
        | None -> ());
        let fresh = Overlay.base_of_property (Journal.replay_ops (List.rev !committed)) in
        ok :=
          !ok
          && pool_reads (Overlay.create (Epochs.base mgr)) = pool_reads (Overlay.create fresh);
        ov := Overlay.create (Epochs.base mgr)
      in
      List.iteri
        (fun i op ->
          Overlay.apply !ov op;
          pending := op :: !pending;
          if (i + 1) mod commit_every = 0 then commit_point ())
        ops;
      if Overlay.size !ov > 0 then commit_point ();
      !ok && same_as_replay (Epochs.base mgr) ops)

(* ---------- readers never block: pinned epoch across a commit ---------- *)

let test_readers_never_block () =
  Semcache.reset ();
  let base_ops =
    [
      Mutation.Add_node { id = c "a"; label = c "person" };
      Mutation.Add_node { id = c "b"; label = c "person" };
      Mutation.Add_node { id = c "d"; label = c "person" };
      Mutation.Add_edge { id = c "e1"; src = c "a"; dst = c "b"; label = c "knows" };
    ]
  in
  let mgr = Epochs.create (Overlay.base_of_property (Journal.replay_ops base_ops)) in
  let q = parse "knows" in
  let eval snap = (Governor.eval_pairs ~budget:(Budget.create ()) ~max_length:4 snap q).Budget.value in
  let pinned = Epochs.pin mgr in
  let r1 = eval pinned in
  checki "one pair before the commit" 1 (List.length r1);
  (* Commit a new edge while the reader holds its epoch. *)
  let ov = Overlay.create (Epochs.base mgr) in
  Overlay.apply ov (Mutation.Add_edge { id = c "e2"; src = c "b"; dst = c "d"; label = c "knows" });
  ignore (Governor.commit mgr ov);
  let r2 = eval (Epochs.snapshot mgr) in
  checki "current epoch sees the new edge (no stale cache serve)" 2 (List.length r2);
  let hits = (Semcache.stats ()).Semcache.result_hits in
  let r1' = eval pinned in
  checkb "pinned epoch still answers identically" true (r1 = r1');
  checki "pinned epoch still hits its cache after the commit" (hits + 1)
    (Semcache.stats ()).Semcache.result_hits;
  checki "two epochs live while pinned" 2 (List.length (Epochs.live_epochs mgr));
  Epochs.unpin mgr pinned;
  checki "old epoch retired on unpin" 1 (Epochs.retired mgr);
  checki "one live epoch after unpin" 1 (List.length (Epochs.live_epochs mgr))

(* ---------- postings belong to their epoch ---------- *)

(* A commit adds a person aged 41: the new epoch's postings and seeding
   see it, while the pinned parent's postings, built before the commit,
   still do not. *)
let test_postings_per_epoch () =
  let person id = Mutation.Add_node { id = c id; label = c "person" } in
  let aged id = Mutation.Set_node_prop { id = c id; prop = c "age"; value = Const.int 41 } in
  let knows id src dst =
    Mutation.Add_edge { id = c id; src = c src; dst = c dst; label = c "knows" }
  in
  let mgr =
    Epochs.create
      (Overlay.base_of_property
         (Journal.replay_ops [ person "a"; aged "a"; person "b"; knows "e1" "a" "b" ]))
  in
  let age = Atom.prop "age" (Const.int 41) in
  let names snap nodes =
    List.sort compare (List.map snap.Snapshot.node_name (Array.to_list nodes))
  in
  let q = parse "?(person & age=41)/knows" in
  let parent = Epochs.pin mgr in
  checkb "parent postings" true (names parent (Postings.nodes parent age) = [ "a" ]);
  checki "parent pairs" 1 (List.length (Rpq.eval_pairs parent q));
  let ov = Overlay.create (Epochs.base mgr) in
  List.iter (Overlay.apply ov) [ person "d"; aged "d"; knows "e2" "d" "b" ];
  ignore (Governor.commit mgr ov);
  let child = Epochs.snapshot mgr in
  checkb "committed epoch's postings include the new node" true
    (names child (Postings.nodes child age) = [ "a"; "d" ]);
  checki "committed epoch seeds from it" 2 (List.length (Rpq.eval_pairs child q));
  checkb "pinned parent's postings do not" true
    (names parent (Postings.nodes parent age) = [ "a" ]);
  checki "pinned parent's pairs unchanged" 1 (List.length (Rpq.eval_pairs parent q));
  Epochs.unpin mgr parent

(* Edge postings too: a dated contact committed in a child epoch is in
   the child's postings of its date, and the pinned parent's postings —
   built before the commit, where the date occurs on no edge — stay
   empty, and so does the parent's analysis of a query naming it. *)
let test_edge_postings_per_epoch () =
  let person id = Mutation.Add_node { id = c id; label = c "person" } in
  let contact id src dst =
    Mutation.Add_edge { id = c id; src = c src; dst = c dst; label = c "contact" }
  in
  let dated id =
    Mutation.Set_edge_prop { id = c id; prop = c "date"; value = Const.of_string "3/4/21" }
  in
  let mgr =
    Epochs.create
      (Overlay.base_of_property
         (Journal.replay_ops [ person "a"; person "b"; contact "e1" "a" "b" ]))
  in
  let date = Atom.prop "date" (Const.of_string "3/4/21") in
  let q = parse "?person/(contact & date=3/4/21)/?person" in
  let parent = Epochs.pin mgr in
  checki "parent postings empty" 0 (Array.length (Postings.edges parent date));
  checkb "parent analysis empty" true
    (Gqkg_analysis.Analyze.is_empty (Gqkg_analysis.Analyze.plan parent q));
  let ov = Overlay.create (Epochs.base mgr) in
  List.iter (Overlay.apply ov) [ contact "e2" "b" "a"; dated "e2" ];
  ignore (Governor.commit mgr ov);
  let child = Epochs.snapshot mgr in
  checkb "committed epoch's postings hold the dated contact" true
    (List.map child.Snapshot.edge_name (Array.to_list (Postings.edges child date)) = [ "e2" ]);
  checki "committed epoch answers" 1 (List.length (Rpq.eval_pairs child q));
  checki "pinned parent's postings stay empty" 0 (Array.length (Postings.edges parent date));
  checki "pinned parent's answer unchanged" 0 (List.length (Rpq.eval_pairs parent q));
  Epochs.unpin mgr parent

(* ---------- retired snapshots are collectable ---------- *)

let chain_ops n =
  List.concat
    (List.init n (fun i ->
         Mutation.Add_node { id = c (Printf.sprintf "v%d" i); label = c "person" }
         ::
         (if i = 0 then []
          else
            [
              Mutation.Add_edge
                {
                  id = c (Printf.sprintf "k%d" i);
                  src = c (Printf.sprintf "v%d" (i - 1));
                  dst = c (Printf.sprintf "v%d" i);
                  label = c (if i mod 3 = 0 then "likes" else "knows");
                };
            ])))

(* Derive every kind of per-snapshot state on the pinned epoch (schema,
   plans and results through the Governor, the join index through a
   CRPQ), commit past it and unpin.  Returns only a weak pointer; kept
   out of line so no stack slot of the caller holds the snapshot. *)
let[@inline never] derive_and_retire mgr =
  let snap = Epochs.pin mgr in
  ignore (Governor.eval_pairs ~budget:(Budget.create ()) snap (parse "knows*"));
  ignore
    (Gqkg_logic.Crpq.answers snap
       (Gqkg_logic.Crpq_parser.parse "SELECT x, z WHERE (x)-[knows]->(y), (y)-[likes]->(z)"));
  let ov = Overlay.create (Epochs.base mgr) in
  Overlay.apply ov
    (Mutation.Add_edge { id = c "k0"; src = c "v0"; dst = c "v2"; label = c "likes" });
  ignore (Governor.commit mgr ov);
  Epochs.unpin mgr snap;
  let w = Weak.create 1 in
  Weak.set w 0 (Some snap);
  w

let test_retired_snapshot_collectable () =
  let mgr = Epochs.create (Overlay.base_of_property (Journal.replay_ops (chain_ops 8))) in
  let w = derive_and_retire mgr in
  Gc.full_major ();
  checki "one live epoch" 1 (List.length (Epochs.live_epochs mgr));
  checkb "retired snapshot collected with its derived state" false (Weak.check w 0)

(* ---------- concurrent readers across commits ---------- *)

(* Four reader threads pin whatever epoch is current and run a fixed
   query set through the cached Governor path while a writer commits 20
   overlays; every answer must equal the naive evaluator's on the
   reader's own pinned snapshot. *)
let test_concurrent_readers () =
  let n = 12 in
  let mgr = Epochs.create (Overlay.base_of_property (Journal.replay_ops (chain_ops n))) in
  let queries =
    List.map parse [ "knows"; "knows*"; "knows/likes"; "(knows + likes)*"; "-knows/knows" ]
  in
  let writer_done = Atomic.make false and mismatches = Atomic.make 0 and checked = Atomic.make 0 in
  let epochs_seen = Hashtbl.create 32 and seen_lock = Mutex.create () in
  let reader () =
    let rounds = ref 0 in
    while !rounds < 3 || not (Atomic.get writer_done) do
      incr rounds;
      Epochs.with_pinned mgr (fun snap ->
          Mutex.protect seen_lock (fun () -> Hashtbl.replace epochs_seen snap.Snapshot.epoch ());
          List.iter
            (fun r ->
              let o =
                Governor.eval_pairs ~use_cache:true ~budget:(Budget.create ()) ~max_length:6 snap r
              in
              Atomic.incr checked;
              if
                o.Budget.completeness <> Budget.Complete
                || sortp o.Budget.value <> sortp (Naive.pairs snap r ~max_length:6)
              then Atomic.incr mismatches;
              Thread.yield ())
            queries)
    done
  in
  let writer () =
    let rng = Sm.create 11 in
    for k = 1 to 20 do
      let ov = Overlay.create (Epochs.base mgr) in
      let v () = c (Printf.sprintf "v%d" (Sm.int rng n)) in
      let label = c (if k mod 2 = 0 then "likes" else "knows") in
      Overlay.apply ov
        (Mutation.Add_edge { id = c (Printf.sprintf "w%d" k); src = v (); dst = v (); label });
      if k mod 5 = 0 then
        Overlay.apply ov (Mutation.Del_edge { id = c (Printf.sprintf "w%d" (k - 1)) });
      ignore (Epochs.commit mgr ov);
      Thread.yield ()
    done;
    Atomic.set writer_done true
  in
  let readers = List.init 4 (fun _ -> Thread.create reader ()) in
  let w = Thread.create writer () in
  Thread.join w;
  List.iter Thread.join readers;
  checki "20 commits" 20 (Epochs.commits mgr);
  checkb "readers ran" true (Atomic.get checked >= 4 * 3 * List.length queries);
  checkb "readers pinned several epochs" true (Hashtbl.length epochs_seen > 1);
  checki "every answer equals the naive one on its pinned snapshot" 0 (Atomic.get mismatches);
  checki "no pins left" 0 (Epochs.pins mgr)

(* ---------- a write allocates in proportion to its delta ---------- *)

(* On the benchmark's served graph (seed 1), a structural commit hands
   the id index to the new base, so the next write, opening an overlay
   on it and applying node/prop/edge ops, allocates nothing graph-sized:
   a per-write index or dead-flag array costs at least one word per
   object.  Counted in allocated words, so no timing is involved. *)
let test_write_allocation () =
  let g = Perfbench_workloads.Workloads.contact_graph 1 in
  let objects = Property_graph.num_nodes g + Property_graph.num_edges g in
  let mgr = Epochs.create (Overlay.base_of_property g) in
  let write k =
    let w = c (Printf.sprintf "w%d" k) in
    [
      Mutation.Add_node { id = w; label = c "person" };
      Mutation.Set_node_prop { id = w; prop = c "age"; value = Const.int 30 };
      Mutation.Add_edge
        { id = c (Printf.sprintf "y%d" k); src = w; dst = c (Printf.sprintf "b%d" k); label = c "rides" };
    ]
  in
  let ov = Overlay.create (Epochs.base mgr) in
  List.iter (Overlay.apply ov)
    (write 0
    @ [
        Mutation.Add_edge { id = c "x0"; src = c "w0"; dst = c "p7"; label = c "contact" };
        Mutation.Del_node { id = c "p3" };
      ]);
  ignore (Epochs.commit mgr ov);
  let words () =
    (* [quick_stat]'s minor count lags until the next minor collection;
       [Gc.minor_words] is exact. *)
    let st = Gc.quick_stat () in
    Gc.minor_words () +. st.Gc.major_words -. st.Gc.promoted_words
  in
  let before = words () in
  let ov = Overlay.create (Epochs.base mgr) in
  List.iter (Overlay.apply ov) (write 1);
  let allocated = words () -. before in
  checki "the write applied" (Property_graph.num_nodes g + 1) (Overlay.live_nodes ov);
  checkb
    (Printf.sprintf "create + 3 ops allocated %.0f words, under (n + m) / 10 = %d" allocated
       (objects / 10))
    true
    (allocated < float_of_int (objects / 10))

(* ---------- batched frontier with many sources (multi-word batches) ---------- *)

let test_frontier_many_sources () =
  let n = 80 in
  let id k = c (Printf.sprintf "m%d" k) in
  let ops =
    List.concat
      (List.init n (fun i ->
           Mutation.Merge_node { id = id i; label = c "person" }
           ::
           (if i = 0 then []
            else
              [
                Mutation.Merge_edge
                  { id = c (Printf.sprintf "me%d" i); src = id (i - 1); dst = id i; label = c "knows" };
              ])))
  in
  let mgr = build_incremental ops 7 in
  let inc = Epochs.snapshot mgr in
  let scratch = Snapshot.of_property (Journal.replay_ops ops) in
  let sources = Array.init n Fun.id in
  let r = parse "knows*" in
  let a = Rpq.reachable_many inc ~max_length:n r ~sources in
  let b = Rpq.reachable_many scratch ~max_length:n r ~sources in
  checkb "batched frontier agrees across all sources" true (a = b);
  checki "head of the chain reaches every node" n (List.length a.(0))

(* ---------- column-reuse accounting ---------- *)

let base_ops =
  [
    Mutation.Add_node { id = c "a"; label = c "person" };
    Mutation.Add_node { id = c "b"; label = c "place" };
    Mutation.Add_edge { id = c "e1"; src = c "a"; dst = c "b"; label = c "knows" };
  ]

let mk_base () = Overlay.base_of_property (Journal.replay_ops base_ops)

let test_reuse_props_only () =
  let b = mk_base () in
  let ov = Overlay.create b in
  Overlay.apply ov (Mutation.Set_node_prop { id = c "a"; prop = c "age"; value = Const.int 3 });
  let b', r = Overlay.commit ov in
  checkb "only node_props rebuilt" true (r.Overlay.rebuilt = [ "node_props" ]);
  checkb "reuse ratio > 0.9" true (Overlay.reuse_ratio r > 0.9);
  checkb "CSR physically shared" true
    ((Overlay.snapshot b').Snapshot.out_nbr == (Overlay.snapshot b).Snapshot.out_nbr);
  checkb "epoch advanced" true
    ((Overlay.snapshot b').Snapshot.epoch > (Overlay.snapshot b).Snapshot.epoch)

let test_reuse_adds_only () =
  let b = mk_base () in
  let ov = Overlay.create b in
  Overlay.apply ov (Mutation.Add_node { id = c "d"; label = c "person" });
  let _, r = Overlay.commit ov in
  checkb "adjacency shared on node-only adds" true
    (List.mem "out_adj" r.Overlay.reused && List.mem "in_adj" r.Overlay.reused);
  checkb "edge columns shared" true (List.mem "edge_ids" r.Overlay.reused);
  checkb "offsets extended" true (List.mem "out_off" r.Overlay.rebuilt);
  checkb "node columns rebuilt" true (List.mem "node_ids" r.Overlay.rebuilt)

let test_reuse_delete_renumbers () =
  let b = mk_base () in
  let ov = Overlay.create b in
  Overlay.apply ov (Mutation.Del_node { id = c "a" });
  let b', r = Overlay.commit ov in
  checkb "endpoints rebuilt" true (List.mem "esrc" r.Overlay.rebuilt);
  checkb "node ids rebuilt" true (List.mem "node_ids" r.Overlay.rebuilt);
  checki "survivor count" 1 (Overlay.snapshot b').Snapshot.num_nodes;
  checki "cascade removed the edge" 0 (Overlay.snapshot b').Snapshot.num_edges

let test_reuse_empty_commit () =
  let b = mk_base () in
  let b', r = Overlay.commit (Overlay.create b) in
  checkb "empty commit returns the base itself" true (Overlay.snapshot b' == Overlay.snapshot b);
  checki "nothing rebuilt" 0 (List.length r.Overlay.rebuilt)

(* ---------- merge semantics and id reuse ---------- *)

let test_merge_semantics () =
  let b = mk_base () in
  let ov = Overlay.create b in
  Overlay.apply ov (Mutation.Merge_node { id = c "a"; label = c "place" });
  checkb "merge on a live id is a no-op" true (Overlay.node_label ov (c "a") = Some (c "person"));
  (match Overlay.apply ov (Mutation.Add_node { id = c "a"; label = c "person" }) with
  | exception Journal.Replay_error _ -> ()
  | () -> Alcotest.fail "add on a live id must fail");
  Overlay.apply ov (Mutation.Del_node { id = c "a" });
  checkb "node gone" false (Overlay.mem_node ov (c "a"));
  checkb "incident edge cascaded" false (Overlay.mem_edge ov (c "e1"));
  (* delete frees the id for reuse, with a different label *)
  Overlay.apply ov (Mutation.Add_node { id = c "a"; label = c "place" });
  checkb "id reused with new label" true (Overlay.node_label ov (c "a") = Some (c "place"));
  let b', _ = Overlay.commit ov in
  let scratch =
    Journal.replay_ops
      (base_ops
      @ [
          Mutation.Merge_node { id = c "a"; label = c "place" };
          Mutation.Del_node { id = c "a" };
          Mutation.Add_node { id = c "a"; label = c "place" };
        ])
  in
  checki "committed nodes agree with replay" (Property_graph.num_nodes scratch)
    (Overlay.snapshot b').Snapshot.num_nodes;
  checki "committed edges agree with replay" (Property_graph.num_edges scratch)
    (Overlay.snapshot b').Snapshot.num_edges

(* ---------- the overlay read API ---------- *)

let test_overlay_reads () =
  let b = mk_base () in
  let ov = Overlay.create b in
  Overlay.apply ov (Mutation.Add_node { id = c "d"; label = c "person" });
  Overlay.apply ov (Mutation.Merge_edge { id = c "e2"; src = c "b"; dst = c "d"; label = c "likes" });
  Overlay.apply ov (Mutation.Set_edge_prop { id = c "e2"; prop = c "w"; value = Const.int 2 });
  checki "live nodes" 3 (Overlay.live_nodes ov);
  checki "live edges" 2 (Overlay.live_edges ov);
  checkb "edge prop visible" true (Overlay.edge_prop ov (c "e2") (c "w") = Some (Const.int 2));
  (match Overlay.out_edges ov (c "b") with
  | Some [ (e, l, d) ] -> checkb "new out-edge" true (e = c "e2" && l = c "likes" && d = c "d")
  | _ -> Alcotest.fail "expected exactly one out-edge of b");
  (match Overlay.in_edges ov (c "d") with
  | Some [ (e, _, s) ] -> checkb "new in-edge" true (e = c "e2" && s = c "b")
  | _ -> Alcotest.fail "expected exactly one in-edge of d");
  checkb "unknown node reads as None" true (Overlay.out_edges ov (c "zz") = None);
  let b', _ = Overlay.commit ov in
  let s = Overlay.snapshot b' in
  checki "committed nodes" 3 s.Snapshot.num_nodes;
  checki "committed edges" 2 s.Snapshot.num_edges

(* ---------- torn-journal crash recovery ---------- *)

let torn_fixture = Filename.concat "../examples/corrupt" "torn-final.log"

let test_torn_journal () =
  (match Journal.load_ops torn_fixture with
  | exception Journal.Replay_error { file = Some f; line; _ } ->
      checkb "error names the journal" true (Filename.basename f = "torn-final.log");
      checki "error points at the torn line" 4 line
  | exception Journal.Replay_error _ -> Alcotest.fail "torn-line error lost its file context"
  | _ -> Alcotest.fail "a torn final line must fail without tolerate_partial");
  let ops = Journal.load_ops ~tolerate_partial:true torn_fixture in
  checki "torn line dropped, prefix kept" 3 (List.length ops);
  let g = Journal.load ~tolerate_partial:true torn_fixture in
  checki "recovered nodes" 2 (Property_graph.num_nodes g);
  checki "recovered edges" 1 (Property_graph.num_edges g)

let () =
  let q = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "gqkg_epoch"
    [
      ("equivalence", q [ prop_incremental_equiv; prop_frontier_equiv; prop_model_equiv; prop_index_handover ]);
      ( "mvcc",
        [
          Alcotest.test_case "readers never block" `Quick test_readers_never_block;
          Alcotest.test_case "postings per epoch" `Quick test_postings_per_epoch;
          Alcotest.test_case "edge postings per epoch" `Quick test_edge_postings_per_epoch;
          Alcotest.test_case "frontier many sources" `Quick test_frontier_many_sources;
          Alcotest.test_case "write allocates O(delta)" `Quick test_write_allocation;
          Alcotest.test_case "retired snapshot collectable" `Quick
            test_retired_snapshot_collectable;
          Alcotest.test_case "concurrent readers across commits" `Quick test_concurrent_readers;
        ] );
      ( "reuse",
        [
          Alcotest.test_case "props-only keeps topology" `Quick test_reuse_props_only;
          Alcotest.test_case "adds-only shares adjacency" `Quick test_reuse_adds_only;
          Alcotest.test_case "delete renumbers" `Quick test_reuse_delete_renumbers;
          Alcotest.test_case "empty commit is identity" `Quick test_reuse_empty_commit;
        ] );
      ( "overlay",
        [
          Alcotest.test_case "merge semantics" `Quick test_merge_semantics;
          Alcotest.test_case "read API" `Quick test_overlay_reads;
          Alcotest.test_case "torn journal recovery" `Quick test_torn_journal;
        ] );
    ]
