(* Enumeration of the answers to a path query with bounded delay
   (Section 4.1): after a preprocessing phase (the {!Count} tables), the
   paths p ∈ [[r]] with |p| = k are produced one by one.

   The enumerator is a depth-first walk of the deterministic product in
   which a successor is entered only if some accepting completion of the
   right residual length exists (suffix-count > 0).  Every descent
   therefore ends in an emitted path: between two consecutive answers the
   walk retreats and advances at most O(k · max-degree) steps, the
   polynomial-delay guarantee the paper describes.  Because the product
   is deterministic, no path is emitted twice. *)

open Gqkg_graph

type frame = { state : int; degree : int; mutable cursor : int }

(* The preprocessed machinery; absent when the planner proved the query
   statically empty (no product is ever built then). *)
type engine = { table : Count.table; product : Product.t }

type t = {
  engine : engine option;
  length : int;
  sources : int array;
  mutable source_cursor : int;
  nodes : int array; (* nodes.(d) = node at depth d *)
  edges : int array; (* edges.(d) = edge taken at step d *)
  mutable stack : frame list; (* innermost first; length = current depth + 1 *)
  mutable depth : int; (* depth of the top frame; -1 when stack empty *)
  mutable steps_since_last : int; (* instrumentation: delay measurement *)
  mutable max_delay : int;
  mutable emitted : int;
  mutable steps_total : int; (* budget accounting, checked every 256 *)
  mutable dead : bool; (* the budget tripped: no further answers *)
}

let create ?budget ?sources inst regex ~length =
  if length < 0 then invalid_arg "Enumerate.create: negative length";
  let engine =
    match Planner.prepare ?budget inst regex with
    | Planner.Empty -> None
    | Planner.Ready product -> Some { table = Count.build product ~depth:length; product }
  in
  let sources =
    match sources with
    | Some s -> Array.of_list s
    | None -> Array.init inst.Snapshot.num_nodes Fun.id
  in
  {
    engine;
    length;
    sources;
    source_cursor = 0;
    nodes = Array.make (length + 1) (-1);
    edges = Array.make (max length 1) (-1);
    stack = [];
    depth = -1;
    steps_since_last = 0;
    max_delay = 0;
    emitted = 0;
    steps_total = 0;
    dead = false;
  }

let push t eng state =
  let degree = if t.depth + 1 = t.length then 0 else Product.degree eng.product state in
  t.stack <- { state; degree; cursor = 0 } :: t.stack;
  t.depth <- t.depth + 1;
  t.nodes.(t.depth) <- Product.node_of eng.product state

let pop t =
  match t.stack with
  | [] -> ()
  | _ :: rest ->
      t.stack <- rest;
      t.depth <- t.depth - 1

let emit t =
  t.emitted <- t.emitted + 1;
  if t.steps_since_last > t.max_delay then t.max_delay <- t.steps_since_last;
  t.steps_since_last <- 0;
  Path.make ~nodes:(Array.sub t.nodes 0 (t.length + 1)) ~edges:(Array.sub t.edges 0 t.length)

(* Budget check site: every 256 DFS steps.  Tripping marks the
   enumerator dead — the paths already emitted are exactly a prefix of
   the unbudgeted enumeration order, hence a subset. *)
let budget_tripped t eng =
  t.steps_total <- t.steps_total + 1;
  t.dead
  ||
  t.steps_total land 255 = 0
  &&
  let budget = Product.budget eng.product in
  Gqkg_util.Budget.charge_steps budget 256;
  if Gqkg_util.Budget.check budget then begin
    t.dead <- true;
    true
  end
  else false

let rec step t eng =
  t.steps_since_last <- t.steps_since_last + 1;
  if budget_tripped t eng then None
  else
  match t.stack with
  | [] ->
      (* Start a new source, skipping those with no answers of this length. *)
      if t.source_cursor >= Array.length t.sources then None
      else begin
        let source = t.sources.(t.source_cursor) in
        t.source_cursor <- t.source_cursor + 1;
        (match Product.start_state eng.product source with
        | Some s0 when Count.suffix_count eng.table ~state:s0 ~length:t.length > 0.0 ->
            push t eng s0;
            if t.length = 0 then begin
              let p = emit t in
              pop t;
              Some p
            end
            else step t eng
        | Some _ | None -> step t eng)
      end
  | top :: _ ->
      if t.depth = t.length then begin
        (* A full-length state is accepting by construction of the pruning. *)
        let p = emit t in
        pop t;
        Some p
      end
      else begin
        let remaining = t.length - t.depth - 1 in
        let rec scan () =
          if top.cursor >= top.degree then begin
            pop t;
            step t eng
          end
          else begin
            let edge = Product.move_edge eng.product top.state top.cursor
            and succ = Product.move_succ eng.product top.state top.cursor in
            top.cursor <- top.cursor + 1;
            if Count.suffix_count eng.table ~state:succ ~length:remaining > 0.0 then begin
              t.edges.(t.depth) <- edge;
              push t eng succ;
              if t.depth = t.length then begin
                let p = emit t in
                pop t;
                Some p
              end
              else step t eng
            end
            else begin
              t.steps_since_last <- t.steps_since_last + 1;
              scan ()
            end
          end
        in
        scan ()
      end

(* Statically-empty queries have no engine and no answers. *)
let next t =
  match t.engine with
  | None -> None
  | Some _ when t.dead -> None
  | Some eng -> step t eng

let iter t f =
  let rec loop () =
    match next t with
    | Some p ->
        f p;
        loop ()
    | None -> ()
  in
  loop ()

let to_list t =
  let acc = ref [] in
  iter t (fun p -> acc := p :: !acc);
  List.rev !acc

(* Instrumentation for the delay experiment (E6). *)
let max_delay t = t.max_delay
let emitted t = t.emitted

(* Convenience: all answers of length exactly k. *)
let paths ?budget ?sources inst regex ~length =
  to_list (create ?budget ?sources inst regex ~length)
