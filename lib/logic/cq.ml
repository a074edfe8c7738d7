(* Conjunctive queries over labeled graphs: the basic pattern-matching
   formalism behind "extracting nodes satisfying a pattern" (Sections 2.1
   and 4.3).  A query is a set of node-label and edge-label atoms over
   variables; answers are the assignments of graph nodes to the free
   (head) variables that satisfy every atom.

   Evaluation goes through the worst-case-optimal multiway join engine
   ({!Gqkg_core.Join}): node-label atoms become sorted node sets,
   edge-label atoms are served zero-copy from the per-snapshot
   label-sorted CSR index, and the conjunction is solved
   variable-by-variable under a planned global order — O(n^1.5) on the
   triangle query where binary joins pay O(n²) intermediates.

   The previous greedy backtracking join survives as
   {!answers_backtrack}, the reference oracle for tests and the bench
   A/B; its environments are int-slot arrays under a prepass variable
   numbering (constant-time lookup, trail-based undo). *)

open Gqkg_graph
module Join = Gqkg_core.Join

type atom =
  | Node of Const.t * string  (** label(x) *)
  | Edge of Const.t * string * string  (** label(x, y) *)

type t = { head : string list; body : atom list }

let query ~head ~body = { head; body }

let node_atom l x = Node (Const.str l, x)
let edge_atom l x y = Edge (Const.str l, x, y)

module Vars = Set.Make (String)

let atom_vars = function
  | Node (_, x) -> Vars.singleton x
  | Edge (_, x, y) -> Vars.add x (Vars.singleton y)

let body_vars body = List.fold_left (fun acc a -> Vars.union acc (atom_vars a)) Vars.empty body

let validate_head q =
  List.iter
    (fun v ->
      if not (Vars.mem v (body_vars q.body)) then
        invalid_arg (Printf.sprintf "Cq: head variable %s not bound by the body" v))
    q.head

(* ------------------------------------------------------------------ *)
(* WCOJ path: compile atoms to join specs                             *)
(* ------------------------------------------------------------------ *)

let atom_name = function
  | Node (l, x) -> Printf.sprintf "%s(%s)" (Const.to_string l) x
  | Edge (l, x, y) -> Printf.sprintf "%s(%s,%s)" (Const.to_string l) x y

(* Edge atoms with an interned label are zero-copy CSR views; without a
   label index (num_labels = 0) the relation is scanned once per label
   constant.  Node atoms read the snapshot's label postings. *)
let join_specs inst body =
  let idx = Join.Index.get inst in
  List.map
    (fun a ->
      match a with
      | Node (l, x) ->
          Join.atom ~name:(atom_name a) [| x |]
            (Join.Set (Join.Index.nodes_with_const_label idx l))
      | Edge (l, x, y) ->
          let rel =
            if inst.Snapshot.num_labels > 0 then Join.Edges (Join.Index.edge_label_ids idx l)
            else begin
              let pairs = ref [] in
              for e = inst.Snapshot.num_edges - 1 downto 0 do
                if inst.Snapshot.edge_atom e (Atom.Label l) then
                  pairs := (Snapshot.endpoints inst) e :: !pairs
              done;
              Join.Pairs !pairs
            end
          in
          Join.atom ~name:(atom_name a) [| x; y |] rel)
    body

let iter_answers ?budget inst q ~yield =
  validate_head q;
  Join.solve ?budget ~snapshot:inst (join_specs inst q.body) ~vars:q.head
    ~yield:(fun row -> yield (Array.to_list row))

let answers ?budget inst q =
  let out = ref [] in
  iter_answers ?budget inst q ~yield:(fun a -> out := a :: !out);
  List.sort compare !out

(* Unary convenience: answers of a single-head-variable query. *)
let answer_nodes ?budget inst q =
  List.filter_map (function [ v ] -> Some v | _ -> None) (answers ?budget inst q)

(* The join plan (variable order + per-atom estimates) for explain. *)
let explain inst q =
  Printf.sprintf "CQ(%s) :- %s\n%s" (String.concat ", " q.head)
    (String.concat ", " (List.map atom_name q.body))
    (Join.plan ~snapshot:inst (join_specs inst q.body)).Join.rendered

(* ------------------------------------------------------------------ *)
(* Reference oracle: greedy backtracking join                         *)
(* ------------------------------------------------------------------ *)

(* Precomputed label indexes. *)
type indexes = {
  inst : Snapshot.t;
  nodes_by_label : (Const.t, int array) Hashtbl.t;
  edges_by_label : (Const.t, (int * int) array) Hashtbl.t; (* (src, dst) pairs *)
  out_by_label : (Const.t * int, int array) Hashtbl.t; (* (label, src) -> dsts *)
  in_by_label : (Const.t * int, int array) Hashtbl.t; (* (label, dst) -> srcs *)
  pair_set : (Const.t * int * int, unit) Hashtbl.t;
}

let index_nodes_by_label idx label =
  match Hashtbl.find_opt idx.nodes_by_label label with
  | Some a -> a
  | None ->
      let out = ref [] in
      for v = idx.inst.Snapshot.num_nodes - 1 downto 0 do
        if idx.inst.Snapshot.node_atom v (Atom.Label label) then out := v :: !out
      done;
      let arr = Array.of_list !out in
      Hashtbl.replace idx.nodes_by_label label arr;
      arr

let index_edges_by_label idx label =
  match Hashtbl.find_opt idx.edges_by_label label with
  | Some a -> a
  | None ->
      let pairs = ref [] in
      let outs = Hashtbl.create 16 and ins = Hashtbl.create 16 in
      for e = idx.inst.Snapshot.num_edges - 1 downto 0 do
        if idx.inst.Snapshot.edge_atom e (Atom.Label label) then begin
          let s, d = (Snapshot.endpoints idx.inst) e in
          pairs := (s, d) :: !pairs;
          Hashtbl.replace idx.pair_set (label, s, d) ();
          Hashtbl.replace outs s (d :: Option.value (Hashtbl.find_opt outs s) ~default:[]);
          Hashtbl.replace ins d (s :: Option.value (Hashtbl.find_opt ins d) ~default:[])
        end
      done;
      let arr = Array.of_list !pairs in
      Hashtbl.replace idx.edges_by_label label arr;
      Hashtbl.iter (fun s ds -> Hashtbl.replace idx.out_by_label (label, s) (Array.of_list ds)) outs;
      Hashtbl.iter (fun d ss -> Hashtbl.replace idx.in_by_label (label, d) (Array.of_list ss)) ins;
      arr

let make_indexes inst =
  {
    inst;
    nodes_by_label = Hashtbl.create 16;
    edges_by_label = Hashtbl.create 16;
    out_by_label = Hashtbl.create 64;
    in_by_label = Hashtbl.create 64;
    pair_set = Hashtbl.create 256;
  }

(* The oracle's environments are int-slot arrays under a prepass
   variable numbering: slot v = -1 while unbound, constant-time lookup
   and trail-free undo (each atom binds at most two slots and resets
   them after exploring the branch). *)
type slots = { ids : (string, int) Hashtbl.t; env : int array }

let number_vars body =
  let ids = Hashtbl.create 16 in
  let next = ref 0 in
  List.iter
    (fun a ->
      Vars.iter
        (fun v ->
          if not (Hashtbl.mem ids v) then begin
            Hashtbl.add ids v !next;
            incr next
          end)
        (atom_vars a))
    body;
  { ids; env = Array.make (max 1 !next) (-1) }

let slot s v = Hashtbl.find s.ids v

(* Estimated number of candidate bindings an atom contributes, under the
   current partial assignment: the greedy cost function of the planner. *)
let atom_cost idx s = function
  | Node (l, x) ->
      if s.env.(slot s x) >= 0 then 1 else Array.length (index_nodes_by_label idx l)
  | Edge (l, x, y) -> begin
      let all () = Array.length (index_edges_by_label idx l) in
      match (s.env.(slot s x), s.env.(slot s y)) with
      | sx, sy when sx >= 0 && sy >= 0 -> 1
      | sx, _ when sx >= 0 ->
          ignore (index_edges_by_label idx l);
          Array.length (Option.value (Hashtbl.find_opt idx.out_by_label (l, sx)) ~default:[||])
      | _, sy when sy >= 0 ->
          ignore (index_edges_by_label idx l);
          Array.length (Option.value (Hashtbl.find_opt idx.in_by_label (l, sy)) ~default:[||])
      | _ -> all ()
    end

(* All extensions of the environment satisfying the atom: bind the
   slots, call [k], restore. *)
let atom_matches idx s atom k =
  let bound v = s.env.(v) >= 0 in
  let with_binding v value k =
    s.env.(v) <- value;
    k ();
    s.env.(v) <- -1
  in
  match atom with
  | Node (l, x) ->
      let sx = slot s x in
      if bound sx then begin
        if idx.inst.Snapshot.node_atom s.env.(sx) (Atom.Label l) then k ()
      end
      else Array.iter (fun v -> with_binding sx v k) (index_nodes_by_label idx l)
  | Edge (l, x, y) -> begin
      ignore (index_edges_by_label idx l);
      let sx = slot s x and sy = slot s y in
      match (bound sx, bound sy) with
      | true, true -> if Hashtbl.mem idx.pair_set (l, s.env.(sx), s.env.(sy)) then k ()
      | true, false ->
          Array.iter
            (fun d -> with_binding sy d k)
            (Option.value (Hashtbl.find_opt idx.out_by_label (l, s.env.(sx))) ~default:[||])
      | false, true ->
          Array.iter
            (fun src -> with_binding sx src k)
            (Option.value (Hashtbl.find_opt idx.in_by_label (l, s.env.(sy))) ~default:[||])
      | false, false ->
          Array.iter
            (fun (src, d) ->
              if sx = sy then begin
                if src = d then with_binding sx src k
              end
              else with_binding sx src (fun () -> with_binding sy d k))
            (index_edges_by_label idx l)
    end

(* Reference evaluation: greedy backtracking (cheapest atom first under
   the current bindings), yielding distinct head tuples. *)
let iter_answers_backtrack ?indexes inst q ~yield =
  let idx = match indexes with Some i -> i | None -> make_indexes inst in
  validate_head q;
  let s = number_vars q.body in
  let head_slots = List.map (slot s) q.head in
  let seen = Hashtbl.create 64 in
  let rec solve remaining =
    match remaining with
    | [] ->
        let answer = List.map (fun v -> s.env.(v)) head_slots in
        if not (Hashtbl.mem seen answer) then begin
          Hashtbl.replace seen answer ();
          yield answer
        end
    | _ ->
        (* Greedy: pick the cheapest atom under the current bindings. *)
        let best = ref None in
        List.iter
          (fun atom ->
            let cost = atom_cost idx s atom in
            match !best with
            | Some (_, c) when c <= cost -> ()
            | _ -> best := Some (atom, cost))
          remaining;
        (match !best with
        | None -> ()
        | Some (atom, _) ->
            let rest = List.filter (fun a -> a != atom) remaining in
            atom_matches idx s atom (fun () -> solve rest))
  in
  solve q.body

let answers_backtrack ?indexes inst q =
  let out = ref [] in
  iter_answers_backtrack ?indexes inst q ~yield:(fun a -> out := a :: !out);
  List.sort compare !out
