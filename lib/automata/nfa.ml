(* Guarded non-deterministic finite automata compiled from the Section 4
   regular expressions (Thompson's construction).

   The alphabet is not a fixed set of letters: transitions are *guarded
   moves* evaluated against a data-model oracle (Snapshot.t):

     - [Eps]           : spontaneous;
     - [Node_check t]  : spontaneous, allowed only when the current node
                         satisfies the test (compiles [?t]);
     - [Forward t]     : consume one edge e with ρ(e) = (current, next)
                         whose label/properties satisfy [t];
     - [Backward t]    : consume one edge e with ρ(e) = (next, current).

   A path n0 e1 n1 ... ek nk is accepted iff some run consumes e1..ek from
   the start state to the accept state, with every Node_check passed at the
   node where it fires.  This matches the denotational semantics [[r]] of
   the paper (proved by structural induction; the test suite checks the
   worked examples and random graphs against a reference evaluator). *)

type move =
  | Eps
  | Node_check of Regex.test
  | Forward of Regex.test
  | Backward of Regex.test

type t = {
  num_states : int;
  start : int;
  accept : int;
  transitions : (move * int) list array; (* state -> out-transitions *)
  (* Kernel tables, precomputed once per automaton so the product's hot
     loops index arrays instead of walking the transition lists: *)
  eps : int array array; (* state -> ε targets *)
  (* state -> node-check moves; the int is the check occurrence's global
     index in [0, num_checks), so results can be cached per node. *)
  checks : (int * Regex.test * int) array array;
  num_checks : int;
  fwd : (Regex.test * int) array array; (* state -> forward edge moves *)
  bwd : (Regex.test * int) array array; (* state -> backward edge moves *)
  check_tests : Regex.test array; (* check occurrence index -> its test *)
  words : int; (* Bitset words per state set *)
}

let num_states a = a.num_states
let start a = a.start
let accept a = a.accept
let transitions a q = a.transitions.(q)

let transition_list a =
  List.concat
    (List.init a.num_states (fun q -> List.map (fun (m, q') -> (q, m, q')) a.transitions.(q)))

let map_move f = function
  | Eps -> Eps
  | Node_check t -> Node_check (f t)
  | Forward t -> Forward (f t)
  | Backward t -> Backward (f t)
let words a = a.words
let num_checks a = a.num_checks
let check_tests a = a.check_tests
let fwd_moves a q = a.fwd.(q)
let bwd_moves a q = a.bwd.(q)

(* Check occurrences on the spontaneous moves reachable from the start
   state, every check assumed to pass: the only checks a closure of
   {start} can ask. *)
let start_checks a =
  let seen = Array.make a.num_states false in
  let out = ref [] in
  let rec go q =
    if not seen.(q) then begin
      seen.(q) <- true;
      Array.iter go a.eps.(q);
      Array.iter
        (fun (idx, _, q') ->
          out := idx :: !out;
          go q')
        a.checks.(q)
    end
  in
  go a.start;
  Array.of_list (List.sort_uniq Int.compare !out)

(* Assemble an automaton from an explicit transition list, precomputing
   the kernel tables.  This is the single constructor: Thompson's
   construction below and the analyzer's trimming pass both go through
   it, so every [t] carries consistent tables. *)
let make ~num_states ~start ~accept ~transitions =
  if num_states <= 0 then invalid_arg "Nfa.make: num_states must be positive";
  let check q =
    if q < 0 || q >= num_states then invalid_arg "Nfa.make: state out of range"
  in
  check start;
  check accept;
  let table = Array.make num_states [] in
  List.iter
    (fun (q, move, q') ->
      check q;
      check q';
      table.(q) <- (move, q') :: table.(q))
    transitions;
  let select f =
    Array.map (fun moves -> Array.of_list (List.filter_map f moves)) table
  in
  let check_counter = ref 0 in
  let checks =
    Array.map
      (fun moves ->
        Array.of_list
          (List.filter_map
             (function
               | Node_check t, q' ->
                   let idx = !check_counter in
                   incr check_counter;
                   Some (idx, t, q')
               | _ -> None)
             moves))
      table
  in
  let check_tests =
    let out = Array.make !check_counter None in
    Array.iter (Array.iter (fun (idx, t, _) -> out.(idx) <- Some t)) checks;
    Array.map Option.get out
  in
  {
    num_states;
    start;
    accept;
    transitions = table;
    eps = select (function Eps, q' -> Some q' | _ -> None);
    checks;
    num_checks = !check_counter;
    fwd = select (function Forward t, q' -> Some (t, q') | _ -> None);
    bwd = select (function Backward t, q' -> Some (t, q') | _ -> None);
    check_tests;
    words = Gqkg_util.Bitset.words_for num_states;
  }

(* Thompson construction with one fresh start/accept pair per node of the
   regex; linear in the size of the expression. *)
let of_regex regex =
  let transitions = ref [] in
  let count = ref 0 in
  let fresh () =
    let q = !count in
    incr count;
    q
  in
  let add q move q' = transitions := (q, move, q') :: !transitions in
  let rec build = function
    | Regex.Node_test t ->
        let s = fresh () and a = fresh () in
        add s (Node_check t) a;
        (s, a)
    | Regex.Fwd t ->
        let s = fresh () and a = fresh () in
        add s (Forward t) a;
        (s, a)
    | Regex.Bwd t ->
        let s = fresh () and a = fresh () in
        add s (Backward t) a;
        (s, a)
    | Regex.Alt (r1, r2) ->
        let s = fresh () and a = fresh () in
        let s1, a1 = build r1 and s2, a2 = build r2 in
        add s Eps s1;
        add s Eps s2;
        add a1 Eps a;
        add a2 Eps a;
        (s, a)
    | Regex.Seq (r1, r2) ->
        let s1, a1 = build r1 and s2, a2 = build r2 in
        add a1 Eps s2;
        (s1, a2)
    | Regex.Star r ->
        let s = fresh () and a = fresh () in
        let s1, a1 = build r in
        add s Eps s1;
        add s Eps a;
        add a1 Eps s1;
        add a1 Eps a;
        (s, a)
  in
  let start, accept = build regex in
  make ~num_states:!count ~start ~accept ~transitions:!transitions

(* Recognizer of the reversed language: every transition arrow flips,
   edge moves swap direction (a path read back to front traverses each
   edge the other way), spontaneous moves keep their tests (they still
   fire at the same node of the mirrored run), start and accept swap.
   [reverse (reverse a)] recognizes the same language as [a]. *)
let reverse a =
  let rev_move = function
    | Eps -> Eps
    | Node_check t -> Node_check t
    | Forward t -> Backward t
    | Backward t -> Forward t
  in
  let transitions = ref [] in
  for q = a.num_states - 1 downto 0 do
    List.iter (fun (m, q') -> transitions := (q', rev_move m, q) :: !transitions) a.transitions.(q)
  done;
  make ~num_states:a.num_states ~start:a.accept ~accept:a.start ~transitions:!transitions

(* Closure of a set of states under Eps and under Node_check moves whose
   test the given node passes.  [node_sat] answers atomic tests for that
   node.  Returns a sorted, duplicate-free array — the canonical key used
   by the lazy subset construction in the product graph. *)
let closure a ~node_sat states =
  let seen = Array.make a.num_states false in
  let stack = Stack.create () in
  let push q =
    if not seen.(q) then begin
      seen.(q) <- true;
      Stack.push q stack
    end
  in
  Array.iter push states;
  while not (Stack.is_empty stack) do
    let q = Stack.pop stack in
    List.iter
      (fun (move, q') ->
        match move with
        | Eps -> push q'
        | Node_check t -> if Regex.eval_test node_sat t then push q'
        | Forward _ | Backward _ -> ())
      a.transitions.(q)
  done;
  let out = ref [] in
  for q = a.num_states - 1 downto 0 do
    if seen.(q) then out := q :: !out
  done;
  Array.of_list !out

(* In-place closure on raw bitset words (length [words a]): extend the
   set under ε moves and node-checks the node passes.  [check_sat idx t]
   answers check occurrence [idx] (whose test is [t]) for the node being
   closed at — indexing lets callers cache answers per (node, check).
   The kernel's counterpart of {!closure} — O(words) bookkeeping, no
   sorting, and the result array doubles as the product interning key. *)
let close_raw_idx a ~check_sat set =
  let module B = Gqkg_util.Bitset in
  let stack = Array.make a.num_states 0 in
  let top = ref 0 in
  let push q =
    if not (B.raw_mem set q) then begin
      B.raw_add set q;
      stack.(!top) <- q;
      incr top
    end
  in
  B.raw_iter set (fun q ->
      stack.(!top) <- q;
      incr top);
  while !top > 0 do
    decr top;
    let q = stack.(!top) in
    Array.iter push a.eps.(q);
    Array.iter (fun (idx, t, q') -> if check_sat idx t then push q') a.checks.(q)
  done

let close_raw a ~node_sat set =
  close_raw_idx a ~check_sat:(fun _ t -> Regex.eval_test node_sat t) set

let is_accepting a states = Array.exists (fun q -> q = a.accept) states

(* All (test, target) pairs for edge-consuming moves out of a state set,
   split by direction. *)
let edge_moves a states =
  let fwd = ref [] and bwd = ref [] in
  Array.iter
    (fun q ->
      List.iter
        (fun (move, q') ->
          match move with
          | Forward t -> fwd := (t, q') :: !fwd
          | Backward t -> bwd := (t, q') :: !bwd
          | Eps | Node_check _ -> ())
        a.transitions.(q))
    states;
  (!fwd, !bwd)

(* Human-readable dump for debugging and the CLI's --explain flag. *)
let to_string a =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "NFA: %d states, start=%d, accept=%d\n" a.num_states a.start a.accept);
  Array.iteri
    (fun q moves ->
      List.iter
        (fun (move, q') ->
          let label =
            match move with
            | Eps -> "eps"
            | Node_check t -> "?" ^ Regex.test_to_string ~top:true t
            | Forward t -> Regex.test_to_string ~top:true t
            | Backward t -> Regex.test_to_string ~top:true t ^ "^-"
          in
          Buffer.add_string buf (Printf.sprintf "  %d --%s--> %d\n" q label q'))
        moves)
    a.transitions;
  Buffer.contents buf
