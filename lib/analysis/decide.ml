(* Decision procedures over guarded NFAs: emptiness, containment,
   equivalence, canonicalization.

   The classical constructions (subset construction, product emptiness,
   Moore minimization) need a finite alphabet; guarded NFAs carry
   boolean tests instead.  The bridge is the satisfiability-signature
   alphabet: enumerate every observable outcome vector of the distinct
   tests against the schema vocabulary and treat each vector as one
   letter.  A path then reads as an interleaved word

      nu0 (a1 nu1) (a2 nu2) ... (ak nuk)

   where nu_i is the node letter of path node i and a_j is a direction
   (forward/backward) paired with the edge letter of path edge j.  The
   subset construction alternates node-phase states (about to read a
   node letter; the transition is the epsilon+check closure under that
   letter) and edge-phase states (about to read a direction/edge-letter
   pair); acceptance is tested on edge-phase (post-closure) sets, and
   zero-length paths are the words consisting of nu0 alone.

   Soundness of the bucketing (see the .mli): edge Label atoms are
   enumerated exactly under the one-label-per-edge rule, node Label
   atoms are exact independent bits (multi-label nodes are part of the
   snapshot model), and Prop/Feature atoms are free bits — an
   over-approximation.  Every letter a real node or edge can exhibit is
   among the enumerated ones, so [True] verdicts always hold on real
   graphs; [False] verdicts are kept only when backed by a realizable
   witness (or an exact alphabet) and degrade to [Unknown] otherwise.

   Everything runs under an optional budget plus a hard state cap and
   degrades to Unknown / None instead of hanging or raising. *)

open Gqkg_graph
open Gqkg_automata
module Budget = Gqkg_util.Budget

type verdict = True | False | Unknown of string

let verdict_to_string = function
  | True -> "true"
  | False -> "false"
  | Unknown why -> "unknown (" ^ why ^ ")"

type witness = { nodes : Const.t list list; steps : (bool * Const.t option) list }

let witness_to_string w =
  let buf = Buffer.create 64 in
  let node ls =
    Buffer.add_char buf '(';
    Buffer.add_string buf (String.concat " " (List.map Const.to_string ls));
    Buffer.add_char buf ')'
  in
  (match w.nodes with
  | [] -> ()
  | first :: rest ->
      node first;
      List.iter2
        (fun (fwd, lbl) ls ->
          let l = match lbl with Some c -> Const.to_string c | None -> "~" in
          Buffer.add_string buf (if fwd then " -[" ^ l ^ "]-> " else " <-[" ^ l ^ "]- ");
          node ls)
        w.steps rest);
  Buffer.contents buf

exception Gave_up of string

let default_pair_states = 4096
let default_dfa_states = 2048
let free_atom_cap = 8
let enum_cap = 4096

(* ---- The satisfiability-signature alphabet --------------------------- *)

type nletter = {
  nvec : bool array;  (* outcome per node test: formula input *)
  nbits : bool array;  (* the assignment to the side's atoms: the letter's identity *)
  nsat : Atom.t -> bool;  (* the assignment itself, for closures *)
  nrep : Const.t list option;  (* labels realizing the letter on a plain node *)
}

type eletter = {
  evec : bool array;
  ebits : bool array;
  esat : Atom.t -> bool;
  mutable erep : Const.t option option;
      (* [Some lbl] : a single edge labeled [lbl] (or, for [Some None],
         any label outside the tested vocabulary) realizes the letter *)
}

type alphabet = {
  ntests : Regex.test array;
  etests : Regex.test array;
  natoms : Atom.t array;  (* the atoms of each side, in Atom.compare order *)
  eatoms : Atom.t array;
  nl : nletter array;
  el : eletter array;
  exact : bool;
}

let rec test_atoms t acc =
  match t with
  | Regex.Atom a -> a :: acc
  | Regex.Not x -> test_atoms x acc
  | Regex.Or (x, y) | Regex.And (x, y) -> test_atoms x (test_atoms y acc)

let atoms_of_tests tests =
  List.sort_uniq Atom.compare (List.fold_left (fun acc t -> test_atoms t acc) [] tests)

let tests_of_nfa nfa =
  List.fold_left
    (fun (nt, et) (_, mv, _) ->
      match mv with
      | Nfa.Eps -> (nt, et)
      | Nfa.Node_check t -> (t :: nt, et)
      | Nfa.Forward t | Nfa.Backward t -> (nt, t :: et))
    ([], []) (Nfa.transition_list nfa)

let dedup_tests ts =
  let sorted = List.sort (fun a b -> compare (Regex.test_to_string a) (Regex.test_to_string b)) ts in
  let rec uniq = function
    | a :: b :: rest when Regex.equal_test a b -> uniq (b :: rest)
    | a :: rest -> a :: uniq rest
    | [] -> []
  in
  Array.of_list (uniq sorted)

let is_label_atom = function Atom.Label _ -> true | Atom.Prop _ | Atom.Feature _ -> false

(* Assignment closure over an explicit (atom, value) table; atoms not in
   the table answer false (they do not occur in the tests, so the value
   never matters). *)
let sat_of_table table a =
  match List.find_opt (fun (a', _) -> Atom.equal a a') table with
  | Some (_, v) -> v
  | None -> false

(* Pin each atom by its schema verdict or leave it a free bit. *)
let pin schema ~edge atoms =
  let fixed, free =
    List.partition_map
      (fun a ->
        match Analyze.schema_verdict schema ~edge (Regex.Atom a) with
        | `True -> Left (a, true)
        | `False -> Left (a, false)
        | `Unknown -> Right a)
      atoms
  in
  let nfree = List.length free in
  if nfree > free_atom_cap then
    raise
      (Gave_up
         (Printf.sprintf "%d unconstrained %s atoms (cap %d)" nfree
            (if edge then "edge" else "node")
            free_atom_cap));
  (fixed, free, nfree)

(* The assignment a mask of the free bits picks, in atom order: every
   letter of a side assigns the same atoms, so letters compare (and key)
   by their bits alone. *)
let assignment pinned free mask =
  pinned @ List.mapi (fun i a -> (a, mask land (1 lsl i) <> 0)) free
  |> List.sort (fun (a, _) (b, _) -> Atom.compare a b)

(* A letter is one assignment to a side's atoms, never a class of them
   merged by the outcomes of one query's tests: the key renders a
   letter by its assignment, and two queries over the same atoms that
   merged different classes under the same representative would share
   a key while their languages differ ([?(a | b)] and [?(a & !b)] when
   each node carries one label).

   Enumerate node letters: every atom is pinned by the schema verdict or
   a free bit.  Node Label bits are independent (multi-label nodes are
   realizable in the snapshot model), so the node side is exact exactly
   when no free Prop/Feature atom remains. *)
let node_letters schema ntests =
  let atoms = atoms_of_tests (Array.to_list ntests) in
  let fixed, free, nfree = pin schema ~edge:false atoms in
  let inexact =
    List.exists (fun a -> not (is_label_atom a)) free
    || List.exists (fun (a, v) -> v && not (is_label_atom a)) fixed
       (* a pinned-true Prop/Feature cannot be realized on a witness
          node, so treat it as lossy for the False direction too *)
  in
  let arr =
    Array.init (1 lsl nfree) (fun mask ->
        let table = assignment fixed free mask in
        let sat = sat_of_table table in
        let rep =
          if List.for_all (fun (a, v) -> is_label_atom a || not v) table then
            Some
              (List.filter_map
                 (fun (a, v) -> match a with Atom.Label c when v -> Some c | _ -> None)
                 table)
          else None
        in
        {
          nvec = Array.map (fun t -> Regex.eval_test sat t) ntests;
          nbits = Array.of_list (List.map snd table);
          nsat = sat;
          nrep = rep;
        })
  in
  Array.sort (fun a b -> compare a.nbits b.nbits) arr;
  (Array.of_list atoms, arr, inexact)

(* Enumerate edge letters: an edge carries exactly one label, so Label
   atoms are enumerated by label choice — over the closed schema
   universe when one exists, otherwise over the tested labels plus one
   "anything else" bucket.  Prop/Feature atoms are pinned or free
   bits.  Choices of an untested label assign the atoms alike, so they
   make one letter. *)
let edge_letters schema etests =
  let atoms = atoms_of_tests (Array.to_list etests) in
  let label_consts =
    List.filter_map (function Atom.Label c -> Some c | _ -> None) atoms
  in
  let others = List.filter (fun a -> not (is_label_atom a)) atoms in
  let fixed, free, nfree = pin schema ~edge:true others in
  let inexact = free <> [] || List.exists (fun (_, v) -> v) fixed in
  let choices =
    match schema with
    | Some s -> (
        match s.Schema.edge_labels with
        | Some [] -> [ None ]  (* closed and label-free: edges carry no label *)
        | Some hist -> List.map (fun (l, _) -> Some l) hist
        | None -> List.map (fun c -> Some c) label_consts @ [ None ])
    | None -> List.map (fun c -> Some c) label_consts @ [ None ]
  in
  if List.length choices * (1 lsl nfree) > enum_cap then
    raise (Gave_up (Printf.sprintf "edge letter space exceeds %d" enum_cap));
  let seen : (bool list, eletter) Hashtbl.t = Hashtbl.create 32 in
  let letters = ref [] in
  List.iter
    (fun choice ->
      for mask = 0 to (1 lsl nfree) - 1 do
        let labels =
          List.map
            (fun c ->
              (Atom.Label c, match choice with Some l -> Const.equal c l | None -> false))
            label_consts
        in
        let table = assignment (labels @ fixed) free mask in
        let sat = sat_of_table table in
        let vec = Array.map (fun t -> Regex.eval_test sat t) etests in
        let realizable = mask = 0 && List.for_all (fun (_, v) -> not v) fixed in
        let bits = List.map snd table in
        match Hashtbl.find_opt seen bits with
        | Some l -> if l.erep = None && realizable then l.erep <- Some choice
        | None ->
            let l =
              {
                evec = vec;
                ebits = Array.of_list bits;
                esat = sat;
                erep = (if realizable then Some choice else None);
              }
            in
            Hashtbl.add seen bits l;
            letters := l :: !letters
      done)
    choices;
  let arr = Array.of_list !letters in
  Array.sort (fun a b -> compare a.ebits b.ebits) arr;
  (Array.of_list atoms, arr, inexact)

let build_alphabet schema ~ntests ~etests =
  let natoms, nl, n_inexact = node_letters schema ntests in
  let eatoms, el, e_inexact = edge_letters schema etests in
  { ntests; etests; natoms; eatoms; nl; el; exact = (not n_inexact) && not e_inexact }

let alphabet_of_nfas schema nfas =
  let nt, et =
    List.fold_left
      (fun (nt, et) nfa ->
        let n, e = tests_of_nfa nfa in
        (n @ nt, e @ et))
      ([], []) nfas
  in
  build_alphabet schema ~ntests:(dedup_tests nt) ~etests:(dedup_tests et)

(* ---- Stepping a guarded NFA by letters ------------------------------- *)

let estep nfa dir esat set =
  let fwd, bwd = Nfa.edge_moves nfa set in
  let moves = if dir then fwd else bwd in
  let tgts =
    List.filter_map (fun (t, q) -> if Regex.eval_test esat t then Some q else None) moves
  in
  Array.of_list (List.sort_uniq compare tgts)

let closure nfa nl set = if Array.length set = 0 then set else Nfa.closure nfa ~node_sat:nl.nsat set

let budget_reason budget =
  match Budget.exhausted budget with
  | Some r -> "budget exhausted: " ^ Budget.reason_to_string r
  | None -> "budget exhausted"

(* ---- Containment: product emptiness with witness --------------------- *)

type parent = Init of int | Step of int * bool * int * int

let contains_search budget max_states alpha nfa_a nfa_b =
  let tbl : (int array * int array, int) Hashtbl.t = Hashtbl.create 64 in
  let parents : (int, parent) Hashtbl.t = Hashtbl.create 64 in
  let q = Queue.create () in
  let count = ref 0 in
  let intern key parent =
    if not (Hashtbl.mem tbl key) then begin
      let id = !count in
      incr count;
      if !count > max_states then
        raise (Gave_up (Printf.sprintf "pair-state cap %d exceeded" max_states));
      Hashtbl.add tbl key id;
      Hashtbl.add parents id parent;
      Queue.add (id, key) q
    end
  in
  Array.iteri
    (fun i nl ->
      let sa = closure nfa_a nl [| Nfa.start nfa_a |] in
      let sb = closure nfa_b nl [| Nfa.start nfa_b |] in
      intern (sa, sb) (Init i))
    alpha.nl;
  let bad = ref None in
  while !bad = None && not (Queue.is_empty q) do
    if Budget.check budget then raise (Gave_up (budget_reason budget));
    Budget.note_states budget !count;
    let id, (sa, sb) = Queue.pop q in
    if Nfa.is_accepting nfa_a sa && not (Nfa.is_accepting nfa_b sb) then bad := Some id
    else
      List.iter
        (fun dir ->
          Array.iteri
            (fun j el ->
              let sa1 = estep nfa_a dir el.esat sa in
              if Array.length sa1 > 0 then begin
                let sb1 = estep nfa_b dir el.esat sb in
                Array.iteri
                  (fun i nl ->
                    let sa2 = closure nfa_a nl sa1 in
                    let sb2 = closure nfa_b nl sb1 in
                    intern (sa2, sb2) (Step (id, dir, j, i)))
                  alpha.nl
              end)
            alpha.el)
        [ true; false ]
  done;
  match !bad with
  | None -> (True, None)
  | Some id ->
      let rec unwind id acc =
        match Hashtbl.find parents id with
        | Init i -> (i, acc)
        | Step (p, dir, j, i) -> unwind p ((dir, j, i) :: acc)
      in
      let i0, steps = unwind id [] in
      let witness =
        let ( let* ) = Option.bind in
        let* first = alpha.nl.(i0).nrep in
        let* rev_nodes, rev_steps =
          List.fold_left
            (fun acc (dir, j, i) ->
              let* ns, ss = acc in
              let* lbl = alpha.el.(j).erep in
              let* n = alpha.nl.(i).nrep in
              Some (n :: ns, (dir, lbl) :: ss))
            (Some ([ first ], []))
            steps
        in
        Some { nodes = List.rev rev_nodes; steps = List.rev rev_steps }
      in
      (match witness with
      | Some w -> (False, Some w)
      | None ->
          if alpha.exact then (False, None)
          else
            ( Unknown
                "refuted only over the bucketed over-approximation (property/feature \
                 atoms); no realizable counterexample",
              None ))

let empty_nfa_automaton = lazy (Nfa.make ~num_states:2 ~start:0 ~accept:1 ~transitions:[])

let contains_nfa ?schema ?budget ?(max_states = default_pair_states) nfa_a nfa_b =
  let budget = Option.value budget ~default:Budget.unlimited in
  try
    let alpha = alphabet_of_nfas schema [ nfa_a; nfa_b ] in
    contains_search budget max_states alpha nfa_a nfa_b
  with
  | Gave_up why -> (Unknown why, None)
  | Stack_overflow -> (Unknown "stack overflow", None)

let to_nfa r = Nfa.of_regex (Regex.simplify r)

let contains_witness ?schema ?budget ?max_states r1 r2 =
  contains_nfa ?schema ?budget ?max_states (to_nfa r1) (to_nfa r2)

let contains ?schema ?budget ?max_states r1 r2 =
  fst (contains_witness ?schema ?budget ?max_states r1 r2)

let empty ?schema ?budget ?max_states r =
  fst (contains_nfa ?schema ?budget ?max_states (to_nfa r) (Lazy.force empty_nfa_automaton))

let equiv ?schema ?budget ?max_states r1 r2 =
  match contains ?schema ?budget ?max_states r1 r2 with
  | True -> contains ?schema ?budget ?max_states r2 r1
  | (False | Unknown _) as v -> v

(* ---- Canonicalization ------------------------------------------------ *)

(* What [key] renders: each side's atoms in Atom.compare order (every
   letter of a side assigns the same atoms), each letter's assignment to
   them, and the transition table in canonical numbering. *)
type letters = {
  natoms : Atom.t array;
  nbits : bool array array;
  eatoms : Atom.t array;
  ebits : bool array array;
  table : string;
}

type canonical = {
  nfa : Nfa.t;
  dfa_states : int;
  states : int;
  hash : int64;
  key : string;
  exact : bool;
  letters : letters;
}

(* A plain loop, so the accumulator stays unboxed. *)
let fnv1a64 s =
  let h = ref 0xcbf29ce484222325L in
  for i = 0 to String.length s - 1 do
    let c = Int64.of_int (Char.code (String.unsafe_get s i)) in
    h := Int64.mul (Int64.logxor !h c) 0x100000001b3L
  done;
  !h

let hash_hex = Printf.sprintf "%016Lx"

(* The canonical key: the alphabet plus the transition table in
   canonical numbering — equal iff the minimal DFAs over the same
   signature alphabet are isomorphic. *)
let render_key l =
  let buf = Buffer.create 512 in
  (* A letter renders as its assignment: [atom=0|1], comma-separated. *)
  let side atoms bits =
    let names = Array.map Atom.to_query_string atoms in
    Array.iter
      (fun bs ->
        Array.iteri
          (fun i b ->
            if i > 0 then Buffer.add_char buf ',';
            Buffer.add_string buf names.(i);
            Buffer.add_string buf (if b then "=1" else "=0"))
          bs;
        Buffer.add_char buf ';')
      bits
  in
  Buffer.add_string buf "v1|N[";
  side l.natoms l.nbits;
  Buffer.add_string buf "]E[";
  side l.eatoms l.ebits;
  Buffer.add_string buf "]|";
  Buffer.add_string buf l.table;
  Buffer.contents buf

type dstate = { sort_node : bool; set : int array; mutable succ : int array; acc : bool }

(* Full subset construction over the signature alphabet: node-phase
   states (about to read a node letter) alternate with edge-phase states
   (post-closure; acceptance lives here; about to read a direction/edge
   letter). *)
let determinize budget max_states alpha nfa =
  let tbl : (bool * int array, int) Hashtbl.t = Hashtbl.create 64 in
  let states : (int, dstate) Hashtbl.t = Hashtbl.create 64 in
  let q = Queue.create () in
  let count = ref 0 in
  let intern sort_node set =
    let key = (sort_node, set) in
    match Hashtbl.find_opt tbl key with
    | Some id -> id
    | None ->
        let id = !count in
        incr count;
        if !count > max_states then
          raise (Gave_up (Printf.sprintf "DFA state cap %d exceeded" max_states));
        Hashtbl.add tbl key id;
        Hashtbl.add states id
          {
            sort_node;
            set;
            succ = [||];
            acc = (not sort_node) && Nfa.is_accepting nfa set;
          };
        Queue.add id q;
        id
  in
  ignore (intern true [| Nfa.start nfa |]);
  while not (Queue.is_empty q) do
    if Budget.check budget then raise (Gave_up (budget_reason budget));
    Budget.note_states budget !count;
    let id = Queue.pop q in
    let st = Hashtbl.find states id in
    if st.sort_node then
      st.succ <- Array.map (fun nl -> intern false (closure nfa nl st.set)) alpha.nl
    else begin
      let step dir el =
        let tgt = estep nfa dir el.esat st.set in
        if Array.length tgt = 0 then -1 else intern true tgt
      in
      st.succ <-
        Array.append (Array.map (step true) alpha.el) (Array.map (step false) alpha.el)
    end
  done;
  Array.init !count (fun i -> Hashtbl.find states i)

(* Characterize a set of letters as a boolean test over the original
   test vocabulary: the whole alphabet, a single (possibly negated)
   test when one matches exactly, otherwise the exact DNF. *)
let letter_formula tests vecs sel =
  let total = Array.length vecs in
  let selected = Array.exists (fun b -> b) sel in
  assert selected;
  if Array.for_all (fun b -> b) sel || Array.length tests = 0 then `All
  else begin
    let found = ref None in
    Array.iteri
      (fun ti t ->
        if !found = None then begin
          let pos = ref true and neg = ref true in
          for s = 0 to total - 1 do
            if vecs.(s).(ti) <> sel.(s) then pos := false;
            if vecs.(s).(ti) = sel.(s) then neg := false
          done;
          if !pos then found := Some t else if !neg then found := Some (Regex.Not t)
        end)
      tests;
    match !found with
    | Some t -> `Test t
    | None ->
        let conj s =
          let parts =
            Array.to_list
              (Array.mapi (fun ti t -> if vecs.(s).(ti) then t else Regex.Not t) tests)
          in
          match parts with
          | [] -> assert false
          | p :: rest -> List.fold_left (fun a b -> Regex.And (a, b)) p rest
        in
        (* letters with one outcome vector make one disjunct *)
        let sels = ref [] in
        for s = total - 1 downto 0 do
          if sel.(s) && not (List.exists (fun s' -> vecs.(s') = vecs.(s)) !sels) then
            sels := s :: !sels
        done;
        let d =
          match !sels with
          | [] -> assert false
          | s :: rest -> List.fold_left (fun a s' -> Regex.Or (a, conj s')) (conj s) rest
        in
        `Test d
  end

let canonicalize_nfa ?schema ?budget ?(max_states = default_dfa_states) input =
  let budget = Option.value budget ~default:Budget.unlimited in
  try
    let alpha = alphabet_of_nfas schema [ input ] in
    let st = determinize budget max_states alpha input in
    let n = Array.length st in
    (* Trim: keep only states co-reachable from an accepting state. *)
    let rev = Array.make n [] in
    Array.iteri
      (fun i s -> Array.iter (fun t -> if t >= 0 then rev.(t) <- i :: rev.(t)) s.succ)
      st;
    let keep = Analyze.reachable n rev (List.filter (fun i -> st.(i).acc) (List.init n Fun.id)) in
    if not keep.(0) then
      (* empty language: one shared canonical form *)
      Some
        {
          nfa = Nfa.make ~num_states:2 ~start:0 ~accept:1 ~transitions:[];
          dfa_states = 0;
          states = 2;
          hash = fnv1a64 "v1|empty";
          key = "v1|empty";
          exact = alpha.exact;
          letters = { natoms = [||]; nbits = [||]; eatoms = [||]; ebits = [||]; table = "" };
        }
    else begin
      (* Moore partition refinement; trimmed-away and dead targets form
         an implicit sink class (-1). *)
      let block = Array.make n (-1) in
      Array.iteri
        (fun i s -> if keep.(i) then block.(i) <- (if s.sort_node then 0 else if s.acc then 1 else 2))
        st;
      let changed = ref true in
      while !changed do
        if Budget.check budget then raise (Gave_up (budget_reason budget));
        (* Splitting only ever refines, so the partition is stable iff
           the class count is unchanged — but count the *occupied*
           classes: an empty seed class (e.g. no non-accepting edge
           state) would otherwise mask a split in the first round and
           stop refinement early. *)
        let occupied = Hashtbl.create 16 in
        for i = 0 to n - 1 do
          if keep.(i) then Hashtbl.replace occupied block.(i) ()
        done;
        let nblocks = Hashtbl.length occupied in
        let sigs = Hashtbl.create 64 in
        let next = Array.make n (-1) in
        let fresh = ref 0 in
        for i = 0 to n - 1 do
          if keep.(i) then begin
            let succ_blocks =
              Array.map (fun t -> if t >= 0 && keep.(t) then block.(t) else -1) st.(i).succ
            in
            let key = (block.(i), succ_blocks) in
            let b =
              match Hashtbl.find_opt sigs key with
              | Some b -> b
              | None ->
                  let b = !fresh in
                  incr fresh;
                  Hashtbl.add sigs key b;
                  b
            in
            next.(i) <- b
          end
        done;
        changed := !fresh <> nblocks;
        Array.blit next 0 block 0 n
      done;
      (* Canonical numbering: BFS over blocks from the start block,
         letters in canonical (key-sorted) order. *)
      let rep = Hashtbl.create 16 in
      for i = n - 1 downto 0 do
        if keep.(i) then Hashtbl.replace rep block.(i) i
      done;
      let canon = Hashtbl.create 16 in
      let order = ref [] in
      let qq = Queue.create () in
      let number b =
        if not (Hashtbl.mem canon b) then begin
          Hashtbl.add canon b (Hashtbl.length canon);
          order := b :: !order;
          Queue.add b qq
        end
      in
      number block.(0);
      while not (Queue.is_empty qq) do
        let r = Hashtbl.find rep (Queue.pop qq) in
        Array.iter (fun t -> if t >= 0 && keep.(t) then number block.(t)) st.(r).succ
      done;
      let blocks_in_order = Array.of_list (List.rev !order) in
      let nb = Array.length blocks_in_order in
      let buf = Buffer.create 256 in
      Array.iteri
        (fun ci b ->
          let r = Hashtbl.find rep b in
          Buffer.add_string buf (string_of_int ci);
          Buffer.add_char buf (if st.(r).sort_node then 'n' else if st.(r).acc then 'A' else 'e');
          Array.iter
            (fun t ->
              if t >= 0 && keep.(t) then
                Buffer.add_string buf (string_of_int (Hashtbl.find canon block.(t)))
              else Buffer.add_char buf '.';
              Buffer.add_char buf ',')
            st.(r).succ;
          Buffer.add_char buf '|')
        blocks_in_order;
      let letters =
        {
          natoms = alpha.natoms;
          nbits = Array.map (fun (l : nletter) -> l.nbits) alpha.nl;
          eatoms = alpha.eatoms;
          ebits = Array.map (fun (l : eletter) -> l.ebits) alpha.el;
          table = Buffer.contents buf;
        }
      in
      let key = render_key letters in
      (* Convert back to a guarded NFA the product kernel can run: block
         ci's moves group its letters by target block; the group's test
         characterizes exactly those letters. *)
      let transitions = ref [] in
      let nvecs = Array.map (fun l -> l.nvec) alpha.nl in
      let evecs = Array.map (fun l -> l.evec) alpha.el in
      Array.iteri
        (fun ci b ->
          let r = Hashtbl.find rep b in
          let s = st.(r) in
          if s.acc then transitions := (ci, Nfa.Eps, nb) :: !transitions;
          let groups = Hashtbl.create 8 in
          let add off width mk vecs tests =
            Hashtbl.reset groups;
            for li = 0 to width - 1 do
              let t = s.succ.(off + li) in
              if t >= 0 && keep.(t) then begin
                let tgt = Hashtbl.find canon block.(t) in
                let sel =
                  match Hashtbl.find_opt groups tgt with
                  | Some sel -> sel
                  | None ->
                      let sel = Array.make width false in
                      Hashtbl.add groups tgt sel;
                      sel
                in
                sel.(li) <- true
              end
            done;
            Hashtbl.iter
              (fun tgt sel ->
                let mv =
                  match letter_formula tests vecs sel with
                  | `All -> if s.sort_node then Nfa.Eps else mk Regex.any_test
                  | `Test t -> mk t
                in
                transitions := (ci, mv, tgt) :: !transitions)
              groups
          in
          if s.sort_node then
            add 0 (Array.length alpha.nl) (fun t -> Nfa.Node_check t) nvecs alpha.ntests
          else begin
            add 0 (Array.length alpha.el) (fun t -> Nfa.Forward t) evecs alpha.etests;
            add (Array.length alpha.el) (Array.length alpha.el)
              (fun t -> Nfa.Backward t)
              evecs alpha.etests
          end)
        blocks_in_order;
      (* Deterministic transition order (Hashtbl.iter order is not). *)
      let transitions = List.sort compare !transitions in
      let nfa = Nfa.make ~num_states:(nb + 1) ~start:0 ~accept:nb ~transitions in
      Some
        {
          nfa;
          dfa_states = nb;
          states = nb + 1;
          hash = fnv1a64 key;
          key;
          exact = alpha.exact;
          letters;
        }
    end
  with
  | Gave_up _ -> None
  | Stack_overflow -> None

let canonicalize ?schema ?budget ?max_states r =
  canonicalize_nfa ?schema ?budget ?max_states (to_nfa r)

(* Everything above reads an atom's value only through Atom.equal, the
   Atom.compare order of the atoms, the test_to_string order of the
   tests and the schema verdict, which depends on the property name or
   feature index alone.  [shape] records all of these with the
   Prop/Feature values lifted out: each becomes its Atom.compare rank,
   so the lifted automaton carries the atom order, and the two sorted
   test arrays the alphabet is built from carry the test order.  Equal
   shapes mean one input is the other renamed by the rank-to-rank map,
   and every step above commutes with that renaming except the
   transition sort and the key's rendering of the atoms, which
   [rename_atoms] redoes.  Marshal keeps the key injective. *)
let shape ?(max_states = default_dfa_states) nfa =
  let nt, et = tests_of_nfa nfa in
  let atoms = Array.of_list (List.filter (Fun.negate is_label_atom) (atoms_of_tests (nt @ et))) in
  let rank a = Const.Int (Option.get (Array.find_index (Atom.equal a) atoms)) in
  let lift =
    Regex.map_test_atoms (function
      | Atom.Label _ as a -> a
      | Atom.Prop (p, _) as a -> Atom.Prop (p, rank a)
      | Atom.Feature (i, _) as a -> Atom.Feature (i, rank a))
  in
  let moves = List.map (fun (q, m, q') -> (q, Nfa.map_move lift m, q')) (Nfa.transition_list nfa) in
  let order ts = Array.map lift (dedup_tests ts) in
  let ends = (Nfa.num_states nfa, Nfa.start nfa, Nfa.accept nfa) in
  (atoms, Marshal.to_string (max_states, ends, moves, order nt, order et) [ Marshal.No_sharing ])

let rename_atoms c f =
  if c.dfa_states = 0 then c
  else begin
    let move (q, m, q') = (q, Nfa.map_move (Regex.map_test_atoms f) m, q') in
    let transitions = List.sort compare (List.map move (Nfa.transition_list c.nfa)) in
    let nfa = Nfa.make ~num_states:c.states ~start:0 ~accept:c.dfa_states ~transitions in
    let natoms = Array.map f c.letters.natoms and eatoms = Array.map f c.letters.eatoms in
    let letters = { c.letters with natoms; eatoms } in
    let key = render_key letters in
    { c with nfa; key; hash = fnv1a64 key; letters }
  end

(* ---- GQ05x redundancy lint ------------------------------------------- *)

let rec flatten_alt r acc =
  match r with Regex.Alt (a, b) -> flatten_alt a (flatten_alt b acc) | _ -> r :: acc

let rec flatten_seq r acc =
  match r with Regex.Seq (a, b) -> flatten_seq a (flatten_seq b acc) | _ -> r :: acc

let alt_branch_cap = 6

let lint ?schema ?budget ?max_states r0 =
  let diags = ref [] in
  let emit code severity subterm message =
    let d = Diagnostic.make ~code ~severity ~subterm ~message in
    if not (List.exists (fun d' -> d' = d) !diags) then diags := d :: !diags
  in
  let contains_t a b =
    match contains ?schema ?budget ?max_states a b with True -> true | _ -> false
  in
  let nonempty a = match empty ?schema ?budget ?max_states a with False -> true | _ -> false in
  (* GQ051: a disjunct that can never hold while a sibling can — the
     test quietly reduces to the sibling.  Tautological tests (the
     ?_|_|!_|_ "any" idiom) are skipped: every disjunct of a tautology
     is doing its job. *)
  let scan_test ~edge t0 =
    let status = Analyze.schema_verdict schema ~edge in
    if status t0 = `Unknown then begin
      let rec scan t =
        match t with
        | Regex.Or (a, b) ->
            let da = status a = `False and db = status b = `False in
            if da && not db then
              emit "GQ051" Diagnostic.Info
                (Regex.test_to_string a)
                "disjunct can never hold here; the test reduces to the other alternative";
            if db && not da then
              emit "GQ051" Diagnostic.Info
                (Regex.test_to_string b)
                "disjunct can never hold here; the test reduces to the other alternative";
            scan a;
            scan b
        | Regex.And (a, b) ->
            scan a;
            scan b
        | Regex.Not a -> scan a
        | Regex.Atom _ -> ()
      in
      scan t0
    end
  in
  let rec walk r =
    match r with
    | Regex.Node_test t -> scan_test ~edge:false t
    | Regex.Fwd t | Regex.Bwd t -> scan_test ~edge:true t
    | Regex.Star body -> walk body
    | Regex.Alt _ ->
        let branches = flatten_alt r [] in
        List.iter walk branches;
        let arr = Array.of_list branches in
        let n = Array.length arr in
        (* GQ050: a branch subsumed by a sibling.  Only satisfiable
           branches are flagged (an unsatisfiable branch — e.g. an
           out-of-schema label — is GQ001/GQ012 territory, not
           redundancy), and only [True] verdicts fire, so bucketed or
           budget-tripped comparisons stay silent. *)
        if n <= alt_branch_cap then
          for j = 0 to n - 1 do
            let rec find i =
              if i >= n then ()
              else if
                i <> j
                && contains_t arr.(j) arr.(i)
                && ((not (contains_t arr.(i) arr.(j))) || i < j)
                && nonempty arr.(j)
              then
                emit "GQ050" Diagnostic.Warning
                  (Regex.to_string arr.(j))
                  (Printf.sprintf
                     "alternation branch is subsumed by sibling `%s`; removing it does not \
                      change the query"
                     (Regex.to_string ~top:true arr.(i)))
              else find (i + 1)
            in
            find 0
          done
    | Regex.Seq _ ->
        let factors = flatten_seq r [] in
        List.iter walk factors;
        (* GQ052: adjacent closures where one absorbs the other
           (r*/s* = s* when r ⊆ s). *)
        let absorbed f g =
          emit "GQ052" Diagnostic.Warning (Regex.to_string f)
            (Printf.sprintf
               "redundant closure: absorbed by the adjacent `%s` (r*/s* = s* when r is \
                contained in s)"
               (Regex.to_string ~top:true g))
        in
        let rec adj = function
          | (Regex.Star _ as f) :: (Regex.Star _ as g) :: rest ->
              if contains_t f g then absorbed f g else if contains_t g f then absorbed g f;
              adj (g :: rest)
          | _ :: rest -> adj rest
          | [] -> ()
        in
        adj factors
  in
  walk r0;
  Diagnostic.sort (List.rev !diags)
