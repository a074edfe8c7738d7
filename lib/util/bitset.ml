(* Packed bitsets over small int universes.

   Two layers share the bit layout ([Sys.int_size] bits per word, so a
   word is an immediate — no boxing anywhere):

   - "raw" operations act on caller-allocated [int array] words of a
     fixed width.  The RPQ product kernel stores NFA state sets this
     way: equality, hashing and closure become O(words) instead of
     O(set size) sorted-array scans, and the word array itself is the
     interning key.
   - [t] wraps a growable word array for seen-sets over universes whose
     size is discovered on the fly (e.g. product state ids). *)

let bits_per_word = Sys.int_size

(* Words needed to cover [n] bits (at least one, so the empty universe
   still has a valid — all-zero — representation). *)
let words_for n = if n <= 0 then 1 else ((n - 1) / bits_per_word) + 1

(* ---------------- raw fixed-width operations ---------------- *)

let raw_create n = Array.make (words_for n) 0
let raw_mem ws i = ws.(i / bits_per_word) land (1 lsl (i mod bits_per_word)) <> 0
let raw_add ws i = ws.(i / bits_per_word) <- ws.(i / bits_per_word) lor (1 lsl (i mod bits_per_word))

let raw_clear ws = Array.fill ws 0 (Array.length ws) 0

let raw_union_into ~into ws =
  for k = 0 to Array.length ws - 1 do
    into.(k) <- into.(k) lor ws.(k)
  done

let raw_is_empty ws =
  let rec loop k = k = Array.length ws || (ws.(k) = 0 && loop (k + 1)) in
  loop 0

(* Iterate the set bit positions of a single word, ascending — the
   per-slot decode step of the multi-source frontier engines, where one
   word carries a batch of BFS sources.  [lsr] is a logical shift, so a
   word with the top (sign) bit set still terminates. *)
let word_iter w f =
  let w = ref w and i = ref 0 in
  while !w <> 0 do
    if !w land 1 <> 0 then f !i;
    incr i;
    w := !w lsr 1
  done

(* Monomorphic word-wise comparison; widths must match (they do inside
   one kernel, where the width is fixed by the automaton). *)
let raw_equal a b =
  let n = Array.length a in
  n = Array.length b
  &&
  let rec loop k = k = n || (a.(k) = b.(k) && loop (k + 1)) in
  loop 0

(* FNV-1a-style hash over the words, folding each 63-bit word in three
   31-bit chunks to keep the multiplies in immediate-int range. *)
let raw_hash ws =
  let h = ref 0x811c9dc5 in
  for k = 0 to Array.length ws - 1 do
    let w = ws.(k) in
    h := (!h lxor (w land 0x7fffffff)) * 0x01000193;
    h := (!h lxor ((w lsr 31) land 0x7fffffff)) * 0x01000193;
    h := (!h lxor (w lsr 62)) * 0x01000193
  done;
  !h land max_int

let raw_iter ws f =
  for k = 0 to Array.length ws - 1 do
    let w = ref ws.(k) in
    let base = k * bits_per_word in
    while !w <> 0 do
      (* Isolate and strip the lowest set bit. *)
      let bit = !w land - !w in
      let rec log2 b acc = if b = 1 then acc else log2 (b lsr 1) (acc + 1) in
      f (base + log2 bit 0);
      w := !w lxor bit
    done
  done

(* Kernighan's count: one step per set bit. *)
let raw_cardinal ws =
  let c = ref 0 in
  Array.iter
    (fun w ->
      let w = ref w in
      while !w <> 0 do
        w := !w land (!w - 1);
        incr c
      done)
    ws;
  !c

(* Members in ascending order (bits are iterated low to high). *)
let raw_to_array ws =
  let n = raw_cardinal ws in
  let out = Array.make n 0 in
  let k = ref 0 in
  raw_iter ws (fun i ->
      out.(!k) <- i;
      incr k);
  out

let raw_of_array n members =
  let ws = raw_create n in
  Array.iter (fun i -> raw_add ws i) members;
  ws

(* ---------------- growable set ---------------- *)

type t = { mutable words : int array }

let create ?(capacity = bits_per_word) () = { words = Array.make (words_for capacity) 0 }

let ensure t i =
  let need = (i / bits_per_word) + 1 in
  if need > Array.length t.words then begin
    let bigger = Array.make (max need (2 * Array.length t.words)) 0 in
    Array.blit t.words 0 bigger 0 (Array.length t.words);
    t.words <- bigger
  end

let add t i =
  ensure t i;
  raw_add t.words i

let mem t i = i / bits_per_word < Array.length t.words && raw_mem t.words i
let clear t = raw_clear t.words
let is_empty t = raw_is_empty t.words
let cardinal t = raw_cardinal t.words
let iter t f = raw_iter t.words f
let to_sorted_array t = raw_to_array t.words
