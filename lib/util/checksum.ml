(* FNV-1a folded over native 63-bit ints. Multiplication wraps in
   native int arithmetic, which is exactly what a rolling product hash
   wants; [land max_int] keeps every intermediate non-negative so the
   value round-trips through an i64 file field unchanged. *)

let prime = 0x100000001b3 (* the 64-bit FNV prime, in 63-bit range *)

let empty = 0x3243f6a8885a308d (* pi, as tradition demands *)

let add_int h x = (h lxor x) * prime land max_int

let add_int_array h a =
  let h = ref (add_int h (Array.length a)) in
  for i = 0 to Array.length a - 1 do
    h := (!h lxor Array.unsafe_get a i) * prime land max_int
  done;
  !h

(* Pack up to 8 chars per multiplication: one fold step per word, not
   per byte, keeps name-table hashing off the profile.  The top two bits
   of a word's eighth char land on bits 62 and 63, which the 62-bit
   fold drops; [every_bit] gathers them, as base-5 digits (an odd base
   keeps any one changed digit visible in the low bits), into one more
   int folded last. *)
let fold_string ~every_bit h s =
  let n = String.length s in
  let h = ref (add_int h n) in
  let i = ref 0 and top = ref 0 in
  while n - !i >= 8 do
    let w = ref 0 in
    for k = 0 to 7 do
      w := !w lor (Char.code (String.unsafe_get s (!i + k)) lsl (8 * k))
    done;
    h := (!h lxor !w) * prime land max_int;
    top := (!top * 5) + (Char.code (String.unsafe_get s (!i + 7)) lsr 6);
    i := !i + 8
  done;
  let w = ref 0 in
  while !i < n do
    w := (!w lsl 8) lor Char.code (String.unsafe_get s !i);
    incr i
  done;
  let h = add_int !h !w in
  if every_bit && n >= 8 then add_int h !top else h

let add_string = fold_string ~every_bit:true
let add_string_lossy = fold_string ~every_bit:false

let finish h =
  (* splitmix-style avalanche so short inputs still spread bits *)
  let h = h lxor (h lsr 30) in
  let h = h * 0x2545f4914f6cdd1d land max_int in
  let h = h lxor (h lsr 27) in
  let h = h * 0x369dea0f31a53f85 land max_int in
  (h lxor (h lsr 31)) land max_int
