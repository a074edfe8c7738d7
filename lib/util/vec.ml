(* Small dense float vector / matrix operations for the GNN layer algebra.
   Matrices are stored row-major as flat arrays; nothing here is meant to
   compete with BLAS, sizes are tens of features. *)

type vec = float array
type mat = { rows : int; cols : int; data : float array }

let vec_add a b =
  if Array.length a <> Array.length b then invalid_arg "Vec.vec_add: dim mismatch";
  Array.mapi (fun i x -> x +. b.(i)) a

let vec_add_in_place ~into b =
  if Array.length into <> Array.length b then invalid_arg "Vec.vec_add_in_place: dim mismatch";
  Array.iteri (fun i x -> into.(i) <- into.(i) +. x) b

let dot a b =
  if Array.length a <> Array.length b then invalid_arg "Vec.dot: dim mismatch";
  let acc = ref 0.0 in
  for i = 0 to Array.length a - 1 do
    acc := !acc +. (a.(i) *. b.(i))
  done;
  !acc

let mat_create ~rows ~cols = { rows; cols; data = Array.make (rows * cols) 0.0 }

let mat_of_rows rows_list =
  match rows_list with
  | [] -> invalid_arg "Vec.mat_of_rows: empty"
  | first :: _ ->
      let cols = Array.length first in
      let rows = List.length rows_list in
      let data = Array.make (rows * cols) 0.0 in
      List.iteri
        (fun r row ->
          if Array.length row <> cols then invalid_arg "Vec.mat_of_rows: ragged rows";
          Array.blit row 0 data (r * cols) cols)
        rows_list;
      { rows; cols; data }

let mat_identity n =
  let m = mat_create ~rows:n ~cols:n in
  for i = 0 to n - 1 do
    m.data.((i * n) + i) <- 1.0
  done;
  m

let get m r c =
  if r < 0 || r >= m.rows || c < 0 || c >= m.cols then invalid_arg "Vec.get: out of bounds";
  m.data.((r * m.cols) + c)

let set m r c v =
  if r < 0 || r >= m.rows || c < 0 || c >= m.cols then invalid_arg "Vec.set: out of bounds";
  m.data.((r * m.cols) + c) <- v

(* y = x * M (row vector times matrix), the layer convention of the GNN. *)
let vec_mat x m =
  if Array.length x <> m.rows then invalid_arg "Vec.vec_mat: dim mismatch";
  let y = Array.make m.cols 0.0 in
  for r = 0 to m.rows - 1 do
    let xr = x.(r) in
    if xr <> 0.0 then
      for c = 0 to m.cols - 1 do
        y.(c) <- y.(c) +. (xr *. m.data.((r * m.cols) + c))
      done
  done;
  y

let mat_mul a b =
  if a.cols <> b.rows then invalid_arg "Vec.mat_mul: dim mismatch";
  let out = mat_create ~rows:a.rows ~cols:b.cols in
  for r = 0 to a.rows - 1 do
    for k = 0 to a.cols - 1 do
      let v = a.data.((r * a.cols) + k) in
      if v <> 0.0 then
        for c = 0 to b.cols - 1 do
          out.data.((r * b.cols) + c) <- out.data.((r * b.cols) + c) +. (v *. b.data.((k * b.cols) + c))
        done
    done
  done;
  out

(* Truncated ReLU, the activation of Barcelo et al.'s logic-capturing
   AC-GNNs: clamps to [0, 1] so boolean values are fixed points. *)
let truncated_relu x = Float.min 1.0 (Float.max 0.0 x)

let vec_equal ?(eps = 1e-9) a b =
  Array.length a = Array.length b
  && begin
       let ok = ref true in
       Array.iteri (fun i x -> if Float.abs (x -. b.(i)) > eps then ok := false) a;
       !ok
     end
