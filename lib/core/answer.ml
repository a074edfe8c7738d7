type t = { src : int array; dst : int array; memo : Gqkg_util.Memo.t }

let of_columns src dst = { src; dst; memo = Gqkg_util.Memo.create () }
let length a = Array.length a.src
let memo a id build = Gqkg_util.Memo.get a.memo id build
let to_pairs a = List.init (length a) (fun i -> (a.src.(i), a.dst.(i)))

