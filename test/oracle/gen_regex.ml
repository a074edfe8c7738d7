(* Random regular-expression generator over a label vocabulary: the
   input distribution for the property tests that cross-check the
   product-based engine against the naive denotational evaluator. *)

open Gqkg_graph
open Gqkg_automata
open Gqkg_util

type params = {
  node_labels : string list;
  edge_labels : string list;
  properties : (string * string list) list; (* property name -> candidate values *)
  features : (int * string list) list; (* feature index -> candidate values *)
  max_depth : int;
  star_probability : float;
}

let default =
  {
    node_labels = [ "a"; "b"; "c" ];
    edge_labels = [ "x"; "y"; "z" ];
    properties = [];
    features = [];
    max_depth = 4;
    star_probability = 0.2;
  }

(* A candidate value as a constant: half the time through the natural
   [Const.of_string] typing, half as a forced string — the latter only
   round-trips through the printer's quoting, which is the point of the
   printer/parser property tests. *)
let random_const rng v =
  if Splitmix.bernoulli rng 0.5 then Const.of_string v else Const.str v

let random_atom rng labels params =
  let props = Array.of_list params.properties and feats = Array.of_list params.features in
  let extra = Array.length props + Array.length feats in
  if extra > 0 && Splitmix.bernoulli rng 0.3 then begin
    let i = Splitmix.int rng extra in
    if i < Array.length props then begin
      let name, values = props.(i) in
      Atom.Prop (Const.str name, random_const rng (Splitmix.choose rng (Array.of_list values)))
    end
    else begin
      let idx, values = feats.(i - Array.length props) in
      Atom.Feature (idx, random_const rng (Splitmix.choose rng (Array.of_list values)))
    end
  end
  else Atom.Label (Const.str (Splitmix.choose rng (Array.of_list labels)))

let random_test_of ~atom rng ~depth =
  let rec go depth =
    if depth = 0 || Splitmix.bernoulli rng 0.6 then Regex.Atom (atom ())
    else begin
      match Splitmix.int rng 3 with
      | 0 -> Regex.Not (go (depth - 1))
      | 1 -> Regex.Or (go (depth - 1), go (depth - 1))
      | _ -> Regex.And (go (depth - 1), go (depth - 1))
    end
  in
  go depth

let generate ?(params = default) rng =
  let test labels = random_test_of rng ~depth:2 ~atom:(fun () -> random_atom rng labels params) in
  let rec go depth =
    if depth = 0 then leaf ()
    else begin
      match Splitmix.int rng 10 with
      | 0 | 1 | 2 -> Regex.Seq (go (depth - 1), go (depth - 1))
      | 3 | 4 -> Regex.Alt (go (depth - 1), go (depth - 1))
      | 5 when Splitmix.bernoulli rng params.star_probability -> Regex.Star (go (depth - 1))
      | _ -> leaf ()
    end
  and leaf () =
    match Splitmix.int rng 4 with
    | 0 -> Regex.Node_test (test params.node_labels)
    | 1 -> Regex.Bwd (test params.edge_labels)
    | _ -> Regex.Fwd (test params.edge_labels)
  in
  go params.max_depth
