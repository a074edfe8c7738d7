(** Random regular-expression generator over a label vocabulary: the
    input distribution of the engine-vs-oracle property tests. *)

open Gqkg_automata
open Gqkg_util

type params = {
  node_labels : string list;
  edge_labels : string list;
  properties : (string * string list) list;
      (** property name -> candidate values; values are emitted half
          naturally typed, half as forced strings (exercising the
          printer's quoting) *)
  features : (int * string list) list;  (** feature index -> candidate values *)
  max_depth : int;
  star_probability : float;
}

val default : params

val generate : ?params:params -> Splitmix.t -> Regex.t
