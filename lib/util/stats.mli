(** Descriptive statistics and goodness-of-fit helpers. *)

val mean : float array -> float
val variance : float array -> float
val stddev : float array -> float
val min_max : float array -> float * float

(** Type-7 interpolated quantile of the sample; [q] in [\[0, 1\]]. *)
val quantile : float array -> float -> float

val median : float array -> float

(** Pearson chi-square statistic of integer counts against expectations. *)
val chi_square : observed:int array -> expected:float array -> float

(** Approximate critical value at significance 0.001 (Wilson-Hilferty). *)
val chi_square_critical : df:int -> float

(** |truth - estimate| / |truth|; 0 when both are 0, infinite otherwise. *)
val relative_error : truth:float -> estimate:float -> float

type summary = {
  count : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
  p50 : float;
  p95 : float;
}

val summarize : float array -> summary
