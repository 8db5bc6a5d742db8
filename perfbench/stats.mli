(** Order statistics and fits the benchmark reports. *)

val median : float list -> float
(** Middle value (mean of the two middle values for an even count);
    [nan] for the empty list. *)

val tail_percentile : ?min_beyond:int -> float list -> (float * float) option
(** The highest of the percentiles 99.99, 99.9, 99, 95, 90, 75 and 50
    that still has at least [min_beyond] (default 10) samples above its
    nearest-rank position, as [(percentile, value)].  [None] when even
    the median has fewer samples beyond it. *)

val slope : (float * float) list -> float
(** Least-squares slope of [y] over [x] for [(x, y)] points; [0.] when
    fewer than two distinct [x] values are given. *)
