(** Small statistics toolkit for the experiment harness: summarising
    repeated randomized runs and fitting the scaling exponents that the
    paper's theorems predict. *)

type summary = {
  n : int;
  mean : float;
  stddev : float;
      (** {e population} standard deviation (divides the squared
          deviations by [n], not [n-1]): the trials summarised here are
          the whole population of a fixed seed schedule, not a sample
          from a larger one. [0.] for a singleton. *)
  min : float;
  max : float;
  median : float;
}

val summarize : float list -> summary
(** @raise Invalid_argument on the empty list. *)

val percentile : float list -> float -> float
(** [percentile xs p] with [p] in [\[0, 100\]], linear interpolation.
    @raise Invalid_argument on the empty list. *)

val mean : float list -> float

val log_log_slope : (float * float) list -> float
(** Least-squares slope of [log y] against [log x]: the empirical scaling
    exponent of a measured quantity. Points with non-positive coordinates
    are dropped. @raise Invalid_argument
    ["Stats.log_log_slope: <k> usable points after filtering"] when the
    filtering leaves fewer than two points — the count names how many
    survived, so a slope over all-degenerate data fails with the actual
    cause. @raise Invalid_argument ["Stats.log_log_slope: degenerate x"]
    when every usable point has the same [x]. *)
