(** The q-error panel: a scenario list crossed with every registered
    estimator, each estimate set against the executed truth.

    One row per (scenario, estimator) pair, the estimator under its
    canonical configuration ({!Els.Config.of_estimator}) and the join
    order the query's FROM order. The rows come straight from
    {!Els.Estimator.registry}, so a newly registered estimator shows up in
    every panel (and in the CLI's [--estimator] choices) without any
    harness change — the point of the estimator seam.

    Experiments F10, F14 and F16 are this engine over different scenario
    lists ({!section8}, {!comparison}, {!degree}); each list produces
    non-empty results by construction, so a sound estimator yields a
    finite q-error on every row — CI asserts exactly {!pass}. *)

type row = {
  scenario : string;
  predicate : string;  (** the query's join predicates, rendered *)
  estimator : string;  (** {!Els.Estimator.label} *)
  algorithm : string;  (** {!Els.Config.name} of the canonical config *)
  join_order : string list;
  estimates : float list;  (** size after each join of the order *)
  estimate : float;
      (** final size; for a one-table order, the table's row count *)
  truth : float;  (** executed final size *)
  q : Accuracy.q_error;  (** of the final estimate *)
}

val run : (string * Datagen.Workload.spec) list -> row list
(** Scenarios × registry, scenario-major, registry order within each. *)

val pass : row list -> bool
(** True when the panel is non-empty and every q-error is finite. *)

val render : row list -> string

(** {2 Scenario lists} *)

val section8 : scale:int -> (string * Datagen.Workload.spec) list
(** F10: the Section 8 workload alone, as ["section8"], shrunk by
    [scale] as in {!Section8_experiment.run}. *)

val comparison : unit -> (string * Datagen.Workload.spec) list
(** F14: ["lt"], ["ge"], ["band"] ([|a − b| <= 2.5]) and ["mixed"]
    (equality then inequality) joins, estimated by the histogram-CDF
    convolution of {!Stats.Selectivity_est} and executed by the
    generalized sort-merge. *)

val degree : scale:int -> (string * Datagen.Workload.spec) list
(** F16: ["key-chain"] (all degrees 1), ["skew-star"] (Zipf fact keys)
    and ["section8"] at [scale] — where the degree-statistics estimators
    [lp2], [degseq] and [ent] differ from the classic rules. *)
