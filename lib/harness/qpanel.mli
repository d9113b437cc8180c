(** The q-error panel: a scenario list crossed with every registered
    estimator, each estimate set against the executed truth — the one
    estimate-versus-truth engine of the harness.

    One row per (scenario, estimator) pair, the estimator under its
    canonical configuration ({!Els.Config.of_estimator}) and the join
    order the query's FROM order. The rows come straight from
    {!Els.Estimator.registry}, so a newly registered estimator shows up in
    every panel (and in the CLI's [--estimator] choices) without any
    harness change — the point of the estimator seam.

    Each scenario is executed once, prefix by prefix
    ({!Runner.true_prefix_sizes}), so every row carries the true size
    after each join next to the estimate after each join.

    Experiments F10, F14 and F16 are this engine over different scenario
    lists ({!section8}, {!comparison}, {!degree}); each list produces
    non-empty results by construction, so a sound estimator yields a
    finite q-error on every row — CI asserts exactly {!pass}. F1, F2, F6
    and F7 are the same engine over {!chains}, {!local_sweep}, {!mixed}
    and {!zipf_join}, each followed by its own aggregation of the rows. *)

type q_error =
  | Finite of float  (** [max(est/true, true/est)], both sides positive *)
  | Infinite  (** positive truth but a zero (or infinite) estimate *)
  | Undefined  (** empty true result, or a NaN input: no meaningful ratio *)
(** The q-error of a single estimate. The metric is undefined at zero
    truth and infinite at zero estimate; both cases are explicit variants
    rather than [nan]/[infinity] sentinels so aggregation can skip them
    instead of silently poisoning every percentile. *)

val q_error : est:float -> truth:float -> q_error

type row = {
  scenario : string;
  predicate : string;  (** the query's join predicates, rendered *)
  estimator : string;  (** {!Els.Estimator.label} *)
  algorithm : string;  (** {!Els.Config.name} of the canonical config *)
  join_order : string list;
  estimates : float list;  (** size after each join of the order *)
  estimate : float;
      (** final size; for a one-table order, the table's row count *)
  truths : float list;
      (** executed size after each join of the order, with all implied
          predicates ({!Runner.true_prefix_sizes}); [[]] for a one-table
          order *)
  truth : float;
      (** executed final size: the last of [truths], or the table's row
          count for a one-table order *)
  q : q_error;  (** of the final estimate *)
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

val chains :
  ?seeds:int list -> ?max_tables:int -> unit ->
  (string * Datagen.Workload.spec) list
(** F1: random chain queries of n = 2..[max_tables] tables, one per
    seed, table-count-major. After closure all join columns fall into one
    equivalence class — the redundant predicate sets on which the paper
    (and Ioannidis & Christodoulakis, its [4]) shows Rules M/SS blowing
    up. Every registry estimator's canonical configuration closes the
    predicate set. Defaults: seeds [1..10], max_tables 7. *)

val local_sweep :
  ?cutoffs:int list -> unit -> (string * Datagen.Workload.spec) list
(** F2 (Section 5): [r1.x = r2.y] with [d_x ≫ d_y] and a range predicate
    [x <= c], one scenario per cutoff [c], named by it. The standard
    algorithm keeps [1/max(d_x, d_y)] as the join selectivity whatever
    the local predicate did to [x]; ELS recomputes it from the effective
    [d′_x]. Defaults: cutoffs [10; 25; 50; 100; 250; 1000; 10000] on a
    10000-row R1 with d_x = 10000 and a 5000-row R2 with d_y = 100. *)

val mixed : ?seeds:int list -> unit -> (string * Datagen.Workload.spec) list
(** F6: per seed, one 4-table chain with a ~25% local range predicate on
    its first table's join column and one 3-dimension star. Defaults:
    seeds [1..8]. *)

val zipf_join :
  ?rows:int * int ->
  ?distinct:int ->
  ?thetas:float list ->
  unit ->
  (string * Datagen.Workload.spec) list
(** F7: two tables joined on columns drawn Zipf(θ), one scenario per θ,
    named by {!Report.float_cell} of θ. The paper relaxes uniformity only
    for local predicates and leaves join-column skew as future work; as θ
    grows, the uniform Equation 2 estimate drifts from the truth — the
    boundary of the paper's model, not a defect of Rule LS. Defaults:
    20000 and 10000 rows, 500 distinct values on both sides,
    θ ∈ [0; 0.5; 1.0; 1.5]. *)

(** {2 Aggregations} *)

type growth = {
  n_tables : int;
  rule : string;  (** the estimator's {!Els.Estimator.label} *)
  geo_mean_ratio : float;  (** geometric mean of estimate / true *)
  worst_ratio : float;  (** most extreme underestimate *)
}

val growth : row list -> growth list
(** F1: per (table count, estimator), in first-appearance order, over
    the rows with a positive truth. *)

val render_growth : growth list -> string

type summary = {
  algo : string;  (** the rows' [algorithm] *)
  queries : int;  (** queries with a finite q-error *)
  median_q : float;
  p90_q : float;
  max_q : float;
  underestimated : float;
      (** fraction of defined (non-[Undefined]) queries with est < true *)
  infinite : int;  (** queries whose q-error was {!Infinite} *)
  undefined : int;  (** queries skipped as {!Undefined} *)
}
(** Percentiles are computed over the finite q-errors only; the skipped
    cases are counted, not folded into the statistics. *)

val summarize : row list -> summary list
(** F6: one summary per algorithm, in first-appearance order. *)

val render_summary : summary list -> string

val render_sweep : row list -> string
(** F2: the [SM+PTC] (standard) and [ELS] estimates per scenario. *)

val render_zipf : row list -> string
(** F7: the [ELS] rows (Rules M/SS/LS agree on a single predicate), with
    est/true, or ["-"] when the true result is empty. *)
