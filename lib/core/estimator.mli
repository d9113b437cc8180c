(** First-class selectivity estimators.

    The paper treats Rules M, SS and LS (Section 7) as interchangeable
    strategies for combining the eligible join selectivities of one
    equivalence class. This module lifts that idea into a value: an
    estimator is a record describing its class fold and its per-step cap
    as data, with a stable identity, and every consumer — {!Kernel}, the
    optimizers and the harness panels — works against this seam.

    Estimators live in a fixed registry so experiment panels, the CLI
    [--estimator] flag and report labels all draw from one source of
    truth. *)

type flags = {
  closure : bool;  (** run predicate transitive closure by default *)
  local_aware : bool;  (** use post-local-predicate cardinalities *)
  single_table : bool;  (** Section 6 single-table j-equivalence *)
}
(** The pipeline toggles an estimator expects in its canonical
    configuration ({!Config.of_estimator}). They are defaults, not
    requirements: a {!Config.t} may override any of them. *)

type step_input = {
  left_rows : float;  (** effective size of the already-joined side *)
  right_rows : float;  (** effective size of the newly-joined side *)
  degrees : (Stats.Degree.t * Stats.Degree.t) list;
      (** one pair per bridging {e equality} predicate whose endpoint
          columns both carry ANALYZE-collected degree sequences, ordered
          (already-joined side, newly-joined side). Comparison predicates
          and catalog-supplied columns contribute no pair, so caps must
          degrade gracefully on an empty list. *)
}
(** Everything a per-step cap may consult. The degree statistics are the
    {e base tables}' ({!Stats.Degree} on {!Stats.Col_stats.degree}):
    exact for a two-way step, a heuristic for later steps whose left
    input is an intermediate result. *)

(** How one equivalence class folds its eligible join selectivities into
    a single factor. The seeds are part of the results' bit identity. *)
type fold =
  | Product  (** Rule M: the product, folded from 1.0 *)
  | Smallest  (** Rule SS: the minimum, folded from 1.0 *)
  | Largest  (** Rule LS: the maximum, seeded with the first member *)
  | Unit  (** every class contributes 1: the estimate lives in the cap *)

(** Per-step output-cardinality cap. Applied only to predicate-connected
    steps — a cartesian step has no join predicate to justify a bound. *)
type cap =
  | No_cap
  | Min_rows  (** [min(‖R1‖′, ‖R2‖′)], the degree-1 Lp-norm bound *)
  | Degree of {
      bound : step_input -> float;
          (** the cap, from the step's degree statistics; must degrade
              gracefully on an empty [degrees] list *)
      note : step_input -> string;
          (** derivation-card provenance: names the statistic the cap
              read (e.g. which degree norm, or min-rows when degraded).
              Observability only — never consulted by the value path. *)
    }

type t = {
  id : string;
      (** stable lowercase identifier; registry key and CLI name. Never
          rename an id: scripts and derivation cards depend on it. *)
  label : string;  (** short display name used in report tables *)
  summary : string;  (** one-line description for help output *)
  fold : fold;
  cap : cap;
  flags : flags;
}
(** An estimator is data: the compiled {!Kernel} matches on [fold] and
    [cap], so any record — a registry entry or a copy of one under a new
    id — runs on the same step engine. *)

val id : t -> string
val label : t -> string

val equal : t -> t -> bool
(** Identity is the [id] string — never structural equality, which would
    raise on the closures inside a [Degree] cap. *)

val combine : t -> float list -> float
(** The estimator's [fold] over one class's selectivities, as a list fold;
    the empty list combines to 1. The reference the list-scan oracle
    ({!Incremental.step_selectivity_scan}) and derivation replay use. *)

val cap_bound : t -> step_input -> float option
(** The cap's value on a step; [None] for [No_cap]. *)

val cap_note : t -> step_input -> string option
(** The cap's derivation-card provenance; [None] for [No_cap]. *)

val m : t
(** Rule M (multiplicative): the product of the class's selectivities. *)

val ss : t
(** Rule SS: the smallest selectivity of the class. *)

val ls : t
(** Rule LS: the largest selectivity of the class. *)

val pess : t
(** Pessimistic per-step upper bound: classes combine to 1 and each
    predicate-connected step is capped at [min(|R1|', |R2|')] — the
    cross-product-free degree-1 specialization of the Lp-norm
    degree-sequence bounds (Abo Khamis & Olteanu). On key-join chains it
    coincides with the true size; elsewhere it is a cheap sanity bound
    rather than an estimate. *)

val lp2 : t
(** AGM/Lp-norm step cap [min(|R1|', |R2|', L2(a)·L2(b))]: the
    Cauchy–Schwarz join-size bound from the bridging columns' degree
    L2 norms (Join Size Bounds using Lp-Norms on Degree Sequences). With
    no degree statistics on a step it degrades to PESS's min-rows. *)

val degseq : t
(** Degree-sequence two-approximation (Instance Optimal Join Size
    Estimation): per step, the pairwise product of the two descending
    degree sequences — top-k entries exactly, tails capped by
    [min(tail-mass·tail-max)] ({!Stats.Degree.join_bound}), min over the
    bridging predicates. Degrades to min-rows without degree stats. *)

val ent : t
(** Entropy-style max-degree bound: per step
    [min(|R1|'·L∞(b), |R2|'·L∞(a))] — the two-relation degenerate form of
    the polymatroid/entropic bounds (Information Theory Strikes Back):
    every left row matches at most the right column's max degree.
    Degrades to min-rows without degree stats. *)

val registry : unit -> t list
(** The fixed registry: the built-ins [m], [ss], [ls], [pess], then the
    degree-statistics family [lp2], [degseq], [ent]. *)

val ids : unit -> string list
(** The registered ids, in registry order. *)

val find : string -> t option
(** Case-insensitive lookup by [id] or [label]. *)

val of_string : string -> (t, string) result
(** Like {!find}, but an unknown name yields a one-line message listing
    the registered ids with a did-you-mean suggestion
    ({!Catalog.Suggest}). *)

val of_string_exn : string -> t
(** @raise Invalid_argument with the {!of_string} message. *)
