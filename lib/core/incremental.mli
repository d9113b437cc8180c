(** Incremental join-result-size estimation (step 6 of Algorithm ELS,
    Section 7).

    The estimator mirrors what a join-ordering optimizer does: start from
    one table, extend the intermediate result one table at a time, and
    estimate the size after each extension. At each step the {e eligible}
    join predicates — those linking the incoming table to tables already in
    the intermediate result — are grouped by equivalence class, each class
    contributes a single combined selectivity according to the configured
    {!Estimator.t} (Rule M: product of all; SS: smallest; LS: largest), and
    classes multiply together by independence.

    [size(I ⋈ R) = size(I) × ‖R‖′ × ∏_classes S_class].

    An estimator with a per-step cardinality cap ({!Estimator.cap}, e.g.
    the pessimistic degree-1 bound) additionally bounds each
    predicate-connected step's output by [cap ~left_rows ~right_rows];
    cartesian steps are never capped.

    This is the inner loop of exact DP enumeration (2ⁿ subsets), so the
    state carries the joined set as an int bitset over the profile's
    canonical table → bit mapping, eligibility is an O(degree) probe of the
    profile's per-table predicate index, and per-class selectivities come
    from the profile's memo caches.

    Three implementation tiers produce bit-identical numbers and serve as
    each other's differential baselines: when the profile carries a
    compiled {!Kernel} (the default; see {!Profile.kernel}),
    {!step_selectivity}/{!extend}/{!join_states} dispatch to its
    allocation-free step engine whenever no derivation sink is attached;
    otherwise they run the indexed interpreter below; and the pre-index
    list-scan implementation is kept as
    {!eligible_scan}/{!step_selectivity_scan}, the reference oracle of the
    differential property tests. *)

type state = {
  mask : int;
      (** bitset of the tables in the intermediate result, over
          {!Profile.table_bit}'s canonical mapping *)
  size : float;  (** estimated cardinality of the intermediate result *)
  rev_history : float list;
      (** size after each extension, {e newest} first (O(1) extension);
          empty for a single table. Use {!history} for the oldest-first
          view. *)
}

val joined : Profile.t -> state -> string list
(** Tables in the intermediate result, in canonical (FROM) order. *)

val history : state -> float list
(** Size after each extension, oldest first; empty for a single table. *)

val start : Profile.t -> string -> state
(** Intermediate result consisting of one base table; size is its effective
    cardinality [‖R‖′]. *)

val eligible : Profile.t -> state -> string -> Query.Predicate.t list
(** Join predicates of the working conjunction linking the given table to
    the current intermediate result, in conjunction order. *)

val step_selectivity : Profile.t -> state -> string -> float
(** Combined selectivity the configured estimator assigns to joining the
    given table next; 1.0 for a cartesian product. Selectivity only — a
    per-step {!Estimator.cap} shows up in {!extend}'s size, not here. *)

val extend : Profile.t -> state -> string -> state
(** Join one more table.
    @raise Invalid_argument when the table is already in the result.
    @raise Not_found when it is not part of the profiled query. *)

val eligible_between : Profile.t -> state -> state -> Query.Predicate.t list
(** Join predicates of the working conjunction linking the two (disjoint)
    intermediate results. *)

val join_states : Profile.t -> state -> state -> state
(** Generalization of {!extend} to bushy joins: combine two intermediate
    results, applying one estimator-combined selectivity per equivalence
    class among the predicates that bridge them.
    [size(I₁ ⋈ I₂) = size(I₁) × size(I₂) × ∏_classes S_class].
    @raise Invalid_argument when the two states share a table. *)

val estimate_order : Profile.t -> string list -> state
(** Fold {!start}/{!extend} over a complete join order.
    @raise Invalid_argument on the empty list. *)

val final_size : Profile.t -> string list -> float
(** Estimated size of the full join along the given order. *)

(** {2 Reference list-scan baseline}

    The pre-index implementation over an explicit joined-table list,
    scanning the entire working conjunction per call. Kept as the oracle
    of the differential property tests; produces exactly the same
    predicates and selectivities as the indexed path. *)

val eligible_scan :
  Profile.t -> string list -> string -> Query.Predicate.t list
(** [eligible_scan profile joined name] — O(#predicates × #joined). *)

val step_selectivity_scan : Profile.t -> string list -> string -> float
(** Uncached grouping and estimator combination over {!eligible_scan}. *)
