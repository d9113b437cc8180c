(** Estimation profiles: per-table effective statistics (steps 1–5 of
    Algorithm ELS).

    Building a profile performs, in order:

    + duplicate-predicate elimination and equivalence-class construction
      (step 1);
    + transitive closure when the configuration asks for it (step 2);
    + local-predicate selectivities, combining multiple predicates per
      column (step 3);
    + effective table cardinality [‖R‖′] and effective column cardinalities
      [d′] — the predicated column directly ([d×s], or 1 for an equality),
      every other column through the urn model (step 4, Section 5);
    + the single-table j-equivalent column treatment when configured
      (step 5, Section 6): for each table whose columns [c₁…cₙ] (n ≥ 2)
      share an equivalence class, [‖R‖′] is divided by the product of all
      but the smallest [d′] and the class is represented by a single
      effective join cardinality [⌈d₍₁₎·(1−(1−1/d₍₁₎)^‖R‖′)⌉]. Without that
      configuration, each intra-table column equality contributes the
      classic [1/max(d₁,d₂)] factor to [‖R‖′] instead.

    On top of those numbers the profile carries the {e hot-path indexes}
    step 6 (see {!Incremental}) probes on every enumerator step: a
    canonical table → bit mapping, per-table join-predicate adjacency
    lists, per-predicate equivalence-class roots resolved once at build
    time, and memoization caches for join and per-class selectivities with
    {!Exec.Counters}-style hit/miss observability. *)

type column_profile = {
  cref : Query.Cref.t;
  base_distinct : float;  (** d: catalog column cardinality *)
  local_distinct : float;
      (** d′ after local constant predicates and urn thinning *)
  join_distinct : float;
      (** cardinality to use in join selectivities; differs from
          [local_distinct] only under the Section 6 treatment *)
  d_source : string;
      (** which statistic shaped [local_distinct] — the derivation card's
          d′ provenance, e.g. ["equality(mcv)"], ["range(histogram)"],
          ["urn"], ["single-table(urn)"]. Observation only: never read by
          the estimator. *)
  col_stats : Stats.Col_stats.t;
      (** the catalog statistics behind the numbers above (trivial when
          the catalog had none) — the CDF source for comparison-join
          selectivities *)
}

type table_profile = {
  name : string;  (** the query alias *)
  source : string;  (** the catalog table behind the alias *)
  base_rows : float;  (** ‖R‖ *)
  rows : float;  (** ‖R‖′: effective cardinality after local predicates *)
  local_selectivity : float;  (** rows / base_rows (0 when base is 0) *)
  columns : column_profile Query.Cref.Map.t;
}

type pred_info = {
  pred : Query.Predicate.t;
  id : int;  (** position in {!field-predicates}; the memo-cache key *)
  root : Query.Cref.t;
      (** equivalence-class root of the predicate's columns, resolved once
          at profile build *)
  endpoints : (int * int) option;
      (** the two table bits of a join predicate; [None] for locals *)
}

type cache_stats = {
  mutable sel_hits : int;
  mutable sel_misses : int;
  mutable group_hits : int;
  mutable group_misses : int;
  mutable eligible_probes : int;
      (** join predicates examined through the per-table index *)
  mutable kernel_fallbacks : int;
      (** estimation steps that wanted the compiled kernel but ran
          interpreted because the profile has no lowering (comparison
          join predicates, or a custom estimator) *)
}

type index = {
  table_names : string array;  (** bit → normalized table name *)
  table_bits : (string, int) Hashtbl.t;  (** normalized name → bit *)
  profiles : table_profile array;  (** bit → table profile *)
  pred_infos : pred_info array;  (** predicate id → resolved info *)
  join_pred_ids : int array;  (** every join predicate id, ascending *)
  join_preds_by_table : int array array;
      (** bit → ids of the join predicates with that table as an endpoint,
          ascending (= working-conjunction order) *)
  local_preds_by_table : Query.Predicate.t list array;
      (** bit → single-table local predicates, in conjunction order *)
}

(** Lifecycle of a profile's compiled estimation kernel (see {!Kernel}):
    compiled lazily on first use, opted out at {!build}, or unavailable
    because the estimator has no monomorphic lowering. *)
type kernel_slot =
  | Kernel_unbuilt  (** not compiled yet; {!kernel} will try *)
  | Kernel_disabled  (** [build ~kernel:false] — interpreted path only *)
  | Kernel_unsupported
      (** no lowering exists: the configured estimator is not one of the
          four built-in rules (its [combine] closure is arbitrary OCaml),
          or the working conjunction carries comparison join predicates
          (the kernel's step algebra is the equality rule); interpreted
          steps on such a profile bump [cache_stats.kernel_fallbacks] *)
  | Kernel_ready of Kernel.t

type t = {
  config : Config.t;
  predicates : Query.Predicate.t list;
      (** the working conjunction: closed iff [config.closure] *)
  classes : Eqclass.t;
  tables : (string * table_profile) list;  (** in FROM order *)
  index : index;
  memoize : bool;  (** consult the caches below (on by default) *)
  sel_cache : float array;
      (** predicate id → memoized join selectivity; NaN marks an unfilled
          slot (real selectivities live in [0, 1]) *)
  group_cache : (string * int list, float) Hashtbl.t;
      (** (estimator id, class-group predicate ids) → combined
          selectivity; keyed by estimator so {!with_estimator} can share
          the table across swaps *)
  stats : cache_stats;
  guard : Guard.t;
      (** invariant guard for every number this profile produces; its mode
          is [config.strictness] *)
  validation : Catalog.Validate.issue list;
      (** catalog-statistics issues found (and, under [Repair], fixed)
          while building the profile; empty under [Strict] (the first
          issue raises) *)
  annotations : string list;
      (** staleness notes inherited from the catalog epoch this profile
          was prepared against; stamped onto every derivation sink
          attached via {!set_derivation} *)
  mutable deriv : Obs.Derivation.t option;
      (** derivation sink; when set, {!Incremental} records each
          estimation step into it (see {!set_derivation}) *)
  mutable kernel : kernel_slot;
      (** compiled estimation kernel; access through {!kernel}, never the
          field (the accessor owns lazy compilation) *)
}

val normalize : string -> string
(** Canonical (lowercase) table-name normalization. Every name-keyed
    lookup in this module and {!Incremental} goes through it, so
    mixed-case callers cannot silently miss filters or predicates. *)

val build :
  ?memoize:bool ->
  ?kernel:bool ->
  ?trace:Obs.Trace.t ->
  ?annotations:string list ->
  Config.t ->
  Catalog.Db.t ->
  Query.t ->
  t
(** [memoize] defaults to [true]; pass [false] to recompute every
    selectivity (the caches are bit-transparent — see the property tests).
    [kernel] defaults to [true]; pass [false] to pin the profile to the
    interpreted estimation path (the kernel is bit-transparent too — the
    differential baselines and F12 compare the two).
    Catalog statistics of every referenced table are audited under
    [config.strictness] before use (see {!Catalog.Validate}).
    [trace] records a ["profile"] span with a ["validate"] child covering
    the catalog audit; tracing never changes any computed number.
    [annotations] (default empty) are staleness notes to stamp onto
    derivation sinks; they never influence a computed number either.
    @raise Invalid_argument when a query table is missing from the catalog
    or on more than 62 tables (bitset index limit).
    @raise Els_error.Error under [Strict] strictness when a referenced
    table carries corrupt statistics. *)

val build_result :
  ?memoize:bool ->
  ?kernel:bool ->
  ?trace:Obs.Trace.t ->
  ?annotations:string list ->
  Config.t ->
  Catalog.Db.t ->
  Query.t ->
  (t, Els_error.t) result
(** [build] with failures reified: corrupt statistics under [Strict]
    become [Error (Corrupt_stats _)], unknown tables and structural limits
    become [Error (Invalid_query _)]. Never raises. *)

val table : t -> string -> table_profile
(** @raise Not_found for tables outside the query. *)

val table_count : t -> int

val table_bit : t -> string -> int
(** Bit of the (normalized) table in the canonical table → bit mapping.
    @raise Not_found for tables outside the query. *)

val table_name : t -> int -> string
val table_at : t -> int -> table_profile

val pred_count : t -> int
val pred : t -> int -> pred_info

val scan_filters : t -> string -> Query.Predicate.t list
(** The single-table local predicates of the working conjunction pushed
    into the scan of the given table, via the per-table index.
    @raise Not_found for tables outside the query. *)

val join_card : t -> Query.Cref.t -> float
(** Column cardinality entering join-selectivity computation:
    [join_distinct] under a local-aware configuration, [base_distinct]
    under the standard algorithm. *)

val column_stats : t -> Query.Cref.t -> Stats.Col_stats.t
(** The catalog statistics of a predicate column (trivial statistics for
    columns the query never predicates on) — the CDF inputs of
    comparison-join selectivities. *)

val selectivity_of_cards : float -> float -> float
(** [min 1 (1 / max d1 d2)]; 0 when either side is 0 (a contradicted
    column joins nothing). Equation 2 of the paper. *)

val comparison_selectivity :
  t -> left:Query.Cref.t -> op:Query.Predicate.comparison ->
  right:Query.Cref.t -> float
(** Raw (unguarded, uncached) selectivity of one column comparison:
    [Eq] is the paper's [1/max(d1, d2)] over effective cardinalities;
    inequality and band operators go through the histogram-CDF
    convolution of {!Stats.Selectivity_est} — the rule-2d
    generalization. *)

val join_selectivity : t -> int -> float
(** Selectivity of the join predicate with the given id, memoized in
    [sel_cache] when [memoize] is set.
    @raise Invalid_argument for a local predicate id. *)

val class_selectivity : t -> int list -> float
(** Estimator-combined selectivity of one equivalence-class group of
    eligible join predicates (given by id, in conjunction order), memoized
    in [group_cache] (keyed by estimator id) when [memoize] is set. *)

val estimator : t -> Estimator.t
(** The configuration's estimator. *)

val with_estimator : Estimator.t -> t -> t
(** Swap the estimator without rebuilding: the effective statistics,
    indexes and per-predicate selectivity cache are estimator-independent
    and shared; only [group_cache] entries (keyed by estimator id) differ.
    Note the pipeline toggles (closure, local-awareness, single-table) are
    baked into the built statistics and stay as configured. *)

val cache_stats : t -> cache_stats
val reset_cache_stats : t -> unit
val pp_stats : Format.formatter -> cache_stats -> unit

val guard : t -> Guard.t
val guard_stats : t -> Guard.stats
(** Invariant violations / repairs / fallbacks observed so far by this
    profile's guard (catalog repairs count here too). *)

val validation_issues : t -> Catalog.Validate.issue list
(** Catalog issues found while building, in table order. *)

val kernel : t -> Kernel.t option
(** The profile's compiled estimation kernel, compiling it on first call:
    [None] when compilation is disabled ([build ~kernel:false]) or the
    estimator has no monomorphic lowering (custom registry entries).
    {!Incremental} dispatches to it whenever no derivation sink is
    attached; every number it produces is bit-identical to the
    interpreted path. *)

val kernel_steps : t -> int
(** Estimation steps executed through the compiled kernel so far (0 when
    none is compiled) — published by {!Harness.Obs_report} next to the
    cache counters, which the kernel path does not touch. *)

val note_kernel_fallback : t -> unit
(** Called by {!Incremental} when an estimation step runs interpreted:
    bumps [cache_stats.kernel_fallbacks] only when the profile {e has no}
    kernel lowering (comparison join predicates or a custom estimator) —
    derivation-recording passes and explicit [~kernel:false] opt-outs are
    not fallbacks. *)

val kernel_fallback_steps : t -> int
(** Value of the fallback counter — published by {!Harness.Obs_report} as
    ["profile.kernel.fallback_steps"]. *)

val set_derivation : t -> Obs.Derivation.t option -> unit
(** Attach (or detach, with [None]) a derivation sink. While attached,
    every {!Incremental} estimation step appends a
    {!Obs.Derivation.step} describing the classes, rules, input
    selectivities and d′ provenance behind its output. Attach only around
    a single estimation pass — during DP enumeration the same profile
    serves thousands of candidate steps. Observation only: recording
    never changes any computed number. *)

val derivation : t -> Obs.Derivation.t option
