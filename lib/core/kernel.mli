(** Compiled, allocation-free estimation kernels — the one step engine.

    Step 6 of Algorithm ELS is one rule,
    [size(I ⋈ R) = size(I) · ‖R‖′ · ∏ S_class] with an optional cap. A
    kernel lowers everything that rule needs into flat int/float arrays
    once, at {!Els.prepare} time (a policy compiler flattening structure
    into flow tables):

    - class roots interned as dense int ids — every equality predicate
      of one equivalence class shares an id, each comparison or band
      predicate gets its own — so no [Cref.t] keys reach the step loop;
    - per-table join-predicate adjacency in CSR layout, each slot carrying
      the precomputed bitmask of the predicate's {e other} endpoint;
    - per-predicate join selectivities in one float array (guard-clamped
      at compile by the memoized {!Profile.join_selectivity});
    - the estimator's {!Estimator.fold} and {!Estimator.cap}, matched on
      as data.

    M/SS/LS/PESS steps run with {e zero minor-heap allocation}: class
    accumulation uses stamped scratch arrays owned by the kernel, guard
    checks are inlined on the in-range path, and the [*_into] entry points
    keep every float inside one frame (no boxed returns). A [Degree] cap
    builds its oriented {!Estimator.step_input} out of line. Only
    invariant {e breaches} leave the fast path, calling the shared
    {!Guard} so error messages, strictness semantics and violation
    counters are the same everywhere.

    Every number a kernel produces is bit-identical to the list-scan
    reference ({!Incremental.step_selectivity_scan} with the estimator's
    cap) — enforced by the golden hex-float captures and the kernel =
    list-scan QCheck differential.

    Kernels are compiled by {!Profile.kernel}; this module only owns the
    data layout and the step engine, so it stays independent of profile
    construction. A kernel is mutable scratch state owned by its profile,
    so a profile (and its kernel) belongs to one domain at a time. *)

type t

val make :
  rows:float array ->
  adj_off:int array ->
  adj_pred:int array ->
  adj_other_mask:int array ->
  pred_sel:float array ->
  pred_class:int array ->
  pred_mask_a:int array ->
  pred_mask_b:int array ->
  pred_degrees:(Stats.Degree.t * Stats.Degree.t) option array ->
  n_classes:int ->
  estimator:Estimator.t ->
  guard:Guard.t ->
  t
(** Assemble a kernel from compiled arrays (normally via
    {!Profile.kernel}, not directly):
    [rows.(bit)] is table [bit]'s effective cardinality ‖R‖′;
    [adj_off]/[adj_pred]/[adj_other_mask] is the CSR adjacency — table
    [bit]'s join predicates are slots [adj_off.(bit) .. adj_off.(bit+1)-1]
    in working-conjunction order, [adj_pred] the dense predicate index,
    [adj_other_mask] the bitmask of the predicate's other endpoint;
    [pred_sel]/[pred_class]/[pred_mask_a]/[pred_mask_b]/[pred_degrees] are
    per-predicate (dense index, ascending conjunction order);
    [pred_degrees.(p)] pairs the degree statistics of the columns on
    endpoints a and b of an equality predicate (read by [Degree] caps).
    @raise Invalid_argument on inconsistent array lengths. *)

val table_count : t -> int
val table_rows : t -> int -> float
(** ‖R‖′ of the table at the given bit. *)

val steps : t -> int
(** Estimation steps executed through this kernel so far (extends, joins
    and step-selectivity probes) — the denominator of the
    allocations-per-step metric F12 and {!Harness.Obs_report} publish. *)

val connected : t -> mask:int -> bit:int -> bool
(** Does any join predicate link table [bit] to the tables of [mask]?
    O(degree), allocation-free. *)

val step_selectivity : t -> mask:int -> bit:int -> float
(** Combined selectivity of joining table [bit] into the intermediate
    result [mask]: per-class accumulation in first-occurrence order,
    classes multiplied together. *)

val extend_size : t -> mask:int -> bit:int -> size:float -> float
(** Output cardinality of joining table [bit] into an intermediate result
    of [size] rows over [mask]: [size × ‖R‖′ × ∏ S_class], capped on
    predicate-connected steps, guarded against the cartesian upper bound
    (the guard site is ["Incremental.extend"]). *)

val join_size :
  t -> mask1:int -> mask2:int -> size1:float -> size2:float -> float
(** {!extend_size} generalized to two intermediate results (bushy joins):
    one combined selectivity per class among the predicates bridging the
    two (disjoint) masks (the guard site is ["Incremental.join_states"]). *)

val start_into : t -> sizes:float array -> bit:int -> unit
(** [sizes.(1 lsl bit) <- ‖R‖′] — seed one single-table state of a DP
    size table indexed by mask. Allocation-free. *)

val extend_into : t -> sizes:float array -> mask:int -> bit:int -> unit
(** [sizes.(mask lor (1 lsl bit)) <- extend_size ~mask ~bit
    ~size:sizes.(mask)], with every float kept inside the call frame — the
    zero-allocation DP entry point for every estimator without a
    [Degree] cap (measured, not assumed: the F12 experiment and the
    kernel test suite assert a 0 [Gc.minor_words] delta per step after
    warmup). *)

(** {2 Read-back of the last step}

    After {!extend_size}, {!extend_into} or {!join_size}, the kernel's
    scratch state still describes that step. The derivation recorder
    reads it back instead of recomputing anything, so a card never
    re-runs {!Guard}. *)

val pred_selectivity : t -> int -> float
(** The compiled (guarded) join selectivity of a dense predicate index. *)

val step_classes : t -> (int list * float) list
(** The last step's classes in first-occurrence order: each class's
    member predicates (dense indices, ascending) and its guarded combined
    selectivity. Empty for a cartesian step. *)

val step_cap : t -> (float * string) option
(** The cap the last step applied and its {!Estimator.cap_note}
    provenance; [None] for a cartesian step or an uncapped estimator. *)
