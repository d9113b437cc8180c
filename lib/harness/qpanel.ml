type row = {
  scenario : string;
  predicate : string;
  estimator : string;
  algorithm : string;
  join_order : string list;
  estimates : float list;
  estimate : float;
  truth : float;
  q : Accuracy.q_error;
}

let join_predicate_string query =
  String.concat " AND "
    (List.filter_map
       (fun p ->
         if Query.Predicate.is_join p then Some (Query.Predicate.to_string p)
         else None)
       query.Query.predicates)

let run scenarios =
  List.concat_map
    (fun (scenario, spec) ->
      let db = spec.Datagen.Workload.db in
      let query = spec.Datagen.Workload.query in
      let order = query.Query.tables in
      let truth =
        float_of_int
          (Exec.Executor.run_query db query).Exec.Executor.row_count
      in
      let predicate = join_predicate_string query in
      List.map
        (fun est ->
          let config = Els.Config.of_estimator est in
          let state =
            Els.Incremental.estimate_order (Els.prepare config db query) order
          in
          (* The final size is the state's, not the history's last element:
             a one-table order has no join step, so its history is empty
             while its size is the table's row count. *)
          let estimate = state.Els.Incremental.size in
          {
            scenario;
            predicate;
            estimator = Els.Estimator.label est;
            algorithm = Els.Config.name config;
            join_order = order;
            estimates = Els.Incremental.history state;
            estimate;
            truth;
            q = Accuracy.q_error ~est:estimate ~truth;
          })
        (Els.Estimator.registry ()))
    scenarios

let pass rows =
  rows <> []
  && List.for_all
       (fun r -> match r.q with Accuracy.Finite _ -> true | _ -> false)
       rows

let q_cell = function
  | Accuracy.Finite q -> Report.float_cell q
  | Accuracy.Infinite -> "inf"
  | Accuracy.Undefined -> "undef"

let render rows =
  Report.table
    ~header:
      [
        "Scenario"; "Join Predicate"; "Estimator"; "Algorithm"; "Join Order";
        "Estimated Sizes"; "Estimate"; "True"; "q-error";
      ]
    (List.map
       (fun r ->
         [
           r.scenario;
           r.predicate;
           r.estimator;
           r.algorithm;
           String.concat " ⋈ " r.join_order;
           Report.size_list r.estimates;
           Report.float_cell r.estimate;
           Report.float_cell r.truth;
           q_cell r.q;
         ])
       rows)

(* --- scenario lists ------------------------------------------------------

   Each list derives its scenarios' seeds from one base seed, so the
   panels print the same numbers run after run. *)

let seed = 42

let section8_spec ~scale ~seed =
  {
    Datagen.Workload.db = Datagen.Section8.build ~scale ~seed ();
    query = Datagen.Section8.query_scaled ~scale;
    true_size = None;
  }

(* F10: the estimator seam made visible — the paper's Section 8 workload
   alone, one row per registered estimator. *)
let section8 ~scale = [ ("section8", section8_spec ~scale ~seed) ]

(* F14: one generated workload per scenario: a pure inequality join, a
   band join, and a mixed chain (equality link then inequality link). All
   use integer join columns with domains starting at 1, so the comparison
   always overlaps and the executed truth is positive — every q-error in
   the panel is expected to be finite. *)
let comparison () =
  [
    ("lt", Datagen.Workload.comparison ~seed ~n_tables:2 ());
    ( "ge",
      Datagen.Workload.comparison ~op:Query.Predicate.Ge ~seed:(seed + 1)
        ~n_tables:2 () );
    ( "band",
      Datagen.Workload.comparison
        ~op:(Query.Predicate.Band 2.5)
        ~seed:(seed + 2) ~n_tables:2 () );
    ("mixed", Datagen.Workload.comparison ~seed:(seed + 3) ~n_tables:3 ());
  ]

(* F16: three workload families where the degree-statistics estimators
   are interesting:
   - a key-join chain (distinct = rows): every degree is 1, so the
     Lp-norm caps coincide with min-rows and bound the truth tightly;
   - a skewed star (Zipf fact keys): heavy hitters break the uniform
     model, which is exactly what the tracked top-k degrees and the L2/L∞
     norms see;
   - the paper's Section 8 workload, for continuity with T1/F10.
   All three produce non-empty results by construction (key domains are
   contained, the Section 8 restriction keeps at least one row at every
   scale), so every q-error is expected to be finite. *)
let degree ~scale =
  [
    ( "key-chain",
      Datagen.Workload.chain ~rows_range:(200, 800)
        ~distinct_range:(10_000, 10_000) ~seed ~n_tables:3 () );
    ( "skew-star",
      Datagen.Workload.star ~fact_rows:2000 ~dim_rows_range:(50, 200)
        ~distinct_range:(20, 50)
        ~distribution:(Datagen.Distribution.Zipf 1.2)
        ~seed:(seed + 1) ~n_dims:2 () );
    ("section8", section8_spec ~scale ~seed:(seed + 2));
  ]
