type q_error =
  | Finite of float
  | Infinite
  | Undefined

let q_error ~est ~truth =
  if truth <= 0. || Float.is_nan truth || Float.is_nan est then Undefined
  else if est <= 0. || est = Float.infinity then Infinite
  else Float.max (est /. truth) (truth /. est) |> fun q -> Finite q

type row = {
  scenario : string;
  predicate : string;
  estimator : string;
  algorithm : string;
  join_order : string list;
  estimates : float list;
  estimate : float;
  truths : float list;
  truth : float;
  q : q_error;
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
      (* One execution per scenario: the last prefix is the whole query.
         A one-table order has no join prefix, so it runs the query. *)
      let truths = Runner.true_prefix_sizes db query order in
      let truth =
        match List.rev truths with
        | last :: _ -> last
        | [] ->
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
            truths;
            truth;
            q = q_error ~est:estimate ~truth;
          })
        (Els.Estimator.registry ()))
    scenarios

let pass rows =
  rows <> []
  && List.for_all
       (fun r -> match r.q with Finite _ -> true | _ -> false)
       rows

let q_cell = function
  | Finite q -> Report.float_cell q
  | Infinite -> "inf"
  | Undefined -> "undef"

let render rows =
  Report.table
    ~header:
      [
        "Scenario"; "Join Predicate"; "Estimator"; "Algorithm"; "Join Order";
        "Estimated Sizes"; "True Sizes"; "Estimate"; "True"; "q-error";
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
           Report.size_list r.truths;
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

(* F1: chains of 2..max_tables tables, table-count-major. Distinct counts
   stay high relative to rows so true sizes remain executable out to
   7-way joins. *)
let chains ?(seeds = List.init 10 (fun i -> i + 1)) ?(max_tables = 7) () =
  List.concat_map
    (fun n_tables ->
      List.map
        (fun seed ->
          ( Printf.sprintf "chain%d-s%d" n_tables seed,
            Datagen.Workload.chain ~rows_range:(100, 600)
              ~distinct_range:(50, 400) ~seed ~n_tables () ))
        seeds)
    (List.init (max 0 (max_tables - 1)) (fun i -> i + 2))

(* F2: one database, one scenario per cutoff of the local predicate. *)
let local_sweep ?(cutoffs = [ 10; 25; 50; 100; 250; 1000; 10000 ]) () =
  let rng = Datagen.Prng.create 7 in
  let db = Catalog.Db.create () in
  ignore
    (Datagen.Tablegen.register (Datagen.Prng.split rng) db ~table:"r1"
       ~rows:10000
       [ Datagen.Tablegen.key_column "x" ~rows:10000 ]);
  ignore
    (Datagen.Tablegen.register (Datagen.Prng.split rng) db ~table:"r2"
       ~rows:5000
       [ Datagen.Tablegen.column "y" ~distinct:100 ]);
  List.map
    (fun cutoff ->
      let query =
        Query.make ~projection:Query.Count_star ~tables:[ "r1"; "r2" ]
          [
            Query.Predicate.col_eq (Query.Cref.v "r1" "x")
              (Query.Cref.v "r2" "y");
            Query.Predicate.cmp (Query.Cref.v "r1" "x") Rel.Cmp.Le
              (Rel.Value.Int cutoff);
          ]
      in
      (string_of_int cutoff, { Datagen.Workload.db; query; true_size = None }))
    cutoffs

(* F6: one chain and one star specimen per seed; chains get a ~25% local
   range predicate on the first table's join column. Star dimension
   fan-outs stay small so the true star result is executable across many
   seeds. *)
let mixed ?(seeds = List.init 8 (fun i -> i + 1)) () =
  List.concat_map
    (fun seed ->
      let chain =
        Datagen.Workload.chain ~rows_range:(100, 400) ~distinct_range:(20, 120)
          ~seed ~n_tables:4 ()
      in
      let query = chain.Datagen.Workload.query in
      let t1 = List.hd query.Query.tables in
      let d =
        Catalog.Table.distinct
          (Catalog.Db.find_exn chain.Datagen.Workload.db t1)
          "a"
      in
      let local =
        Query.Predicate.cmp (Query.Cref.v t1 "a") Rel.Cmp.Le
          (Rel.Value.Int (max 1 (d / 4)))
      in
      [
        ( Printf.sprintf "chain-s%d" seed,
          {
            chain with
            Datagen.Workload.query =
              Query.with_predicates query (local :: query.Query.predicates);
          } );
        ( Printf.sprintf "star-s%d" seed,
          Datagen.Workload.star ~fact_rows:1000 ~dim_rows_range:(50, 150)
            ~distinct_range:(30, 100) ~seed ~n_dims:3 () );
      ])
    seeds

(* F7: the same seed for every θ, so the scenarios differ only in the
   join columns' skew. *)
let zipf_join ?(rows = (20000, 10000)) ?(distinct = 500)
    ?(thetas = [ 0.; 0.5; 1.0; 1.5 ]) () =
  let rows1, rows2 = rows in
  List.map
    (fun theta ->
      let rng = Datagen.Prng.create 19 in
      let db = Catalog.Db.create () in
      let distribution =
        if theta = 0. then Datagen.Distribution.Random_uniform
        else Datagen.Distribution.Zipf theta
      in
      List.iter
        (fun (table, rows) ->
          ignore
            (Datagen.Tablegen.register (Datagen.Prng.split rng) db ~table ~rows
               [ Datagen.Tablegen.column ~distribution "a" ~distinct ]))
        [ ("r1", rows1); ("r2", rows2) ];
      let query =
        Query.make ~projection:Query.Count_star ~tables:[ "r1"; "r2" ]
          [
            Query.Predicate.col_eq (Query.Cref.v "r1" "a")
              (Query.Cref.v "r2" "a");
          ]
      in
      ( Report.float_cell theta,
        { Datagen.Workload.db; query; true_size = None } ))
    thetas

(* --- aggregations --------------------------------------------------------- *)

(* Groups in first-appearance order, each keeping its rows' order. *)
let group_by key rows =
  List.fold_left
    (fun groups r ->
      let k = key r in
      if List.mem_assoc k groups then
        List.map
          (fun (k', rs) -> if k' = k then (k', r :: rs) else (k', rs))
          groups
      else (k, [ r ]) :: groups)
    [] rows
  |> List.rev_map (fun (k, rs) -> (k, List.rev rs))

type growth = {
  n_tables : int;
  rule : string;
  geo_mean_ratio : float;
  worst_ratio : float;
}

let growth rows =
  List.filter (fun r -> r.truth > 0.) rows
  |> group_by (fun r -> (List.length r.join_order, r.estimator))
  |> List.map (fun ((n_tables, rule), rs) ->
         (* Latest seed first: the summation order of the log-sum is part
            of the printed digits. *)
         let ratios = List.rev_map (fun r -> r.estimate /. r.truth) rs in
         let logs = List.map Float.log ratios in
         {
           n_tables;
           rule;
           geo_mean_ratio =
             Float.exp
               (List.fold_left ( +. ) 0. logs
               /. float_of_int (List.length logs));
           worst_ratio = List.fold_left Float.min Float.infinity ratios;
         })

let render_growth points =
  Report.table
    ~header:[ "#tables"; "rule"; "geo-mean est/true"; "worst est/true" ]
    (List.map
       (fun p ->
         [
           string_of_int p.n_tables;
           p.rule;
           Report.float_cell p.geo_mean_ratio;
           Report.float_cell p.worst_ratio;
         ])
       points)

type summary = {
  algo : string;
  queries : int;
  median_q : float;
  p90_q : float;
  max_q : float;
  underestimated : float;
  infinite : int;
  undefined : int;
}

let percentile sorted p =
  match sorted with
  | [||] -> nan
  | arr ->
    let n = Array.length arr in
    let idx = int_of_float (Float.round (p *. float_of_int (n - 1))) in
    arr.(max 0 (min (n - 1) idx))

let summarize rows =
  group_by (fun r -> r.algorithm) rows
  |> List.map (fun (algo, rs) ->
         let finite =
           List.filter_map
             (fun r -> match r.q with Finite q -> Some q | _ -> None)
             rs
         in
         let count p = List.length (List.filter p rs) in
         let infinite = count (fun r -> r.q = Infinite) in
         let undefined = count (fun r -> r.q = Undefined) in
         (* Undefined cases (empty truth, NaN) are excluded everywhere:
            percentiles run over the finite q-errors only, the
            underestimation share over queries where est vs truth is
            meaningful. *)
         let defined = List.length finite + infinite in
         let unders =
           count (fun r -> r.q <> Undefined && r.estimate < r.truth)
         in
         let sorted = Array.of_list finite in
         Array.sort Float.compare sorted;
         let n = Array.length sorted in
         {
           algo;
           queries = n;
           median_q = percentile sorted 0.5;
           p90_q = percentile sorted 0.9;
           max_q = (if n = 0 then nan else sorted.(n - 1));
           underestimated =
             (if defined = 0 then 0.
              else float_of_int unders /. float_of_int defined);
           infinite;
           undefined;
         })

let render_summary summaries =
  Report.table
    ~header:
      [
        "algorithm"; "queries"; "median q"; "p90 q"; "max q"; "under-est %";
        "inf"; "undef";
      ]
    (List.map
       (fun s ->
         [
           s.algo;
           string_of_int s.queries;
           Report.float_cell s.median_q;
           Report.float_cell s.p90_q;
           Report.float_cell s.max_q;
           Printf.sprintf "%.0f%%" (100. *. s.underestimated);
           string_of_int s.infinite;
           string_of_int s.undefined;
         ])
       summaries)

let rows_of algorithm rows =
  List.filter (fun r -> String.equal r.algorithm algorithm) rows

let render_sweep rows =
  Report.table
    ~header:[ "x <= c"; "standard est"; "ELS est"; "true size" ]
    (List.map2
       (fun sm els ->
         [
           els.scenario;
           Report.float_cell sm.estimate;
           Report.float_cell els.estimate;
           Printf.sprintf "%.0f" els.truth;
         ])
       (rows_of "SM+PTC" rows) (rows_of "ELS" rows))

let render_zipf rows =
  Report.table
    ~header:[ "theta"; "uniform-model est"; "true size"; "est/true" ]
    (List.map
       (fun r ->
         [
           r.scenario;
           Report.float_cell r.estimate;
           Printf.sprintf "%.0f" r.truth;
           (if r.truth = 0. then "-"
            else Report.float_cell (r.estimate /. r.truth));
         ])
       (rows_of "ELS" rows))
