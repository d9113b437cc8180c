(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation plus the supplementary figures listed in DESIGN.md, then runs
   bechamel micro-benchmarks (one Test.make per experiment).

   Experiments (ids from DESIGN.md):
     T1 — Section 8 table (the paper's only table)
     E1 — Examples 1b/2/3 (rules M / SS / LS)
     S5 — Section 5 urn-model numbers
     S6 — Section 6 single-table numbers
     F1 — error propagation vs number of joins (supplementary)
     F2 — local-predicate selectivity sweep (supplementary)
     F3 — plan quality on random chain queries (supplementary)
     F4 — skewed local predicates: uniform vs histogram vs MCV (supplementary)
     F5 — join-order enumerators: DP vs greedy vs randomized (supplementary)
     F6 — q-error study over mixed random workloads (supplementary)
     F7 — uniformity limits on skewed join columns (supplementary)
     F10 — estimator panel: every registered estimator side by side
           (supplementary)
     F11 — deadline/budget soak: anytime ladder under a 1 ms deadline on
           n=14 DP, node-budget cost sweep, randomized soak smoke
           (supplementary)
     F12 — compiled estimation kernel vs the list-scan reference on DP
           enumeration, with a Gc.minor_words allocation audit
           (supplementary)
     F13 — catalog churn: versioned epochs, partitioned re-ANALYZE and
           self-healing publishes under streamed deltas (supplementary)
     F14 — inequality/band joins: estimated vs executed truth
           (supplementary)
     F16 — degree-statistics estimators (LP2/DEGSEQ/ENT) vs executed truth
           on key chains, skewed stars and Section 8 (supplementary)

   Run with --quick to shrink T1/F1/F3 (used in CI-style smoke runs).
   Passing experiment ids (e.g. `bench/main.exe f12 micro`) runs only
   those. *)

let quick = Array.exists (String.equal "--quick") Sys.argv

let experiment_ids =
  [
    "t1"; "t1-ablation"; "e1"; "s5"; "s6"; "f1"; "f2"; "f3"; "f4"; "f5"; "f6";
    "f7"; "f10"; "f11"; "f12"; "f13"; "f14"; "f16"; "micro";
  ]

let selected =
  List.filter
    (fun id -> Array.exists (String.equal id) Sys.argv)
    experiment_ids

let wants id = selected = [] || List.mem id selected

let section title = Printf.printf "\n=== %s ===\n%!" title

let run_t1 () =
  section "T1: Section 8 experiment (paper's table)";
  let scale = if quick then 10 else 1 in
  if scale <> 1 then Printf.printf "(scaled down %dx)\n" scale;
  let rows = Harness.Section8_experiment.run ~scale () in
  print_string (Harness.Section8_experiment.render rows);
  print_newline ();
  print_endline "Paper reported:";
  print_string
    (Harness.Report.table
       ~header:
         [
           "Query"; "Algorithm"; "Join Order"; "Estimated Result Sizes";
           "Time (s)";
         ]
       (List.map
          (fun (q, a, o, est, t) ->
            [
              q; a; o;
              (if est = [] then "-" else Harness.Report.size_list est);
              Harness.Report.float_cell t;
            ])
          Harness.Section8_experiment.paper_rows))

(* Ablation: the same experiment when the optimizer may also use hash
   joins and index nested loops. Better access paths soften the damage of
   bad join orders, but the misestimates (and ELS's advantage) remain. *)
let run_t1_ablation () =
  section "T1-ablation: Section 8 with hash joins and index access enabled";
  let scale = if quick then 10 else 1 in
  let methods =
    [
      Exec.Plan.Nested_loop; Exec.Plan.Sort_merge; Exec.Plan.Hash;
      Exec.Plan.Index_nested_loop;
    ]
  in
  let rows = Harness.Section8_experiment.run ~scale ~methods () in
  print_string (Harness.Section8_experiment.render rows)

let run_e1 () =
  section "E1: Examples 1b/2/3 — rules M / SS / LS";
  print_string (Harness.Examples_tables.render_rules_table ())

let run_s5 () =
  section "S5: Section 5 urn-model example";
  print_string (Harness.Examples_tables.render_urn_table ())

let run_s6 () =
  section "S6: Section 6 single-table example";
  print_string (Harness.Examples_tables.render_single_table ())

let run_f1 () =
  section "F1: estimation error vs number of joins (geo-mean est/true)";
  let seeds = if quick then [ 1; 2; 3 ] else List.init 10 (fun i -> i + 1) in
  let max_tables = if quick then 5 else 7 in
  print_string
    (Harness.Error_propagation.render
       (Harness.Error_propagation.run ~seeds ~max_tables ()))

let run_f2 () =
  section "F2: local predicate vs join selectivity (Section 5 mechanism)";
  print_string (Harness.Local_sweep.render (Harness.Local_sweep.run ()))

let run_f3 () =
  section "F3: plan quality on random chain queries";
  let seeds = if quick then [ 1; 2 ] else List.init 5 (fun i -> i + 1) in
  let rows = Harness.Plan_quality.run ~seeds () in
  print_string (Harness.Plan_quality.render rows);
  print_endline "geo-mean work ratio per algorithm (1.0 = best plan found):";
  List.iter
    (fun (algo, geo) -> Printf.printf "  %-8s %.3f\n" algo geo)
    (Harness.Plan_quality.summarize rows)

let run_f5 () =
  section "F5: join-order enumerators (DP vs greedy vs randomized) under ELS";
  let seeds = if quick then [ 1; 2 ] else List.init 5 (fun i -> i + 1) in
  print_string (Harness.Enumerators.render (Harness.Enumerators.run ~seeds ()))

let run_f4 () =
  section "F4: skewed (Zipf) local predicates — uniform vs histogram vs MCV";
  print_string (Harness.Skew_accuracy.render (Harness.Skew_accuracy.run ()))

let run_f7 () =
  section "F7: uniformity-assumption limits on skewed join columns";
  let thetas = if quick then [ 0.; 1.0 ] else [ 0.; 0.5; 1.0; 1.5 ] in
  print_string (Harness.Skew_join.render (Harness.Skew_join.run ~thetas ()))

let run_f6 () =
  section "F6: q-error study over mixed random workloads";
  let seeds = if quick then [ 1; 2; 3 ] else List.init 8 (fun i -> i + 1) in
  print_string (Harness.Accuracy.render (Harness.Accuracy.run ~seeds ()))

(* F12: the compiled step engine — a DP-style enumeration over all 2ⁿ
   left-deep prefixes, comparing the list-scan reference (running size
   size × ‖R‖′ × Incremental.step_selectivity_scan: joined-table lists,
   whole-conjunction scans, uncached selectivities) against the compiled
   kernel (Kernel.extend_into over a flat float array of sizes: int masks
   in, floats out, zero minor-heap allocation per step). Both walk the
   same states in the same order and must agree on the full-join size
   bit-for-bit; the allocation claim is measured via Gc.minor_words and
   the run fails if the kernel path allocates. *)
let run_f12 () =
  section
    "F12: DP-enumeration hot path — compiled kernel vs list-scan reference";
  let sizes = if quick then [ 12 ] else [ 12; 14; 16 ] in
  let registry = Obs.Metrics.create () in
  Printf.printf "%-4s %12s %11s %8s %12s %16s\n" "n" "scan (s)"
    "kernel (s)" "speedup" "steps" "words/step";
  let failures = ref 0 in
  List.iter
    (fun n ->
      let chain =
        Datagen.Workload.chain ~rows_range:(100, 300) ~distinct_range:(20, 100)
          ~seed:1 ~n_tables:n ()
      in
      let db = chain.Datagen.Workload.db in
      let query = chain.Datagen.Workload.query in
      let profile = Els.prepare Els.Config.els db query in
      let kernel = Els.Profile.kernel profile in
      let names = Array.of_list query.Query.tables in
      let rows =
        Array.map
          (fun name -> (Els.Profile.table profile name).Els.Profile.rows)
          names
      in
      let full = (1 lsl n) - 1 in
      let by_size = Array.make (n + 1) [] in
      for mask = full downto 1 do
        let c = Rel.Bits.popcount mask in
        by_size.(c) <- mask :: by_size.(c)
      done;
      let joined mask =
        List.filteri (fun i _ -> mask land (1 lsl i) <> 0) (Array.to_list names)
      in
      (* List-scan reference: first write per mask wins. *)
      let t0 = Unix.gettimeofday () in
      let scan_sizes = Array.make (full + 1) Float.nan in
      for i = 0 to n - 1 do
        scan_sizes.(1 lsl i) <- rows.(i)
      done;
      for size = 1 to n - 1 do
        List.iter
          (fun mask ->
            if not (Float.is_nan scan_sizes.(mask)) then begin
              let joined = joined mask in
              for i = 0 to n - 1 do
                let mask' = mask lor (1 lsl i) in
                if mask land (1 lsl i) = 0 && Float.is_nan scan_sizes.(mask')
                then
                  scan_sizes.(mask') <-
                    scan_sizes.(mask) *. rows.(i)
                    *. Els.Incremental.step_selectivity_scan profile joined
                         names.(i)
              done
            end)
          by_size.(size)
      done;
      let scan_s = Unix.gettimeofday () -. t0 in
      (* Compiled kernel: one flat float array indexed by mask, NaN =
         not reached yet; the same traversal, so the same first write
         lands in each slot. Plain nested loops over mask arrays — the
         enumeration itself must not allocate either, or the audit below
         would blame the kernel for the harness's closures. *)
      let by_size_arr = Array.map Array.of_list by_size in
      let enumerate sizes_arr =
        Array.fill sizes_arr 0 (full + 1) Float.nan;
        for i = 0 to n - 1 do
          Els.Kernel.start_into kernel ~sizes:sizes_arr ~bit:i
        done;
        for size = 1 to n - 1 do
          let masks = by_size_arr.(size) in
          for j = 0 to Array.length masks - 1 do
            let mask = masks.(j) in
            if not (Float.is_nan sizes_arr.(mask)) then
              for i = 0 to n - 1 do
                if
                  mask land (1 lsl i) = 0
                  && Float.is_nan sizes_arr.(mask lor (1 lsl i))
                then
                  Els.Kernel.extend_into kernel ~sizes:sizes_arr ~mask ~bit:i
              done
          done
        done
      in
      let ksizes = Array.make (full + 1) Float.nan in
      enumerate ksizes (* warmup: fault in code paths before timing *);
      let steps0 = Els.Kernel.steps kernel in
      let t1 = Unix.gettimeofday () in
      enumerate ksizes;
      let ker_s = Unix.gettimeofday () -. t1 in
      let steps = Els.Kernel.steps kernel - steps0 in
      (* Allocation audit: an empty Gc.minor_words window measures the
         sampling overhead (the boxed float the call itself returns); a
         third enumeration must add exactly nothing on top of it. *)
      let w0 = Gc.minor_words () in
      let w1 = Gc.minor_words () in
      let overhead = w1 -. w0 in
      let w2 = Gc.minor_words () in
      enumerate ksizes;
      let w3 = Gc.minor_words () in
      let alloc_words = w3 -. w2 -. overhead in
      let words_per_step = alloc_words /. float_of_int steps in
      if not (Float.equal scan_sizes.(full) ksizes.(full)) then
        failwith "F12: kernel and list-scan reference disagree on the full join";
      let label suffix = Printf.sprintf "f12.n%d.%s" n suffix in
      Obs.Metrics.set (Obs.Metrics.gauge registry (label "speedup"))
        (scan_s /. ker_s);
      Obs.Metrics.set_counter
        (Obs.Metrics.counter registry (label "kernel_steps"))
        steps;
      Obs.Metrics.set
        (Obs.Metrics.gauge registry (label "alloc_words_per_step"))
        words_per_step;
      Printf.printf "%-4d %12.3f %11.3f %7.1fx %12d %16.6f\n" n scan_s ker_s
        (scan_s /. ker_s) steps words_per_step;
      (* Bytecode boxes every float, so the zero-allocation claim is only
         a native-code property — exactly like the unit test asserts. *)
      if Sys.backend_type = Sys.Native && alloc_words <> 0. then begin
        Printf.printf
          "FAIL: kernel enumeration allocated %.0f minor words (want 0)\n"
          alloc_words;
        incr failures
      end)
    sizes;
  Format.printf "%a" Obs.Metrics.pp (Obs.Metrics.snapshot registry);
  if !failures > 0 then exit 1

(* F10, F14, F16: one q-error panel engine (Harness.Qpanel) over three
   scenario lists — the Section 8 workload, inequality/band joins, and the
   degree-statistics workloads. Every scenario is non-empty by
   construction, so a non-finite q-error fails the run. *)
let run_panel id title scenarios =
  section title;
  let rows = Harness.Qpanel.run scenarios in
  print_string (Harness.Qpanel.render rows);
  if not (Harness.Qpanel.pass rows) then begin
    Printf.printf "%s FAILED: non-finite q-error in the panel\n" id;
    exit 1
  end

let run_f10 () =
  run_panel "F10" "F10: estimator panel over the Section 8 workload"
    (Harness.Qpanel.section8 ~scale:(if quick then 20 else 10))

let run_f14 () =
  run_panel "F14"
    "F14: inequality/band join panel — estimate vs executed truth"
    (Harness.Qpanel.comparison ())

let run_f16 () =
  run_panel "F16" "F16: degree-statistics estimators — bound quality vs truth"
    (Harness.Qpanel.degree ~scale:(if quick then 50 else 10))

(* F11: the budget subsystem under load. Three legs: (a) exact DP on an
   n=14 chain under a 1 ms wall-clock deadline must still return a valid
   plan by degrading down the anytime ladder; (b) a node-budget sweep on
   the same query shows the chosen cost improving monotonically as the
   budget grows; (c) a randomized soak smoke crossing workloads ×
   corruption × budgets. *)
let run_f11 () =
  section "F11: deadline/budget soak — anytime ladder and chaos harness";
  let n = if quick then 12 else 14 in
  let chain =
    Datagen.Workload.chain ~rows_range:(100, 300) ~distinct_range:(20, 100)
      ~seed:1 ~n_tables:n ()
  in
  let db = chain.Datagen.Workload.db in
  let query = chain.Datagen.Workload.query in
  let profile = Els.prepare Els.Config.els db query in
  (* (a) 1 ms deadline on exact DP over n tables. *)
  let budget = Rel.Budget.create ~deadline_ms:1. () in
  let t0 = Unix.gettimeofday () in
  let node, prov = Optimizer.Dp.optimize_traced ~budget profile query in
  let elapsed_ms = (Unix.gettimeofday () -. t0) *. 1000. in
  Printf.printf
    "1 ms deadline, n=%d: %s in %.1f ms, cost %.4g (%d rows est)\n" n
    (Optimizer.Provenance.to_string prov)
    elapsed_ms node.Optimizer.Dp.cost
    (int_of_float node.Optimizer.Dp.state.Els.Incremental.size);
  (* (b) node-budget sweep: cost must be non-increasing down the rows. *)
  Printf.printf "\nnode-budget sweep (same query):\n";
  Printf.printf "%-10s %-42s %14s\n" "budget" "provenance" "cost";
  List.iter
    (fun node_budget ->
      let budget = Rel.Budget.create ?node_budget () in
      let node, prov = Optimizer.Dp.optimize_traced ~budget profile query in
      Printf.printf "%-10s %-42s %14.6g\n"
        (match node_budget with
        | None -> "unlimited"
        | Some n -> string_of_int n)
        (Optimizer.Provenance.to_string prov)
        node.Optimizer.Dp.cost)
    [ Some 20; Some 200; Some 2_000; Some 20_000; None ];
  (* (c) randomized soak smoke. *)
  let iters = if quick then 50 else 200 in
  Printf.printf "\n%s" (Harness.Soak.render (Harness.Soak.run ~iters ()))

(* F13: the versioned catalog under churn. Two legs: (a) the churn soak
   itself — epoch swaps, partitioned re-ANALYZEs, staged corruption,
   quarantine ladder, torn-read probe for pinned readers; (b) bulk
   ANALYZE vs merged partitioned ANALYZE over identical data — the
   estimates the two catalogs produce for the F9 chain query must
   agree. *)
let run_f13 () =
  section "F13: catalog churn — epoch snapshots and mergeable statistics";
  let iters = if quick then 40 else 120 in
  print_string (Harness.Churn.render (Harness.Churn.run ~iters ()));
  let base = Harness.Fault.base_db () in
  let query =
    match Sqlfront.Binder.compile base Harness.Fault.default_sql with
    | Ok q -> q
    | Error msg -> failwith msg
  in
  let order = query.Query.tables in
  let shards_of rel n =
    let buckets = Array.make n [] in
    List.iteri
      (fun i t -> buckets.(i mod n) <- t :: buckets.(i mod n))
      (Rel.Relation.to_list rel);
    Array.to_list
      (Array.map
         (fun ts ->
           Rel.Relation.of_tuples (Rel.Relation.schema rel) (List.rev ts))
         buckets)
  in
  let bulk_db = Catalog.Db.create () in
  let shard_db = Catalog.Db.create () in
  List.iter
    (fun (t : Catalog.Table.t) ->
      let name = t.Catalog.Table.name in
      let rel = Catalog.Db.relation_exn base name in
      Catalog.Db.add bulk_db
        (Catalog.Analyze.table ~histogram:Stats.Histogram.Equi_depth ~mcv:5
           ~name rel);
      Catalog.Db.add shard_db
        (Catalog.Analyze.partitions ~histogram:Stats.Histogram.Equi_depth
           ~mcv:5 ~name (shards_of rel 4)))
    (Catalog.Db.tables base);
  let est_bulk = Els.estimate Els.Config.els bulk_db query order in
  let est_shard = Els.estimate Els.Config.els shard_db query order in
  Printf.printf
    "\nbulk vs 4-shard partitioned ANALYZE (F9 chain query): %.6g vs %.6g \
     (ratio %.4f)\n"
    est_bulk est_shard
    (if est_bulk = 0. then Float.nan else est_shard /. est_bulk)

(* --- bechamel micro-benchmarks: one Test.make per experiment --- *)

let micro_tests () =
  let open Bechamel in
  (* Shared inputs, built once so the benchmarks measure the algorithms,
     not data generation. *)
  let s8_scale = if quick then 50 else 10 in
  let s8_db = Datagen.Section8.build ~scale:s8_scale ~seed:1 () in
  let s8_query = Datagen.Section8.query_scaled ~scale:s8_scale in
  let chain = Datagen.Workload.chain ~seed:3 ~n_tables:6 () in
  let chain_db = chain.Datagen.Workload.db in
  let chain_q = chain.Datagen.Workload.query in
  let chain_order = chain_q.Query.tables in
  let sweep_db, sweep_q =
    let rng = Datagen.Prng.create 7 in
    let db = Catalog.Db.create () in
    ignore
      (Datagen.Tablegen.register (Datagen.Prng.split rng) db ~table:"r1"
         ~rows:2000
         [ Datagen.Tablegen.key_column "x" ~rows:2000 ]);
    ignore
      (Datagen.Tablegen.register (Datagen.Prng.split rng) db ~table:"r2"
         ~rows:1000
         [ Datagen.Tablegen.column "y" ~distinct:100 ]);
    ( db,
      Query.make ~tables:[ "r1"; "r2" ]
        [
          Query.Predicate.col_eq (Query.Cref.v "r1" "x")
            (Query.Cref.v "r2" "y");
          Query.Predicate.cmp (Query.Cref.v "r1" "x") Rel.Cmp.Le
            (Rel.Value.Int 200);
        ] )
  in
  Test.make_grouped ~name:"elsdb"
    [
      Test.make ~name:"t1/optimize+execute"
        (Staged.stage (fun () ->
             let choice = Optimizer.choose Els.Config.els s8_db s8_query in
             Exec.Executor.count s8_db choice.Optimizer.plan));
      Test.make ~name:"e1/three-rules"
        (Staged.stage (fun () -> Harness.Examples_tables.rules_table ()));
      Test.make ~name:"s5/urn-model"
        (Staged.stage (fun () ->
             Stats.Urn.expected_distinct ~urns:10000. ~balls:50000.));
      Test.make ~name:"s6/profile-build"
        (Staged.stage (fun () ->
             Harness.Examples_tables.single_table_numbers ()));
      Test.make ~name:"f1/chain-estimate"
        (Staged.stage (fun () ->
             Els.estimate Els.Config.els chain_db chain_q chain_order));
      Test.make ~name:"f2/local-aware-estimate"
        (Staged.stage (fun () ->
             Els.estimate Els.Config.els sweep_db sweep_q [ "r1"; "r2" ]));
      Test.make ~name:"f3/dp-optimize"
        (Staged.stage (fun () ->
             Optimizer.choose Els.Config.els chain_db chain_q));
      Test.make ~name:"f4/mcv-build"
        (Staged.stage
           (let rng = Datagen.Prng.create 13 in
            let values =
              Array.map
                (fun v -> Rel.Value.Int v)
                (Datagen.Distribution.generate (Datagen.Distribution.Zipf 1.2)
                   rng ~rows:10000 ~distinct:500)
            in
            fun () -> Stats.Mcv.build ~k:50 values));
    ]

let run_micro () =
  section "Micro-benchmarks (bechamel; ns per run, OLS fit)";
  let open Bechamel in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg =
    Benchmark.cfg ~limit:2000
      ~quota:(Time.second (if quick then 0.25 else 0.75))
      ~kde:None ()
  in
  let raw = Benchmark.all cfg [ instance ] (micro_tests ()) in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols instance raw in
  let rows =
    Hashtbl.fold
      (fun name ols_result acc ->
        let estimate =
          match Analyze.OLS.estimates ols_result with
          | Some [ e ] -> Printf.sprintf "%.1f" e
          | Some _ | None -> "-"
        in
        let r2 =
          match Analyze.OLS.r_square ols_result with
          | Some r -> Printf.sprintf "%.4f" r
          | None -> "-"
        in
        [ name; estimate; r2 ] :: acc)
      results []
    |> List.sort compare
  in
  print_string
    (Harness.Report.table ~header:[ "benchmark"; "ns/run"; "r2" ] rows)

let () =
  let experiments =
    [
      ("t1", run_t1); ("t1-ablation", run_t1_ablation); ("e1", run_e1);
      ("s5", run_s5); ("s6", run_s6); ("f1", run_f1); ("f2", run_f2);
      ("f3", run_f3); ("f4", run_f4); ("f5", run_f5); ("f6", run_f6);
      ("f7", run_f7); ("f10", run_f10); ("f11", run_f11);
      ("f12", run_f12); ("f13", run_f13); ("f14", run_f14);
      ("f16", run_f16); ("micro", run_micro);
    ]
  in
  List.iter (fun (id, run) -> if wants id then run ()) experiments;
  print_newline ();
  print_endline "All experiments completed."
