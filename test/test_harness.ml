(* Unit tests for the experiments harness: report rendering, the runner,
   the Section 8 experiment at reduced scale. *)

let test_report_table () =
  let s =
    Harness.Report.table ~header:[ "a"; "bb"; "c" ]
      [
        [ "1"; "2" ];
        [ "333" ] (* ragged row gets padded *);
        [ "s ⋈ m ⋈ b"; "é"; "x" ] (* multibyte cells *);
      ]
  in
  Alcotest.(check bool) "contains header" true
    (String.length s > 0 && String.sub s 0 1 = "a");
  let lines = String.split_on_char '\n' (String.trim s) in
  Alcotest.(check int) "header + rule + 3 rows" 5 (List.length lines);
  (* Columns align by display column (code points, not bytes): every '|'
     of every line sits where the separator rule has its '+'. *)
  let columns_of ch line =
    let col = ref 0 and found = ref [] in
    String.iter
      (fun c ->
        if Char.code c land 0xC0 <> 0x80 then begin
          if c = ch then found := !col :: !found;
          incr col
        end)
      line;
    List.rev !found
  in
  match lines with
  | header_line :: rule :: data ->
    let pluses = columns_of '+' rule in
    Alcotest.(check int) "two separators" 2 (List.length pluses);
    List.iter
      (fun line ->
        Alcotest.(check (list int)) ("separators aligned: " ^ line) pluses
          (columns_of '|' line))
      (header_line :: data)
  | _ -> Alcotest.fail "missing rows"

let test_report_cells () =
  Alcotest.(check string) "float_cell" "4e-08" (Harness.Report.float_cell 4e-8);
  Alcotest.(check string) "size_list" "(100, 0.5)"
    (Harness.Report.size_list [ 100.; 0.5 ])

let test_runner_true_prefix_sizes () =
  let db = Datagen.Section8.build ~scale:20 ~seed:1 () in
  let q = Datagen.Section8.query_scaled ~scale:20 in
  let sizes =
    Harness.Runner.true_prefix_sizes db q [ "s"; "m"; "b"; "g" ]
  in
  (* With all implied predicates, every prefix of ≥2 tables has exactly
     cutoff-1 = 4 rows. *)
  Alcotest.(check (list (float 0.))) "all fours" [ 4.; 4.; 4. ] sizes

let test_runner_trial () =
  let db = Datagen.Section8.build ~scale:20 ~seed:1 () in
  let q = Datagen.Section8.query_scaled ~scale:20 in
  let trial = Harness.Runner.run Els.Config.els db q in
  Alcotest.(check string) "algorithm" "ELS" trial.Harness.Runner.algorithm;
  Alcotest.(check int) "result rows" 4 trial.Harness.Runner.result_rows;
  Alcotest.(check int) "three estimates" 3
    (List.length trial.Harness.Runner.estimates);
  Alcotest.(check bool) "work positive" true (trial.Harness.Runner.work > 0);
  (* ELS estimates equal the true sizes on this workload. *)
  List.iter2
    (fun est truth -> Helpers.check_float ~eps:1e-6 "estimate exact" truth est)
    trial.Harness.Runner.estimates trial.Harness.Runner.true_sizes

let test_section8_experiment_shape () =
  let rows = Harness.Section8_experiment.run ~scale:20 () in
  (* The paper's SM-without-PTC row plus one row per registered
     estimator. *)
  Alcotest.(check int) "row count"
    (1 + List.length (Els.Estimator.registry ()))
    (List.length rows);
  let algo i =
    (List.nth rows i).Harness.Section8_experiment.trial.Harness.Runner.algorithm
  in
  Alcotest.(check string) "row 1" "SM" (algo 0);
  Alcotest.(check string) "row 2" "SM+PTC" (algo 1);
  Alcotest.(check string) "row 3" "SSS" (algo 2);
  Alcotest.(check string) "row 4" "ELS" (algo 3);
  Alcotest.(check string) "row 5" "PESS" (algo 4);
  (* Every algorithm computes the same (correct) answer... *)
  List.iter
    (fun r ->
      Alcotest.(check int) "correct count" 4
        r.Harness.Section8_experiment.trial.Harness.Runner.result_rows)
    rows;
  (* ...but ELS finds a cheaper or equal plan than the misestimating
     algorithms (the paper's headline). *)
  let work i =
    (List.nth rows i).Harness.Section8_experiment.trial.Harness.Runner.work
  in
  Alcotest.(check bool) "ELS beats SM+PTC" true (work 3 <= work 1);
  Alcotest.(check bool) "ELS beats SSS" true (work 3 <= work 2);
  (* And the misestimation is visible: SM+PTC's final estimate is
     absurdly small while ELS's is exact. *)
  let final_est i =
    List.nth
      (List.nth rows i).Harness.Section8_experiment.trial.Harness.Runner.estimates
      2
  in
  Alcotest.(check bool) "SM+PTC underestimates" true (final_est 1 < 1e-6);
  Helpers.check_float ~eps:1e-6 "ELS exact" 4. (final_est 3)

let test_examples_tables_consistency () =
  (* The harness renderings must agree with the paper's numbers (already
     unit-tested against Els directly in test_els_paper). *)
  List.iter
    (fun (_, est, paper, _) ->
      Helpers.check_float ~eps:1e-9 "matches paper" paper est)
    (Harness.Examples_tables.rules_table ());
  let rows, card = Harness.Examples_tables.single_table_numbers () in
  Helpers.check_float "rows" 20. rows;
  Helpers.check_float "card" 9. card

let test_error_propagation_shape () =
  let points =
    Harness.Qpanel.(growth (run (chains ~seeds:[ 1; 2 ] ~max_tables:4 ())))
  in
  (* One point per registered estimator per size (2, 3 and 4 tables). *)
  Alcotest.(check int) "point count"
    (3 * List.length (Els.Estimator.registry ()))
    (List.length points);
  (* At 4 tables rule M must underestimate dramatically; LS must stay
     within a small constant factor. *)
  let find rule n =
    List.find
      (fun p -> p.Harness.Qpanel.rule = rule && p.Harness.Qpanel.n_tables = n)
      points
  in
  Alcotest.(check bool) "M collapses" true
    ((find "M" 4).Harness.Qpanel.geo_mean_ratio < 1e-3);
  Alcotest.(check bool) "LS stays put" true
    ((find "LS" 4).Harness.Qpanel.geo_mean_ratio > 0.2)

let test_local_sweep_shape () =
  let rows = Harness.Qpanel.(run (local_sweep ~cutoffs:[ 10; 100 ] ())) in
  let find algorithm scenario =
    List.find
      (fun r ->
        r.Harness.Qpanel.algorithm = algorithm
        && r.Harness.Qpanel.scenario = scenario)
      rows
  in
  List.iter
    (fun cutoff ->
      let els = find "ELS" cutoff and standard = find "SM+PTC" cutoff in
      (* ELS is exact on this workload; the standard estimate is not. *)
      Helpers.check_float ~eps:1e-6 "ELS exact" els.Harness.Qpanel.truth
        els.Harness.Qpanel.estimate;
      Alcotest.(check bool) "standard underestimates" true
        (standard.Harness.Qpanel.estimate < standard.Harness.Qpanel.truth))
    [ "10"; "100" ]

let small_chain ~seed ~n_tables =
  Datagen.Workload.chain ~rows_range:(20, 60) ~distinct_range:(5, 20) ~seed
    ~n_tables ()

let test_qpanel_shape () =
  let scenarios =
    [
      ("two", small_chain ~seed:1 ~n_tables:2);
      ("three", small_chain ~seed:2 ~n_tables:3);
    ]
  in
  let rows = Harness.Qpanel.run scenarios in
  Alcotest.(check int) "scenarios × registry"
    (List.length scenarios * List.length (Els.Estimator.registry ()))
    (List.length rows);
  Alcotest.(check (list string)) "registry order within a scenario"
    (List.map Els.Estimator.label (Els.Estimator.registry ()))
    (List.filter_map
       (fun r ->
         if r.Harness.Qpanel.scenario = "two" then
           Some r.Harness.Qpanel.estimator
         else None)
       rows);
  Alcotest.(check bool) "chains pass" true (Harness.Qpanel.pass rows);
  Alcotest.(check bool) "empty panel fails" false (Harness.Qpanel.pass []);
  let broken =
    { (List.hd rows) with Harness.Qpanel.q = Harness.Qpanel.Infinite }
  in
  Alcotest.(check bool) "infinite q-error fails" false
    (Harness.Qpanel.pass (broken :: rows))

(* A one-table scenario has no join step, so its size history is empty:
   the final estimate must come from the state (the table's rows), not
   from the history's last element. *)
let test_qpanel_one_table () =
  let spec =
    {
      (small_chain ~seed:3 ~n_tables:2) with
      Datagen.Workload.query = Query.make ~tables:[ "t1" ] [];
    }
  in
  let rows_of_t1 =
    float_of_int
      (Rel.Relation.cardinality
         (Catalog.Db.relation_exn spec.Datagen.Workload.db "t1"))
  in
  let rows = Harness.Qpanel.run [ ("one", spec) ] in
  Alcotest.(check int) "one row per estimator"
    (List.length (Els.Estimator.registry ()))
    (List.length rows);
  List.iter
    (fun r ->
      let label = r.Harness.Qpanel.estimator in
      Alcotest.(check (list (float 0.))) (label ^ ": no join steps") []
        r.Harness.Qpanel.estimates;
      Alcotest.(check (list (float 0.))) (label ^ ": no join truths") []
        r.Harness.Qpanel.truths;
      Alcotest.(check (float 0.)) (label ^ ": truth") rows_of_t1
        r.Harness.Qpanel.truth;
      Alcotest.(check (float 0.)) (label ^ ": estimate = table rows")
        rows_of_t1 r.Harness.Qpanel.estimate;
      Alcotest.(check bool) (label ^ ": finite q-error") true
        (r.Harness.Qpanel.q = Harness.Qpanel.Finite 1.))
    rows

(* Multi-table rows carry the executed size after every join, and the
   final truth is the whole query's — the last prefix. *)
let test_qpanel_truths () =
  let scenarios =
    [
      ("three", small_chain ~seed:4 ~n_tables:3);
      ("four", small_chain ~seed:5 ~n_tables:4);
    ]
    @ Harness.Qpanel.section8 ~scale:20
  in
  let rows = Harness.Qpanel.run scenarios in
  List.iter
    (fun (name, spec) ->
      let db = spec.Datagen.Workload.db in
      let query = spec.Datagen.Workload.query in
      let want = Harness.Runner.true_prefix_sizes db query query.Query.tables in
      let whole =
        float_of_int (Exec.Executor.run_query db query).Exec.Executor.row_count
      in
      Alcotest.(check (float 0.)) (name ^ ": last prefix = whole query") whole
        (List.nth want (List.length want - 1));
      List.iter
        (fun r ->
          if r.Harness.Qpanel.scenario = name then begin
            let label = name ^ "/" ^ r.Harness.Qpanel.estimator in
            Alcotest.(check (list (float 0.))) (label ^ ": truths") want
              r.Harness.Qpanel.truths;
            Alcotest.(check (float 0.)) (label ^ ": truth is the last")
              whole r.Harness.Qpanel.truth;
            Alcotest.(check int) (label ^ ": one truth per estimate")
              (List.length r.Harness.Qpanel.estimates)
              (List.length r.Harness.Qpanel.truths)
          end)
        rows)
    scenarios

let suite =
  [
    Alcotest.test_case "report: table" `Quick test_report_table;
    Alcotest.test_case "report: cells" `Quick test_report_cells;
    Alcotest.test_case "runner: true prefix sizes" `Quick
      test_runner_true_prefix_sizes;
    Alcotest.test_case "runner: trial" `Quick test_runner_trial;
    Alcotest.test_case "section 8 experiment shape" `Quick
      test_section8_experiment_shape;
    Alcotest.test_case "examples tables consistency" `Quick
      test_examples_tables_consistency;
    Alcotest.test_case "error propagation shape" `Quick
      test_error_propagation_shape;
    Alcotest.test_case "local sweep shape" `Quick test_local_sweep_shape;
    Alcotest.test_case "qpanel: shape and pass" `Quick test_qpanel_shape;
    Alcotest.test_case "qpanel: one-table scenario" `Quick
      test_qpanel_one_table;
    Alcotest.test_case "qpanel: per-step truths" `Quick test_qpanel_truths;
  ]
