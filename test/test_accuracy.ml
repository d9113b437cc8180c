(* Tests for the q-error study and the enumerator/skew harness modules'
   aggregate claims. *)

let mixed_summaries () =
  Harness.Qpanel.(summarize (run (mixed ~seeds:[ 1; 2; 3 ] ())))

let test_qerror_ordering () =
  let summaries = mixed_summaries () in
  Alcotest.(check int) "one summary per registered estimator"
    (List.length (Els.Estimator.registry ()))
    (List.length summaries);
  let find name =
    List.find (fun s -> String.equal s.Harness.Qpanel.algo name) summaries
  in
  let els = find "ELS" and sm = find "SM+PTC" and sss = find "SSS" in
  (* ELS is at worst a small constant off; the others blow up. *)
  Alcotest.(check bool) "ELS max q small" true (els.Harness.Qpanel.max_q < 10.);
  Alcotest.(check bool) "SSS worse than ELS" true
    (sss.Harness.Qpanel.max_q > els.Harness.Qpanel.max_q);
  Alcotest.(check bool) "SM worst" true
    (sm.Harness.Qpanel.max_q > sss.Harness.Qpanel.max_q);
  List.iter
    (fun s ->
      Alcotest.(check bool) "median <= p90 <= max" true
        (s.Harness.Qpanel.median_q <= s.Harness.Qpanel.p90_q +. 1e-9
        && s.Harness.Qpanel.p90_q <= s.Harness.Qpanel.max_q +. 1e-9))
    summaries

let test_qerror_underestimation () =
  let summaries = mixed_summaries () in
  (* The paper's diagnosis: rules M and SS systematically underestimate.
     (ELS does not; PESS is an upper-bound-style estimator, so neither
     belongs in this check.) *)
  List.iter
    (fun s ->
      if List.mem s.Harness.Qpanel.algo [ "SM+PTC"; "SSS" ] then
        Alcotest.(check bool)
          (s.Harness.Qpanel.algo ^ " underestimates mostly")
          true
          (s.Harness.Qpanel.underestimated >= 0.5))
    summaries

let test_enumerator_rows_complete () =
  let rows = Harness.Enumerators.run ~seeds:[ 1 ] ~n_tables:5 () in
  Alcotest.(check int) "three enumerators" 3 (List.length rows);
  List.iter
    (fun r ->
      Alcotest.(check bool)
        (r.Harness.Enumerators.enumerator ^ " work positive")
        true
        (r.Harness.Enumerators.work > 0
        && r.Harness.Enumerators.estimated_cost > 0.))
    rows;
  (* DP's estimated cost is a lower bound among the enumerators. *)
  let cost name =
    (List.find
       (fun r -> String.equal r.Harness.Enumerators.enumerator name)
       rows)
      .Harness.Enumerators.estimated_cost
  in
  Alcotest.(check bool) "dp <= greedy" true (cost "DP" <= cost "greedy" +. 1e-6);
  Alcotest.(check bool) "dp <= random" true (cost "DP" <= cost "random" +. 1e-6)

let test_skew_join_limits () =
  let rows =
    Harness.Qpanel.(
      run (zipf_join ~rows:(4000, 2000) ~distinct:200 ~thetas:[ 0.; 1.2 ] ()))
  in
  let ratio theta =
    let r =
      List.find
        (fun r ->
          r.Harness.Qpanel.scenario = theta
          && r.Harness.Qpanel.algorithm = "ELS")
        rows
    in
    if r.Harness.Qpanel.truth = 0. then
      Alcotest.fail "expected nonempty true results"
    else r.Harness.Qpanel.estimate /. r.Harness.Qpanel.truth
  in
  (* Uniform data: the model is near-exact. Skewed data: systematic
     underestimation, the boundary the paper's §9 describes. *)
  Alcotest.(check bool) "exact on uniform" true
    (Float.abs (ratio "0" -. 1.) < 0.1);
  Alcotest.(check bool) "underestimates under skew" true (ratio "1.2" < 0.5)

let suite =
  [
    Alcotest.test_case "q-error ordering" `Quick test_qerror_ordering;
    Alcotest.test_case "systematic underestimation" `Quick
      test_qerror_underestimation;
    Alcotest.test_case "enumerator comparison rows" `Quick
      test_enumerator_rows_complete;
    Alcotest.test_case "skewed join columns (F7 shape)" `Quick
      test_skew_join_limits;
  ]
