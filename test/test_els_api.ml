(* Tests for the Els root-module API, configuration naming, and
   selectivity helpers not covered elsewhere. *)

let check_float = Helpers.check_float

let test_config_names () =
  Alcotest.(check string) "els" "ELS" (Els.Config.name Els.Config.els);
  Alcotest.(check string) "sss" "SSS" (Els.Config.name Els.Config.sss);
  Alcotest.(check string) "sm" "SM" (Els.Config.name (Els.Config.sm ~ptc:false));
  Alcotest.(check string) "sm+ptc" "SM+PTC"
    (Els.Config.name (Els.Config.sm ~ptc:true));
  let custom = { Els.Config.els with Els.Config.single_table = false } in
  Alcotest.(check bool) "custom name descriptive" true
    (String.length (Els.Config.name custom) > 5);
  Alcotest.(check string) "rule labels" "M/SS/LS"
    (String.concat "/"
       (List.map Els.Estimator.label Els.Estimator.[ m; ss; ls ]))

let test_root_convenience () =
  let db = Helpers.example1_db () in
  let q = Helpers.example1_query () in
  check_float "estimate" 1000.
    (Els.estimate Els.Config.els db q [ "r1"; "r2"; "r3" ]);
  Alcotest.(check (list (float 1e-9)))
    "intermediate sizes" [ 1000.; 1000. ]
    (Els.intermediate_sizes Els.Config.els db q [ "r2"; "r3"; "r1" ])

let test_selectivity_of_cards () =
  check_float "basic" 0.01 (Els.Selectivity.of_cards 100. 10.);
  check_float "symmetric" (Els.Selectivity.of_cards 10. 100.)
    (Els.Selectivity.of_cards 100. 10.);
  check_float "zero card joins nothing" 0. (Els.Selectivity.of_cards 0. 10.);
  check_float "capped at 1" 1. (Els.Selectivity.of_cards 0.5 0.25)

let test_selectivity_join_rejects_locals () =
  let db = Helpers.section6_db () in
  let q = Helpers.section6_query () in
  let profile = Els.prepare Els.Config.els db q in
  Alcotest.(check bool) "local predicate rejected" true
    (match
       Els.Selectivity.join profile
         (Query.Predicate.col_eq (Query.Cref.v "r2" "y")
            (Query.Cref.v "r2" "w"))
     with
    | exception Invalid_argument _ -> true
    | (_ : float) -> false)

let test_group_by_class () =
  let db = Helpers.example1_db () in
  let q = Helpers.example1_query () in
  let profile = Els.prepare Els.Config.els db q in
  let x = Query.Cref.v "r1" "x"
  and y = Query.Cref.v "r2" "y"
  and z = Query.Cref.v "r3" "z" in
  let preds =
    [ Query.Predicate.col_eq x y; Query.Predicate.col_eq x z;
      Query.Predicate.col_eq y z ]
  in
  let groups = Els.Selectivity.group_by_class profile preds in
  Alcotest.(check int) "single class, single group" 1 (List.length groups);
  Alcotest.(check int) "all three predicates grouped" 3
    (List.length (List.hd groups))

let test_group_by_class_multi () =
  (* A star has one class per dimension key. *)
  let spec = Datagen.Workload.star ~fact_rows:100 ~seed:2 ~n_dims:3 () in
  let q = spec.Datagen.Workload.query in
  let profile = Els.prepare Els.Config.els spec.Datagen.Workload.db q in
  let groups =
    Els.Selectivity.group_by_class profile (Query.join_predicates q)
  in
  Alcotest.(check int) "three groups" 3 (List.length groups);
  List.iter
    (fun g -> Alcotest.(check int) "one predicate each" 1 (List.length g))
    groups

let test_profile_join_card_fallback () =
  (* A column never mentioned in predicates falls back to base rows. *)
  let db = Helpers.example1_db () in
  let q = Helpers.example1_query () in
  let profile = Els.prepare Els.Config.els db q in
  check_float "fallback" 100.
    (Els.Profile.join_card profile (Query.Cref.v "r1" "unmentioned"))

let test_close_query_preserves_shape () =
  let q = Helpers.section8_query () in
  let closed = Els.Closure.close_query q in
  Alcotest.(check bool) "projection preserved" true
    (closed.Query.projection = q.Query.projection);
  Alcotest.(check (list string)) "tables preserved" q.Query.tables
    closed.Query.tables;
  Alcotest.(check bool) "sources preserved" true
    (closed.Query.sources = q.Query.sources)

let test_query_source_api () =
  let q =
    Query.make
      ~sources:[ ("e1", "emp"); ("e2", "emp") ]
      ~tables:[ "e1"; "e2" ] []
  in
  Alcotest.(check string) "mapped" "emp" (Query.source q "e1");
  Alcotest.(check string) "case-insensitive" "emp" (Query.source q "E2");
  Alcotest.(check bool) "unknown alias in sources rejected" true
    (match Query.make ~sources:[ ("zz", "emp") ] ~tables:[ "e1" ] [] with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_cross_class_contradiction () =
  (* x = 5 on r1.x and y = 7 on r2.y with x = y: closure propagates both
     constants onto both columns, every column contradicts, the whole
     estimate collapses to 0 (the query is provably empty). *)
  let db = Helpers.example1_db () in
  let x = Query.Cref.v "r1" "x" and y = Query.Cref.v "r2" "y" in
  let q =
    Query.make ~tables:[ "r1"; "r2" ]
      [
        Query.Predicate.col_eq x y;
        Query.Predicate.cmp x Rel.Cmp.Eq (Rel.Value.Int 5);
        Query.Predicate.cmp y Rel.Cmp.Eq (Rel.Value.Int 7);
      ]
  in
  check_float "empty query detected" 0.
    (Els.estimate Els.Config.els db q [ "r1"; "r2" ]);
  (* Without closure the contradiction is invisible to the estimator. *)
  Alcotest.(check bool) "invisible without closure" true
    (Els.estimate (Els.Config.sm ~ptc:false) db q [ "r1"; "r2" ] > 0.)

let test_explain_annotations () =
  let db = Datagen.Section8.build ~scale:50 ~seed:1 () in
  let q = Datagen.Section8.query_scaled ~scale:50 in
  let choice = Optimizer.choose Els.Config.els db q in
  let buf = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer buf in
  Optimizer.explain ppf choice;
  Format.pp_print_flush ppf ();
  let text = Buffer.contents buf in
  let contains needle =
    let n = String.length needle and h = String.length text in
    let rec loop i = i + n <= h && (String.sub text i n = needle || loop (i + 1)) in
    loop 0
  in
  Alcotest.(check bool) "has per-join estimates" true
    (contains "(est rows:");
  Alcotest.(check bool) "names the algorithm" true (contains "ELS")

let suite =
  [
    Alcotest.test_case "config names" `Quick test_config_names;
    Alcotest.test_case "root convenience functions" `Quick
      test_root_convenience;
    Alcotest.test_case "selectivity of_cards" `Quick test_selectivity_of_cards;
    Alcotest.test_case "join selectivity rejects locals" `Quick
      test_selectivity_join_rejects_locals;
    Alcotest.test_case "group_by_class: single class" `Quick
      test_group_by_class;
    Alcotest.test_case "group_by_class: multiple classes" `Quick
      test_group_by_class_multi;
    Alcotest.test_case "join_card fallback" `Quick
      test_profile_join_card_fallback;
    Alcotest.test_case "close_query preserves shape" `Quick
      test_close_query_preserves_shape;
    Alcotest.test_case "query source api" `Quick test_query_source_api;
    Alcotest.test_case "cross-class contradiction" `Quick
      test_cross_class_contradiction;
    Alcotest.test_case "explain annotations" `Quick test_explain_annotations;
  ]
