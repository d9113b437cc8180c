(* Compiled estimation kernels (Els.Kernel / Els.Profile.kernel), the one
   step engine every estimate runs on.

   Four contracts:

   - every registry estimator — and a record copy of one under a new id —
     compiles a kernel on equality and on comparison/band chains, and
     every step runs on it (zero fallback steps);
   - the kernel is bit-identical to the list-scan reference: step
     selectivity (Incremental.step_selectivity_scan) plus the estimator's
     cap over the scan-eligible predicates, across every estimator and
     every join order, left-deep and bushy;
   - one kernel extend step allocates exactly zero minor-heap words
     (measured with Gc.minor_words, not assumed);
   - equivalence-class grouping keys on [Cref.equal]: two eligible
     predicates of one class yield one group and one combined
     selectivity (regression for the polymorphic-assoc grouping). *)

let count = 60

let build_chain = Test_properties.build_chain
let build_cmp_chain = Test_properties.build_cmp_chain
let permutations = Test_properties.permutations

let custom_m = { Els.Estimator.m with id = "custom-m"; label = "custom-M" }

(* Every registry estimator in its canonical configuration, plus a record
   copy of M under an id the registry does not know. *)
let configs () =
  Els.Config.panel () @ [ Els.Config.of_estimator custom_m ]

(* --- compilation coverage --- *)

let test_panel_kernels_compile () =
  let eq_db, eq_query, eq_names =
    build_chain { dims = [ (6, 2); (4, 3); (8, 1) ]; seed = 42 }
  in
  let cmp_db, cmp_query, cmp_names =
    build_cmp_chain
      {
        chain = { dims = [ (6, 2); (4, 3); (8, 1); (5, 2) ]; seed = 42 };
        ops = Query.Predicate.[ Lt; Eq; Band 2. ];
      }
  in
  List.iter
    (fun config ->
      List.iter
        (fun (shape, db, query, names) ->
          let label = Printf.sprintf "%s on %s" (Els.Config.name config) shape in
          let profile = Els.prepare config db query in
          ignore (Els.Incremental.final_size profile names);
          Alcotest.(check bool)
            (label ^ ": steps run on the kernel")
            true
            (Els.Profile.kernel_steps profile > 0);
          Alcotest.(check int)
            (label ^ ": no fallback steps")
            0
            (Els.Profile.kernel_fallback_steps profile))
        [
          ("an equality chain", eq_db, eq_query, eq_names);
          ("a comparison/band chain", cmp_db, cmp_query, cmp_names);
        ])
    (configs ());
  (* The copy is M under another name: same numbers on every order. *)
  let m = Els.prepare (Els.Config.of_estimator Els.Estimator.m) eq_db eq_query in
  let copy = Els.prepare (Els.Config.of_estimator custom_m) eq_db eq_query in
  List.iter
    (fun order ->
      Alcotest.(check bool) "custom-m = m" true
        (Float.equal
           (Els.Incremental.final_size copy order)
           (Els.Incremental.final_size m order)))
    (permutations eq_names)

(* A query mixing an equality and an inequality join runs every step on
   the kernel — the signal CI asserts on through the metrics snapshot. *)
let test_comparison_join_compiles () =
  let db, _, names =
    build_chain { dims = [ (6, 2); (4, 3); (8, 1) ]; seed = 7 }
  in
  let link a op b =
    Query.Predicate.col_cmp (Query.Cref.v a "a") op (Query.Cref.v b "a")
  in
  let query =
    Query.make ~tables:names
      [ link "t1" Query.Predicate.Eq "t2"; link "t2" Query.Predicate.Lt "t3" ]
  in
  let profile = Els.prepare Els.Config.els db query in
  Alcotest.(check int) "fresh profile has run no steps" 0
    (Els.Profile.kernel_steps profile);
  ignore (Els.Incremental.final_size profile names);
  Alcotest.(check int) "one kernel step per extension" 2
    (Els.Profile.kernel_steps profile);
  Alcotest.(check int) "no fallback steps" 0
    (Els.Profile.kernel_fallback_steps profile)

(* --- allocation regression --- *)

(* One DP-style sweep over all 2^n masks through the *_into entry points.
   Ascending mask order propagates sizes without any submask bookkeeping,
   and the loop itself is closure-free so the audit below charges only the
   kernel. *)
let sweep kernel sizes n =
  Array.fill sizes 0 (Array.length sizes) Float.nan;
  for bit = 0 to n - 1 do
    Els.Kernel.start_into kernel ~sizes ~bit
  done;
  for mask = 1 to (1 lsl n) - 1 do
    if not (Float.is_nan sizes.(mask)) then
      for bit = 0 to n - 1 do
        if
          mask land (1 lsl bit) = 0
          && Float.is_nan sizes.(mask lor (1 lsl bit))
        then Els.Kernel.extend_into kernel ~sizes ~mask ~bit
      done
  done

let test_zero_alloc_per_step () =
  let n = 10 in
  let chain =
    Datagen.Workload.chain ~rows_range:(100, 300) ~distinct_range:(20, 100)
      ~seed:7 ~n_tables:n ()
  in
  let profile =
    Els.prepare Els.Config.els chain.Datagen.Workload.db
      chain.Datagen.Workload.query
  in
  let kernel = Els.Profile.kernel profile in
  let sizes = Array.make (1 lsl n) Float.nan in
  sweep kernel sizes n (* warmup: fault in code paths before measuring *);
  let steps0 = Els.Kernel.steps kernel in
  (* An empty Gc.minor_words window measures the sampling overhead (the
     boxed float the probe itself returns); the sweep must add exactly
     nothing on top of it. *)
  let w0 = Gc.minor_words () in
  let w1 = Gc.minor_words () in
  let overhead = w1 -. w0 in
  let w2 = Gc.minor_words () in
  sweep kernel sizes n;
  let w3 = Gc.minor_words () in
  let allocated = w3 -. w2 -. overhead in
  let steps = Els.Kernel.steps kernel - steps0 in
  (* Every mask with >= 2 tables is extended into exactly once. *)
  Alcotest.(check int) "extend steps per sweep" ((1 lsl n) - 1 - n) steps;
  Alcotest.(check bool) "full join reached" true
    (not (Float.is_nan sizes.((1 lsl n) - 1)));
  match Sys.backend_type with
  | Sys.Native ->
    if allocated <> 0. then
      Alcotest.failf "kernel sweep allocated %.0f minor words over %d steps"
        allocated steps
  | Sys.Bytecode | Sys.Other _ -> () (* bytecode boxes every float *)

(* --- the list-scan reference --- *)

(* Join predicates with one endpoint among [left] and the other among
   [right], in conjunction order — the scan over the whole working
   conjunction. *)
let scan_bridging profile left right =
  List.filter
    (fun p ->
      Query.Predicate.is_join p
      &&
      match Query.Predicate.tables p with
      | [ a; b ] ->
        (List.mem a left && List.mem b right)
        || (List.mem b left && List.mem a right)
      | _ -> false)
    profile.Els.Profile.predicates

(* The cap's input over the scan-bridging predicates: degree statistics of
   each equality predicate's columns, oriented (left side, right side). *)
let scan_step_input profile left ~left_rows ~right_rows preds =
  let degree cref =
    (Els.Profile.column_stats profile cref).Stats.Col_stats.degree
  in
  {
    Els.Estimator.left_rows;
    right_rows;
    degrees =
      List.filter_map
        (fun p ->
          match p with
          | Query.Predicate.Col_cmp { left = l; op = Query.Predicate.Eq; right = r }
            -> begin
            let a, b =
              if List.mem l.Query.Cref.table left then (l, r) else (r, l)
            in
            match (degree a, degree b) with
            | Some da, Some db -> Some (da, db)
            | _, _ -> None
          end
          | Query.Predicate.Col_cmp _ | Query.Predicate.Cmp _ -> None)
        preds;
  }

(* One step's size: size × size' × selectivity, capped by the estimator
   on a predicate-connected step. *)
let scan_size profile left ~left_rows ~right_rows ~sel preds =
  let raw = left_rows *. right_rows *. sel in
  if preds = [] then raw
  else
    match
      Els.Estimator.cap_bound
        (Els.Profile.estimator profile)
        (scan_step_input profile left ~left_rows ~right_rows preds)
    with
    | Some cap -> Float.min raw cap
    | None -> raw

let rows profile name = (Els.Profile.table profile name).Els.Profile.rows

(* Left-deep sizes along [order]: the library's scan selectivity. *)
let scan_history profile order =
  match order with
  | [] -> []
  | first :: rest ->
    let _, _, sizes =
      List.fold_left
        (fun (joined, size, sizes) name ->
          let size =
            scan_size profile joined ~left_rows:size ~right_rows:(rows profile name)
              ~sel:(Els.Incremental.step_selectivity_scan profile joined name)
              (Els.Incremental.eligible_scan profile joined name)
          in
          (joined @ [ name ], size, size :: sizes))
        ([ first ], rows profile first, [])
        rest
    in
    List.rev sizes

let split k l =
  (List.filteri (fun i _ -> i < k) l, List.filteri (fun i _ -> i >= k) l)

(* Bushy probe: bridge the two halves of the order, on the kernel
   (join_states) and on the scan (one class fold per group of the
   bridging predicates). *)
let bushy_sizes profile order =
  let left, right = split (List.length order / 2) order in
  let kernel =
    (Els.Incremental.join_states profile
       (Els.Incremental.estimate_order profile left)
       (Els.Incremental.estimate_order profile right))
      .Els.Incremental.size
  in
  let final names =
    match scan_history profile names with
    | [] -> rows profile (List.hd names)
    | sizes -> List.nth sizes (List.length sizes - 1)
  in
  let preds = scan_bridging profile left right in
  let est = Els.Profile.estimator profile in
  let sel =
    List.fold_left
      (fun acc g ->
        acc
        *. Els.Estimator.combine est (List.map (Els.Selectivity.join profile) g))
      1.
      (Els.Selectivity.group_by_class profile preds)
  in
  let scan =
    scan_size profile left ~left_rows:(final left) ~right_rows:(final right)
      ~sel preds
  in
  (kernel, scan)

let kernel_matches_scan (db, query, names) =
  List.for_all
    (fun config ->
      let profile = Els.prepare config db query in
      List.for_all
        (fun order ->
          List.for_all2 Float.equal
            (Els.Incremental.history (Els.Incremental.estimate_order profile order))
            (scan_history profile order)
          &&
          let kernel, scan = bushy_sizes profile order in
          Float.equal kernel scan)
        (permutations names))
    (configs ())

let prop_kernel_matches_scan =
  QCheck2.Test.make ~count
    ~name:"kernel = list-scan reference (all estimators, all orders)"
    ~print:Test_properties.print_chain_spec Test_properties.gen_chain_spec
    (fun spec -> kernel_matches_scan (build_chain spec))

let prop_kernel_matches_scan_cmp =
  QCheck2.Test.make ~count
    ~name:"kernel = list-scan reference on comparison chains"
    ~print:Test_properties.print_cmp_chain_spec
    Test_properties.gen_cmp_chain_spec (fun spec ->
      kernel_matches_scan (build_cmp_chain spec))

(* --- one-selectivity-per-class regression --- *)

(* Triangle query: joining t3 into {t1, t2} has two eligible predicates in
   ONE equivalence class. The grouping must key on Cref.equal and produce a
   single group, so the estimator combines the two selectivities once
   (min/max/product of both) instead of multiplying two singleton groups —
   the failure mode of the old polymorphic-assoc grouping, observable for
   every non-multiplicative rule. *)
let build_triangle () =
  let rng = Datagen.Prng.create 23 in
  let db = Catalog.Db.create () in
  List.iter
    (fun (name, distinct, mult) ->
      ignore
        (Datagen.Tablegen.register (Datagen.Prng.split rng) db ~table:name
           ~rows:(distinct * mult)
           [ Datagen.Tablegen.column "a" ~distinct ]))
    [ ("t1", 8, 2); ("t2", 5, 3); ("t3", 11, 1) ];
  let link a b =
    Query.Predicate.col_eq (Query.Cref.v a "a") (Query.Cref.v b "a")
  in
  ( db,
    Query.make
      ~tables:[ "t1"; "t2"; "t3" ]
      [ link "t1" "t2"; link "t2" "t3"; link "t1" "t3" ] )

let test_one_selectivity_per_class () =
  let db, query = build_triangle () in
  List.iter
    (fun config ->
      let name = Els.Config.name config in
      let profile = Els.prepare config db query in
      let state =
        Els.Incremental.extend profile
          (Els.Incremental.start profile "t1")
          "t2"
      in
      let eligible = Els.Incremental.eligible profile state "t3" in
      Alcotest.(check int)
        (name ^ ": two predicates reach t3")
        2 (List.length eligible);
      let groups = Els.Selectivity.group_by_class profile eligible in
      Alcotest.(check (list int))
        (name ^ ": one class, both members")
        [ 2 ]
        (List.map List.length groups);
      (* The kernel's step selectivity is the estimator's single
         combination of the class's two selectivities. *)
      let expected =
        Els.Estimator.combine config.Els.Config.estimator
          (List.map (Els.Selectivity.join profile) eligible)
      in
      Alcotest.(check bool)
        (name ^ ": combined once per class")
        true
        (Float.equal expected
           (Els.Incremental.step_selectivity profile state "t3")))
    (Els.Config.panel ())

let suite =
  [
    Alcotest.test_case "kernel: panel estimators compile" `Quick
      test_panel_kernels_compile;
    Alcotest.test_case "kernel: comparison join compiles" `Quick
      test_comparison_join_compiles;
    Alcotest.test_case "kernel: zero minor words per extend step" `Quick
      test_zero_alloc_per_step;
    Alcotest.test_case "kernel: one selectivity per class" `Quick
      test_one_selectivity_per_class;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [ prop_kernel_matches_scan; prop_kernel_matches_scan_cmp ]
