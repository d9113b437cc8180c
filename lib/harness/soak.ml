(* Experiment F11: randomized soak/chaos harness.

   Each iteration draws a random workload (chain or star), optionally
   corrupts its catalog with a random Fault kind, picks a random
   strictness, estimator and enumerator, and drives optimize + execute
   under randomized resource budgets. The contract asserted over the
   whole run:

   - the pipeline never crashes with a raw exception and never hangs
     (every loop is budget-bounded);
   - every produced estimate/cost is finite and non-negative;
   - optimizer deadlines are respected within a wall-clock tolerance;
   - with identical inputs a larger node budget never yields a costlier
     chosen plan (the anytime ladder's monotonicity guarantee);
   - a cancelled execution leaves the budget and work counters in exact
     agreement (rows_used = tuples_read + tuples_output). *)

type summary = {
  iterations : int;
  estimated : int;
  degraded : int;
  crashes : int;
  first_crash : string option;
  non_finite : int;
  first_non_finite : string option;
  trap_propagations : int;
  budget_trips : int;
  degraded_rungs : int;
  monotonicity_checks : int;
  monotonicity_violations : int;
  deadline_checks : int;
  deadline_violations : int;
  executions : int;
  cancelled_runs : int;
  counter_mismatches : int;
  elapsed_s : float;
  metrics : Obs.Metrics.snapshot;
}

let strictnesses =
  [ Catalog.Validate.Strict; Catalog.Validate.Repair; Catalog.Validate.Trap ]

let pick rng list = List.nth list (Rel.Prng.int rng (List.length list))

let random_workload rng =
  let seed = Rel.Prng.int rng 1_000_000 in
  match Rel.Prng.int rng 3 with
  | 0 ->
    Datagen.Workload.chain ~rows_range:(20, 120) ~distinct_range:(3, 40)
      ~seed
      ~n_tables:(Rel.Prng.int_in rng 2 6)
      ()
  | 1 ->
    Datagen.Workload.star
      ~fact_rows:(Rel.Prng.int_in rng 50 200)
      ~dim_rows_range:(10, 60) ~seed
      ~n_dims:(Rel.Prng.int_in rng 1 4)
      ()
  | _ ->
    (* Comparison-join leg: a chain whose last link is an inequality or
       band, exercising the CDF-convolution estimator, the kernel's
       comparison classes and the generalized sort-merge under the same
       chaos (corruption × strictness × budgets) as the equality legs. *)
    let op =
      pick rng
        [
          Query.Predicate.Lt; Query.Predicate.Le; Query.Predicate.Gt;
          Query.Predicate.Ge;
          Query.Predicate.Band (float_of_int (Rel.Prng.int_in rng 0 4));
        ]
    in
    Datagen.Workload.comparison ~rows_range:(20, 120)
      ~distinct_range:(3, 40) ~op ~seed
      ~n_tables:(Rel.Prng.int_in rng 2 4)
      ()

let finite_choice choice =
  let ok x = Float.is_finite x && x >= 0. in
  ok choice.Optimizer.estimated_cost
  && List.for_all ok choice.Optimizer.intermediate_estimates

let run ?(seed = 1) ?iter_seed ?(deadline_ms = 5.) ?(tolerance_ms = 250.)
    ~iters () =
  let master = Rel.Prng.create seed in
  (* [iter_seed] replays exactly one iteration: the failure reports print
     the per-iteration seed, so any soak assertion is reproducible with
     one command regardless of where in the run it fired. *)
  let iters = match iter_seed with Some _ -> 1 | None -> iters in
  let t_start = Unix.gettimeofday () in
  let estimated = ref 0 and degraded = ref 0 in
  let crashes = ref 0 and first_crash = ref None in
  let non_finite = ref 0 and first_non_finite = ref None in
  let trap_propagations = ref 0 in
  let budget_trips = ref 0 and degraded_rungs = ref 0 in
  let mono_checks = ref 0 and mono_violations = ref 0 in
  let dl_checks = ref 0 and dl_violations = ref 0 in
  let executions = ref 0 and cancelled = ref 0 in
  let mismatches = ref 0 in
  let metrics = Obs.Metrics.create () in
  let crash scenario exn =
    incr crashes;
    if !first_crash = None then
      first_crash := Some (Printf.sprintf "%s | %s" (Printexc.to_string exn)
                             scenario)
  in
  for _ = 1 to iters do
    let this_seed =
      match iter_seed with
      | Some s -> s
      | None -> Rel.Prng.int master 1_000_000_000
    in
    let rng = Rel.Prng.create this_seed in
    let spec = random_workload rng in
    let query = spec.Datagen.Workload.query in
    let corruption =
      (* Roughly a third of the iterations run against a corrupted
         catalog crossed from the F9 fault injector. *)
      if Rel.Prng.int rng 3 = 0 then Some (pick rng Fault.all) else None
    in
    let db =
      match corruption with
      | Some kind -> Fault.corrupt_db kind spec.Datagen.Workload.db
      | None -> spec.Datagen.Workload.db
    in
    let strictness = pick rng strictnesses in
    let estimator = pick rng (Els.Estimator.registry ()) in
    let enumerator =
      pick rng
        [
          Optimizer.Exhaustive; Optimizer.Greedy_order;
          Optimizer.Randomized (Rel.Prng.int rng 1_000);
        ]
    in
    let scenario =
      Printf.sprintf
        "scenario: %s | %s | %s | %s | %s | repro: elsdb soak --iter-seed %d"
        (Els.Estimator.label estimator)
        (Catalog.Validate.strictness_name strictness)
        (match enumerator with
        | Optimizer.Exhaustive -> "dp"
        | Optimizer.Greedy_order -> "greedy"
        | Optimizer.Randomized s -> Printf.sprintf "random:%d" s)
        (match corruption with
        | Some kind -> "corrupt:" ^ Fault.name kind
        | None -> "clean")
        (Query.to_string query) this_seed
    in
    let crash = crash scenario in
    let config =
      Els.Config.with_strictness strictness
        (Els.Config.of_estimator estimator)
    in
    (* Leg 1: robustness under a small random node budget (usually
       trips) — never a crash, never a non-finite answer. *)
    let budget =
      if Rel.Prng.bool rng then
        Some (Rel.Budget.create ~node_budget:(Rel.Prng.int rng 30) ())
      else None
    in
    (match Optimizer.choose ~enumerator ?budget config db query with
    | exception Els.Els_error.Error _ -> incr degraded
    | exception exn -> crash exn
    | choice ->
      incr estimated;
      Obs_report.absorb_choice metrics choice;
      if not (finite_choice choice) then begin
        (* Trap mode is observe-only by design: a bad number may
           propagate, but only when the guards counted the violation —
           an uncounted escape is a failure in every mode. *)
        let counted_trap =
          strictness = Catalog.Validate.Trap
          && (Els.Profile.guard_stats choice.Optimizer.profile)
               .Els.Guard.violations > 0
        in
        if counted_trap then incr trap_propagations else incr non_finite;
        if (not counted_trap) && !first_non_finite = None then
          first_non_finite :=
            Some
              (Printf.sprintf "cost %h | estimates [%s] | %s"
                 choice.Optimizer.estimated_cost
                 (String.concat "; "
                    (List.map (Printf.sprintf "%h")
                       choice.Optimizer.intermediate_estimates))
                 scenario)
      end;
      if choice.Optimizer.provenance.Optimizer.Provenance.exhausted <> None
      then begin
        incr budget_trips;
        incr degraded_rungs
      end;
      (* Leg 4: execute the chosen plan under a row budget; whether the
         run completes or is cancelled, the budget's row count must agree
         exactly with the work counters. *)
      let row_budget = Rel.Prng.int_in rng 10 2_000 in
      let b = Rel.Budget.create ~row_budget () in
      incr executions;
      (match
         Exec.Executor.count_result ~budget:b db choice.Optimizer.plan
       with
      | Ok _, counters, _ | Error _, counters, _ ->
        Obs_report.absorb_counters metrics counters;
        Obs_report.absorb_budget metrics b;
        if Rel.Budget.exhausted b <> None then incr cancelled;
        if
          Rel.Budget.rows_used b
          <> counters.Exec.Counters.tuples_read
             + counters.Exec.Counters.tuples_output
        then incr mismatches
      | exception Els.Els_error.Error _ -> incr degraded
      | exception Invalid_argument _ ->
        (* stats-only table or INL shape limits: legitimate refusal *)
        incr degraded
      | exception exn -> crash exn));
    (* Leg 2: budget monotonicity — same inputs, growing node budgets,
       DP + ELS; the chosen cost must never increase. *)
    (match
       List.filter_map
         (fun node_budget ->
           let budget = Rel.Budget.create ~node_budget () in
           match
             Optimizer.choose ~enumerator:Optimizer.Exhaustive ~budget
               (Els.Config.with_strictness Catalog.Validate.Repair
                  Els.Config.els)
               db query
           with
           | choice -> Some choice.Optimizer.estimated_cost
           | exception Els.Els_error.Error _ -> None)
         [ 1; 4; 16; 64; 100_000 ]
     with
    | costs ->
      incr mono_checks;
      (* [costs] is ordered by growing budget: each must be no worse than
         the one before it. *)
      let rec non_increasing = function
        | a :: (b :: _ as rest) -> b <= a && non_increasing rest
        | [ _ ] | [] -> true
      in
      if not (non_increasing costs) then incr mono_violations
    | exception exn -> crash exn);
    (* Leg 3: deadline respect — a real-clock deadline must cancel the
       search within a generous wall-clock tolerance. *)
    (match
       let budget = Rel.Budget.create ~deadline_ms () in
       let t0 = Unix.gettimeofday () in
       let _ =
         Optimizer.choose ~enumerator:Optimizer.Exhaustive ~budget
           (Els.Config.with_strictness Catalog.Validate.Repair Els.Config.els)
           db query
       in
       (Unix.gettimeofday () -. t0) *. 1000.
     with
    | elapsed ->
      incr dl_checks;
      if elapsed > deadline_ms +. tolerance_ms then incr dl_violations
    | exception Els.Els_error.Error _ -> incr degraded
    | exception exn -> crash exn)
  done;
  {
    iterations = iters;
    estimated = !estimated;
    degraded = !degraded;
    crashes = !crashes;
    first_crash = !first_crash;
    non_finite = !non_finite;
    first_non_finite = !first_non_finite;
    trap_propagations = !trap_propagations;
    budget_trips = !budget_trips;
    degraded_rungs = !degraded_rungs;
    monotonicity_checks = !mono_checks;
    monotonicity_violations = !mono_violations;
    deadline_checks = !dl_checks;
    deadline_violations = !dl_violations;
    executions = !executions;
    cancelled_runs = !cancelled;
    counter_mismatches = !mismatches;
    elapsed_s = Unix.gettimeofday () -. t_start;
    metrics = Obs.Metrics.snapshot metrics;
  }

let pass s =
  s.crashes = 0 && s.non_finite = 0
  && s.monotonicity_violations = 0
  && s.deadline_violations = 0
  && s.counter_mismatches = 0

let render s =
  let b = Buffer.create 512 in
  let line fmt = Printf.ksprintf (fun l -> Buffer.add_string b (l ^ "\n")) fmt in
  line "soak: %d iterations in %.2fs" s.iterations s.elapsed_s;
  line "  plans produced:        %d" s.estimated;
  line "  structured refusals:   %d" s.degraded;
  line "  crashes:               %d%s" s.crashes
    (match s.first_crash with
    | Some msg when s.crashes > 0 -> Printf.sprintf "  (first: %s)" msg
    | _ -> "");
  line "  non-finite answers:    %d%s" s.non_finite
    (match s.first_non_finite with
    | Some detail when s.non_finite > 0 ->
      Printf.sprintf "  (first: %s)" detail
    | _ -> "");
  line "  trap propagations:     %d (guard-counted, observe-only mode)"
    s.trap_propagations;
  line "  budget trips:          %d (anytime rung answered %d)" s.budget_trips
    s.degraded_rungs;
  line "  monotonicity:          %d checks, %d violations"
    s.monotonicity_checks s.monotonicity_violations;
  line "  deadlines:             %d checks, %d violations" s.deadline_checks
    s.deadline_violations;
  line "  executions:            %d (%d cancelled, %d counter mismatches)"
    s.executions s.cancelled_runs s.counter_mismatches;
  if not (Obs.Metrics.is_empty s.metrics) then begin
    line "  metrics:";
    List.iter
      (fun l -> if not (String.equal l "") then line "    %s" l)
      (String.split_on_char '\n'
         (Format.asprintf "%a" Obs.Metrics.pp s.metrics))
  end;
  line "soak: %s" (if pass s then "PASS" else "FAIL");
  Buffer.contents b
