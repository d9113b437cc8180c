module Predicate = Query.Predicate

type state = {
  mask : int;
  size : float;
  rev_history : float list;
}

let joined profile state =
  let names = ref [] in
  for bit = Profile.table_count profile - 1 downto 0 do
    if state.mask land (1 lsl bit) <> 0 then
      names := Profile.table_name profile bit :: !names
  done;
  !names

let history state = List.rev state.rev_history

let start profile name =
  let bit = Profile.table_bit profile name in
  let table = Profile.table_at profile bit in
  (match Profile.derivation profile with
  | Some sink ->
    Obs.Derivation.set_base sink table.Profile.name table.Profile.rows
  | None -> ());
  { mask = 1 lsl bit; size = table.Profile.rows; rev_history = [] }

(* Ids of the join predicates linking [bit]'s table to [mask], via the
   per-table adjacency index: O(degree) instead of a scan of the whole
   working conjunction. Ascending id order = conjunction order. *)
let eligible_ids profile mask bit =
  let index = profile.Profile.index in
  let ids = index.Profile.join_preds_by_table.(bit) in
  let stats = profile.Profile.stats in
  stats.Profile.eligible_probes <-
    stats.Profile.eligible_probes + Array.length ids;
  Array.fold_right
    (fun id acc ->
      match index.Profile.pred_infos.(id).Profile.endpoints with
      | Some (a, b) ->
        let other = if a = bit then b else a in
        if mask land (1 lsl other) <> 0 then id :: acc else acc
      | None -> acc)
    ids []

let eligible profile state name =
  let bit = Profile.table_bit profile name in
  List.map
    (fun id -> (Profile.pred profile id).Profile.pred)
    (eligible_ids profile state.mask bit)

(* Partition eligible predicate ids by their (precomputed) equivalence-
   class root; groups in first-occurrence order, members in id order. All
   roots of one class are the same physically-shared Cref (resolved once at
   build), so the common single-class step short-circuits on [==] without
   allocating group structure. *)
let is_eq_pred profile id =
  match (Profile.pred profile id).Profile.pred with
  | Predicate.Col_cmp { op = Predicate.Eq; _ } -> true
  | Predicate.Col_cmp _ | Predicate.Cmp _ -> false

let class_groups profile ids =
  match ids with
  | [] -> []
  | first :: rest ->
    let root0 = (Profile.pred profile first).Profile.root in
    let same r = r == root0 || Query.Cref.equal r root0 in
    (* The short-circuit additionally requires every member to be an
       equality: comparison predicates never share a class-derived
       selectivity, so equality-only workloads — and only those — take
       the exact pre-generalization path. *)
    if
      is_eq_pred profile first
      && List.for_all
           (fun id ->
             is_eq_pred profile id
             && same (Profile.pred profile id).Profile.root)
           rest
    then [ ids ]
    else begin
      (* Keyed by [Cref.equal] (with the [==] fast path), never by the
         polymorphic [List.assoc_opt]: if [Cref.t] ever grows a field
         where structural (=) diverges from [Cref.equal], a polymorphic
         lookup would silently split one equivalence class in two and
         apply its selectivity twice. Equality predicates group by class
         root; each comparison predicate is an independent constraint and
         stays a singleton group ([None]-tagged, never a merge target). *)
      let groups = ref [] in
      List.iter
        (fun id ->
          if is_eq_pred profile id then begin
            let r = (Profile.pred profile id).Profile.root in
            match
              List.find_opt
                (fun (r', _) ->
                  match r' with
                  | Some r' -> r' == r || Query.Cref.equal r' r
                  | None -> false)
                !groups
            with
            | Some (_, members) -> members := id :: !members
            | None -> groups := (Some r, ref [ id ]) :: !groups
          end
          else groups := (None, ref [ id ]) :: !groups)
        ids;
      List.rev_map (fun (_, members) -> List.rev !members) !groups
    end

let selectivity_of_ids profile ids =
  List.fold_left
    (fun acc group -> acc *. Profile.class_selectivity profile group)
    1. (class_groups profile ids)

let step_selectivity profile state name =
  let bit = Profile.table_bit profile name in
  match Profile.kernel profile with
  | Some k -> Kernel.step_selectivity k ~mask:state.mask ~bit
  | None ->
    Profile.note_kernel_fallback profile;
    selectivity_of_ids profile (eligible_ids profile state.mask bit)

(* Join predicate ids bridging the two (disjoint) masks: one pass over the
   join predicates with O(1) endpoint tests. *)
let eligible_ids_between profile m1 m2 =
  let index = profile.Profile.index in
  let stats = profile.Profile.stats in
  stats.Profile.eligible_probes <-
    stats.Profile.eligible_probes + Array.length index.Profile.join_pred_ids;
  Array.fold_right
    (fun id acc ->
      match index.Profile.pred_infos.(id).Profile.endpoints with
      | Some (a, b) ->
        let ba = 1 lsl a and bb = 1 lsl b in
        if
          (m1 land ba <> 0 && m2 land bb <> 0)
          || (m1 land bb <> 0 && m2 land ba <> 0)
        then id :: acc
        else acc
      | None -> acc)
    index.Profile.join_pred_ids []

let eligible_between profile s1 s2 =
  List.map
    (fun id -> (Profile.pred profile id).Profile.pred)
    (eligible_ids_between profile s1.mask s2.mask)

(* Degree-statistic pairs of the step's bridging equality predicates,
   oriented (already-joined side, new side) by [left_mask]. Comparison
   predicates never pair (their selectivity is CDF-derived, not
   degree-derived), and a column without ANALYZE-collected degree
   sequences contributes no pair — caps degrade on the empty list. *)
let step_degrees profile ~left_mask ids =
  List.filter_map
    (fun id ->
      match (Profile.pred profile id).Profile.pred with
      | Predicate.Col_cmp { left; op = Predicate.Eq; right } -> begin
        let on_left cref =
          left_mask
          land (1 lsl Profile.table_bit profile cref.Query.Cref.table)
          <> 0
        in
        let a, b = if on_left left then (left, right) else (right, left) in
        match
          ( (Profile.column_stats profile a).Stats.Col_stats.degree,
            (Profile.column_stats profile b).Stats.Col_stats.degree )
        with
        | Some da, Some db -> Some (da, db)
        | _, _ -> None
      end
      | Predicate.Col_cmp _ | Predicate.Cmp _ -> None)
    ids

let step_input profile ~left_mask ~left_rows ~right_rows ids =
  {
    Estimator.left_rows;
    right_rows;
    degrees = step_degrees profile ~left_mask ids;
  }

(* The estimator may bound a predicate-connected step's output (e.g. the
   pessimistic degree-1 bound, or the degree-statistics family's Lp-norm
   caps). A cartesian step has no equality class to justify a bound, so
   the cap never applies there; capping below the cartesian product keeps
   the Guard's [~upper] valid unchanged. *)
let capped_size profile ~ids ~left_mask ~left_rows ~right_rows raw =
  match (Profile.estimator profile).Estimator.cap with
  | Some cap when ids <> [] ->
    Float.min raw
      (cap (step_input profile ~left_mask ~left_rows ~right_rows ids))
  | Some _ | None -> raw

(* --- derivation recording ----------------------------------------------

   When a sink is attached ([Profile.set_derivation]), each estimation step
   appends a record of the classes, rules, input selectivities and d′
   provenance behind its output. Every number is re-read through the
   profile's memo caches, so recording never changes a computed value. *)

(* Derivation-card label of one class group: ["eq"] for an equality
   class, the comparison's kind for a singleton comparison group. *)
let group_kind profile group =
  match group with
  | id :: _ -> begin
    match Predicate.kind (Profile.pred profile id).Profile.pred with
    | Some k -> Predicate.kind_name k
    | None -> "local"
  end
  | [] -> "eq"

let column_records profile ~cdf group =
  let crefs =
    List.rev
      (List.fold_left
         (fun acc id ->
           List.fold_left
             (fun acc c ->
               if List.exists (Query.Cref.equal c) acc then acc else c :: acc)
             acc
             (Predicate.columns (Profile.pred profile id).Profile.pred))
         [] group)
  in
  (* For a comparison group the selectivity comes from the columns' CDFs,
     not their d′, so the provenance label names the CDF's backing
     statistic instead of the cardinality derivation. *)
  let cdf_label cref =
    "cdf("
    ^ Stats.Selectivity_est.(
        source_name (cdf_source (Profile.column_stats profile cref)))
    ^ ")"
  in
  List.map
    (fun cref ->
      let table = Profile.table profile cref.Query.Cref.table in
      match Query.Cref.Map.find_opt cref table.Profile.columns with
      | Some col ->
        {
          Obs.Derivation.column = Query.Cref.to_string cref;
          base_distinct = col.Profile.base_distinct;
          join_distinct = Profile.join_card profile cref;
          source = (if cdf then cdf_label cref else col.Profile.d_source);
        }
      | None ->
        (* Never mentioned in predicates: [join_card] falls back to the
           table's row count. *)
        {
          Obs.Derivation.column = Query.Cref.to_string cref;
          base_distinct = table.Profile.base_rows;
          join_distinct = Profile.join_card profile cref;
          source = (if cdf then cdf_label cref else "catalog");
        })
    crefs

let record_step profile ~index ~table ~left_mask ~left_rows ~right_rows ~ids
    ~output sink =
  let rule = (Profile.estimator profile).Estimator.id in
  let classes =
    List.map
      (fun group ->
        let kind = group_kind profile group in
        {
          Obs.Derivation.class_root =
            Query.Cref.to_string (Profile.pred profile (List.hd group)).Profile.root;
          kind;
          rule;
          inputs =
            List.map
              (fun id ->
                ( Predicate.to_string (Profile.pred profile id).Profile.pred,
                  Profile.join_selectivity profile id ))
              group;
          combined = Profile.class_selectivity profile group;
          columns =
            column_records profile ~cdf:(not (String.equal kind "eq")) group;
        })
      (class_groups profile ids)
  in
  let cap, cap_source =
    let est = Profile.estimator profile in
    match est.Estimator.cap with
    | Some cap when ids <> [] ->
      let input = step_input profile ~left_mask ~left_rows ~right_rows ids in
      ( Some (cap input),
        match est.Estimator.cap_note with
        | Some note -> Some (note input)
        | None -> None )
    | Some _ | None -> (None, None)
  in
  Obs.Derivation.record_step sink
    {
      Obs.Derivation.index;
      table;
      left_rows;
      right_rows;
      classes;
      cap;
      cap_source;
      output;
    }

let join_states profile s1 s2 =
  let overlap = s1.mask land s2.mask in
  if overlap <> 0 then begin
    let rec first_bit b = if overlap land (1 lsl b) <> 0 then b else first_bit (b + 1) in
    invalid_arg
      (Printf.sprintf "Incremental.join_states: %s on both sides"
         (Profile.table_name profile (first_bit 0)))
  end;
  (* The kernel path can serve any step no sink wants to observe; with a
     sink attached the interpreted path runs (recording per-step
     provenance) and produces bit-identical numbers. *)
  match (Profile.derivation profile, Profile.kernel profile) with
  | None, Some k ->
    let size =
      Kernel.join_size k ~mask1:s1.mask ~mask2:s2.mask ~size1:s1.size
        ~size2:s2.size
    in
    {
      mask = s1.mask lor s2.mask;
      size;
      rev_history = size :: List.append s2.rev_history s1.rev_history;
    }
  | (Some _ | None), _ ->
    Profile.note_kernel_fallback profile;
    let ids = eligible_ids_between profile s1.mask s2.mask in
    let s = selectivity_of_ids profile ids in
    let size =
      Guard.cardinality profile.Profile.guard ~site:"Incremental.join_states"
        ~upper:(s1.size *. s2.size)
        (capped_size profile ~ids ~left_mask:s1.mask ~left_rows:s1.size
           ~right_rows:s2.size
           (s1.size *. s2.size *. s))
    in
    (match Profile.derivation profile with
    | Some sink ->
      record_step profile
        ~index:(List.length s1.rev_history + List.length s2.rev_history)
        ~table:"⋈" ~left_mask:s1.mask ~left_rows:s1.size ~right_rows:s2.size
        ~ids ~output:size sink
    | None -> ());
    {
      mask = s1.mask lor s2.mask;
      size;
      rev_history = size :: List.append s2.rev_history s1.rev_history;
    }

let extend profile state name =
  let bit = Profile.table_bit profile name in
  if state.mask land (1 lsl bit) <> 0 then
    invalid_arg
      (Printf.sprintf "Incremental.extend: %s already joined"
         (Profile.normalize name));
  match (Profile.derivation profile, Profile.kernel profile) with
  | None, Some k ->
    let size = Kernel.extend_size k ~mask:state.mask ~bit ~size:state.size in
    {
      mask = state.mask lor (1 lsl bit);
      size;
      rev_history = size :: state.rev_history;
    }
  | (Some _ | None), _ ->
    Profile.note_kernel_fallback profile;
    let table = Profile.table_at profile bit in
    let ids = eligible_ids profile state.mask bit in
    let s = selectivity_of_ids profile ids in
    let size =
      (* S ≤ 1, so a step can never exceed the cartesian bound of the two
         inputs. *)
      Guard.cardinality profile.Profile.guard ~site:"Incremental.extend"
        ~upper:(state.size *. table.Profile.rows)
        (capped_size profile ~ids ~left_mask:state.mask ~left_rows:state.size
           ~right_rows:table.Profile.rows
           (state.size *. table.Profile.rows *. s))
    in
    (match Profile.derivation profile with
    | Some sink ->
      record_step profile
        ~index:(List.length state.rev_history)
        ~table:table.Profile.name ~left_mask:state.mask ~left_rows:state.size
        ~right_rows:table.Profile.rows ~ids ~output:size sink
    | None -> ());
    {
      mask = state.mask lor (1 lsl bit);
      size;
      rev_history = size :: state.rev_history;
    }

let estimate_order profile order =
  match order with
  | [] -> invalid_arg "Incremental.estimate_order: empty join order"
  | first :: rest ->
    List.fold_left (fun st name -> extend profile st name) (start profile first)
      rest

let final_size profile order = (estimate_order profile order).size

(* --- reference list-scan implementations -------------------------------

   The pre-index hot path, kept as the oracle the property tests compare
   against: eligibility by scanning the whole working conjunction with
   List.mem over the joined set, and uncached rule combination. *)

let eligible_scan profile joined name =
  let name = Profile.normalize name in
  List.filter
    (fun p ->
      Predicate.is_join p
      &&
      match Predicate.tables p with
      | [ a; b ] ->
        (String.equal a name && List.mem b joined)
        || (String.equal b name && List.mem a joined)
      | _ -> false)
    profile.Profile.predicates

let step_selectivity_scan profile joined name =
  let preds = eligible_scan profile joined name in
  let groups = Selectivity.group_by_class profile preds in
  let combine = (Profile.estimator profile).Estimator.combine in
  List.fold_left
    (fun acc g -> acc *. combine (List.map (Selectivity.join profile) g))
    1. groups
