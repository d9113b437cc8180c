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

let step_selectivity profile state name =
  Kernel.step_selectivity (Profile.kernel profile) ~mask:state.mask
    ~bit:(Profile.table_bit profile name)

(* --- derivation recording ----------------------------------------------

   When a sink is attached ([Profile.set_derivation]), each estimation step
   appends a record of the classes, rules, input selectivities and d′
   provenance behind its output. The kernel computes the step either way;
   the record reads the step's classes, member predicates, guarded class
   values and cap back from it, so recording never changes (or re-guards)
   a computed value. *)

(* Derivation-card label of one class: ["eq"] for an equality class, the
   comparison's kind for a singleton comparison class. *)
let class_kind pred =
  match Predicate.kind pred with
  | Some k -> Predicate.kind_name k
  | None -> "local"

let column_records profile ~cdf preds =
  let crefs =
    List.rev
      (List.fold_left
         (fun acc p ->
           List.fold_left
             (fun acc c ->
               if List.exists (Query.Cref.equal c) acc then acc else c :: acc)
             acc (Predicate.columns p))
         [] preds)
  in
  (* For a comparison class the selectivity comes from the columns' CDFs,
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

let record_step profile sink ~index ~table ~left_rows ~right_rows ~output =
  let k = Profile.kernel profile in
  let rule = (Profile.estimator profile).Estimator.id in
  (* Kernel predicate indices are positions in [join_pred_ids]. *)
  let info p =
    Profile.pred profile profile.Profile.index.Profile.join_pred_ids.(p)
  in
  let classes =
    List.map
      (fun (members, combined) ->
        let first = info (List.hd members) in
        let kind = class_kind first.Profile.pred in
        let preds = List.map (fun p -> (info p).Profile.pred) members in
        {
          Obs.Derivation.class_root = Query.Cref.to_string first.Profile.root;
          kind;
          rule;
          inputs =
            List.map2
              (fun p pred ->
                (Predicate.to_string pred, Kernel.pred_selectivity k p))
              members preds;
          combined;
          columns =
            column_records profile ~cdf:(not (String.equal kind "eq")) preds;
        })
      (Kernel.step_classes k)
  in
  let cap = Kernel.step_cap k in
  Obs.Derivation.record_step sink
    {
      Obs.Derivation.index;
      table;
      left_rows;
      right_rows;
      classes;
      cap = Option.map fst cap;
      cap_source = Option.map snd cap;
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
  let size =
    Kernel.join_size (Profile.kernel profile) ~mask1:s1.mask ~mask2:s2.mask
      ~size1:s1.size ~size2:s2.size
  in
  (match Profile.derivation profile with
  | Some sink ->
    record_step profile sink
      ~index:(List.length s1.rev_history + List.length s2.rev_history)
      ~table:"⋈" ~left_rows:s1.size ~right_rows:s2.size ~output:size
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
  let size =
    Kernel.extend_size (Profile.kernel profile) ~mask:state.mask ~bit
      ~size:state.size
  in
  (match Profile.derivation profile with
  | Some sink ->
    let table = Profile.table_at profile bit in
    record_step profile sink ~index:(List.length state.rev_history)
      ~table:table.Profile.name ~left_rows:state.size
      ~right_rows:table.Profile.rows ~output:size
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

   The reference the kernel is checked against (property tests, F12):
   eligibility by scanning the whole working conjunction with List.mem
   over the joined set, and uncached class grouping and list folds. *)

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
  let est = Profile.estimator profile in
  List.fold_left
    (fun acc g ->
      acc *. Estimator.combine est (List.map (Selectivity.join profile) g))
    1. groups
