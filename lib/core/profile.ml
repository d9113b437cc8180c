module Cref = Query.Cref
module Predicate = Query.Predicate

type column_profile = {
  cref : Cref.t;
  base_distinct : float;
  local_distinct : float;
  join_distinct : float;
  d_source : string;
  col_stats : Stats.Col_stats.t;
}

type table_profile = {
  name : string;
  source : string;
  base_rows : float;
  rows : float;
  local_selectivity : float;
  columns : column_profile Cref.Map.t;
}

type pred_info = {
  pred : Predicate.t;
  id : int;
  root : Cref.t;
  endpoints : (int * int) option;
}

type cache_stats = {
  mutable sel_hits : int;
  mutable sel_misses : int;
  mutable eligible_probes : int;
}

type index = {
  table_names : string array;
  table_bits : (string, int) Hashtbl.t;
  profiles : table_profile array;
  pred_infos : pred_info array;
  join_pred_ids : int array;
  join_preds_by_table : int array array;
  local_preds_by_table : Predicate.t list array;
}

type t = {
  config : Config.t;
  predicates : Predicate.t list;
  classes : Eqclass.t;
  tables : (string * table_profile) list;
  index : index;
  sel_cache : float array;
  stats : cache_stats;
  guard : Guard.t;
  validation : Catalog.Validate.issue list;
  annotations : string list;
  mutable deriv : Obs.Derivation.t option;
  mutable kernel : Kernel.t option;
}

(* Hot-path friendly: names are almost always lowercase already, so avoid
   allocating a copy unless an uppercase letter is present. *)
let normalize s =
  let rec lowercase i =
    i >= String.length s
    || (match s.[i] with 'A' .. 'Z' -> false | _ -> lowercase (i + 1))
  in
  if lowercase 0 then s else String.lowercase_ascii s

let ceil_pos x = if x <= 0. then 0. else Float.ceil x

let stats_of guard db_table column =
  match Catalog.Table.col_stats db_table column with
  | Some s -> s
  | None ->
    (* Degrade to the key-column worst case; counted so missing statistics
       are visible in the guard report rather than silent. *)
    Guard.note_fallback guard;
    Stats.Col_stats.trivial ~distinct:(Catalog.Table.distinct db_table column)

(* Columns of [table] mentioned in the working predicates. *)
let predicate_columns predicates table =
  List.fold_left
    (fun acc p ->
      List.fold_left
        (fun acc c ->
          if String.equal c.Cref.table table then Cref.Set.add c acc else acc)
        acc (Predicate.columns p))
    Cref.Set.empty predicates

(* Constant predicates of the working set, per column of [table]. *)
let const_preds_on predicates col =
  List.filter_map
    (fun p ->
      match p with
      | Predicate.Cmp { col = c; op; const } when Cref.equal c col ->
        Some (op, const)
      | Predicate.Cmp _ | Predicate.Col_cmp _ -> None)
    predicates

(* Intra-table column equalities of [table], as column pairs. *)
let intra_table_equalities predicates table =
  List.filter_map
    (fun p ->
      match p with
      | Predicate.Col_cmp { left; op = Predicate.Eq; right }
        when Cref.same_table left right
             && String.equal left.Cref.table table ->
        Some (left, right)
      | Predicate.Col_cmp _ | Predicate.Cmp _ -> None)
    predicates

(* Steps 3-4: fold the constant local predicates of one table into its row
   count and column cardinalities. *)
let local_effects guard db_table predicates columns =
  let base_rows = float_of_int db_table.Catalog.Table.row_count in
  let per_column =
    List.map
      (fun col ->
        let stats = stats_of guard db_table col.Cref.column in
        let preds = const_preds_on predicates col in
        let combined = Local_pred.combine stats preds in
        let combined =
          { combined with
            Local_pred.selectivity =
              Guard.selectivity guard ~site:"Profile.local_pred"
                combined.Local_pred.selectivity }
        in
        (col, stats, preds, combined))
      (Cref.Set.elements columns)
  in
  let selectivity =
    List.fold_left
      (fun acc (_, _, _, combined) -> acc *. combined.Local_pred.selectivity)
      1. per_column
  in
  let rows =
    Guard.cardinality guard ~site:"Profile.local_rows"
      ~upper:(Float.max 0. base_rows)
      (base_rows *. selectivity)
  in
  (* Label which statistic shaped a column's d′ (the derivation card's
     vocabulary). Pure observation: [Selectivity_est.comparison_source]
     mirrors the estimator's branch structure without computing numbers. *)
  let d_source_of stats preds combined =
    let src op c =
      Stats.Selectivity_est.(source_name (comparison_source stats op c))
    in
    match combined.Local_pred.restriction with
    | Local_pred.Contradiction -> "contradiction"
    | Local_pred.Equality v -> "equality(" ^ src Rel.Cmp.Eq v ^ ")"
    | Local_pred.Range _ -> begin
      let is_range (op, _) =
        match op with
        | Rel.Cmp.Lt | Rel.Cmp.Le | Rel.Cmp.Gt | Rel.Cmp.Ge -> true
        | Rel.Cmp.Eq | Rel.Cmp.Ne -> false
      in
      match List.find_opt is_range preds with
      | Some (op, c) -> "range(" ^ src op c ^ ")"
      | None -> "ne" (* only <> predicates restrict this column *)
    end
    | Local_pred.Unrestricted -> if rows >= base_rows then "base" else "urn"
  in
  let column_profiles =
    List.fold_left
      (fun acc (col, stats, preds, combined) ->
        let base_distinct = float_of_int stats.Stats.Col_stats.distinct in
        let local_distinct =
          match combined.Local_pred.restriction with
          | Local_pred.Unrestricted ->
            (* Thinning caused by other columns' predicates (Section 5's
               urn argument). *)
            if rows >= base_rows then base_distinct
            else Stats.Urn.expected_distinct ~urns:base_distinct ~balls:rows
          | Local_pred.Equality _ | Local_pred.Range _ | Local_pred.Contradiction
            ->
            (* Direct effect on the predicated column itself; never more
               than the surviving rows. *)
            Float.min (Local_pred.reduced_distinct stats combined) rows
        in
        let local_distinct =
          (* d′ ∈ [1, d] only when the table and column are nonempty;
             degenerate inputs legitimately drive d′ to 0. *)
          if rows >= 1. && base_distinct >= 1. then
            Guard.distinct guard ~site:"Profile.local_distinct"
              ~d:base_distinct local_distinct
          else
            Guard.cardinality guard ~site:"Profile.local_distinct"
              ~upper:(Float.max 0. base_distinct)
              local_distinct
        in
        Cref.Map.add col
          { cref = col; base_distinct; local_distinct;
            join_distinct = local_distinct;
            d_source = d_source_of stats preds combined;
            col_stats = stats }
          acc)
      Cref.Map.empty per_column
  in
  (base_rows, rows, selectivity, column_profiles)

(* Step 5, Section 6: single-table j-equivalent columns. Returns the
   adjusted row count and column map. *)
let single_table_effects guard classes rows columns =
  (* Group this table's predicate columns by equivalence class. *)
  let by_class = Hashtbl.create 8 in
  Cref.Map.iter
    (fun col profile ->
      let root = Eqclass.find classes col in
      let existing =
        Option.value (Hashtbl.find_opt by_class root) ~default:[]
      in
      Hashtbl.replace by_class root (profile :: existing))
    columns;
  Hashtbl.fold
    (fun _root members (rows, columns) ->
      match members with
      | [] | [ _ ] -> (rows, columns)
      | _ :: _ :: _ ->
        let sorted =
          List.sort
            (fun a b -> Float.compare a.local_distinct b.local_distinct)
            members
        in
        let smallest = List.hd sorted in
        let larger = List.tl sorted in
        let divisor =
          List.fold_left (fun acc c -> acc *. c.local_distinct) 1. larger
        in
        let rows' =
          if divisor <= 0. then 0. else ceil_pos (rows /. divisor)
        in
        let rows' =
          Guard.cardinality guard ~site:"Profile.single_table_rows"
            ~upper:(ceil_pos rows) rows'
        in
        let rep_card =
          ceil_pos
            (Stats.Urn.expected_distinct ~urns:smallest.local_distinct
               ~balls:rows')
        in
        let rep_card =
          Guard.cardinality guard ~site:"Profile.single_table_rep_card"
            ~upper:(ceil_pos smallest.local_distinct)
            rep_card
        in
        let columns =
          List.fold_left
            (fun acc member ->
              Cref.Map.add member.cref
                { member with
                  join_distinct = rep_card;
                  d_source = "single-table(" ^ member.d_source ^ ")" }
                acc)
            columns sorted
        in
        (rows', columns))
    by_class (rows, columns)

(* Classic Selinger handling of intra-table equalities, used when the
   Section 6 treatment is switched off: each predicate contributes an
   independent 1/max(d1,d2) factor to the row count. *)
let selinger_intra_table_effects predicates table_name rows columns =
  List.fold_left
    (fun rows (left, right) ->
      let card c =
        match Cref.Map.find_opt c columns with
        | Some p -> p.base_distinct
        | None -> 1.
      in
      let m = Float.max (card left) (card right) in
      if m <= 0. then 0. else rows /. m)
    rows
    (intra_table_equalities predicates table_name)

(* Audit one catalog table under the configured strictness before its
   numbers enter any formula. Only tables the query references are
   audited, so validation cost scales with the query, not the catalog. *)
let validated_table config guard note_issues db source =
  let db_table = Catalog.Db.find_exn db source in
  match config.Config.strictness with
  | Config.Strict -> begin
    match Catalog.Validate.check_table db_table with
    | [] -> db_table
    | issue :: _ -> Els_error.raise_ (Els_error.of_issue issue)
  end
  | Config.Repair ->
    let repaired, issues = Catalog.Validate.repair_table db_table in
    let stats = Guard.stats guard in
    List.iter
      (fun _ ->
        stats.Guard.violations <- stats.Guard.violations + 1;
        stats.Guard.repairs <- stats.Guard.repairs + 1)
      issues;
    note_issues issues;
    repaired
  | Config.Trap ->
    let issues = Catalog.Validate.check_table db_table in
    let stats = Guard.stats guard in
    List.iter
      (fun _ -> stats.Guard.violations <- stats.Guard.violations + 1)
      issues;
    note_issues issues;
    db_table

let build_table config guard predicates classes db_table query_table ~source =
  let columns = predicate_columns predicates query_table in
  let base_rows, rows, _selectivity, column_profiles =
    local_effects guard db_table predicates columns
  in
  let rows, column_profiles =
    if config.Config.single_table then
      single_table_effects guard classes rows column_profiles
    else
      ( selinger_intra_table_effects predicates query_table rows
          column_profiles,
        column_profiles )
  in
  let local_selectivity = if base_rows <= 0. then 0. else rows /. base_rows in
  {
    name = query_table;
    source;
    base_rows;
    rows;
    local_selectivity;
    columns = column_profiles;
  }

(* Canonical table -> bit mapping (FROM order) plus per-table predicate
   indexes, all resolved once per profile: predicate equivalence-class
   roots, the bit pair of each join predicate's endpoints, and each
   table's pushed-down local predicates. *)
let build_index classes tables working =
  let n = List.length tables in
  if n > 62 then
    invalid_arg "Profile.build: more than 62 tables (bitset index limit)";
  let table_names = Array.of_list (List.map fst tables) in
  let profiles = Array.of_list (List.map snd tables) in
  let table_bits = Hashtbl.create (2 * n) in
  Array.iteri (fun bit name -> Hashtbl.replace table_bits name bit) table_names;
  let bit_of name = Hashtbl.find table_bits name in
  let pred_infos =
    Array.of_list
      (List.mapi
         (fun id p ->
           let root =
             match Predicate.columns p with
             | col :: _ -> Eqclass.find classes col
             | [] -> assert false
           in
           let endpoints =
             if Predicate.is_join p then
               match Predicate.tables p with
               | [ a; b ] -> Some (bit_of a, bit_of b)
               | _ -> None
             else None
           in
           { pred = p; id; root; endpoints })
         working)
  in
  let join_rev = ref [] in
  let by_table = Array.make n [] in
  let local_rev = Array.make n [] in
  Array.iter
    (fun info ->
      match info.endpoints with
      | Some (a, b) ->
        join_rev := info.id :: !join_rev;
        by_table.(a) <- info.id :: by_table.(a);
        if b <> a then by_table.(b) <- info.id :: by_table.(b)
      | None -> begin
        match Predicate.tables info.pred with
        | [ t ] -> local_rev.(bit_of t) <- info.pred :: local_rev.(bit_of t)
        | _ -> ()
      end)
    pred_infos;
  {
    table_names;
    table_bits;
    profiles;
    pred_infos;
    join_pred_ids = Array.of_list (List.rev !join_rev);
    join_preds_by_table =
      Array.map (fun ids -> Array.of_list (List.rev ids)) by_table;
    local_preds_by_table = Array.map List.rev local_rev;
  }

let build ?trace ?(annotations = []) config db query =
  Obs.Trace.with_span trace "profile" @@ fun () ->
  let deduped = Predicate.Set.elements (Predicate.Set.of_list query.Query.predicates) in
  let working =
    if config.Config.closure then (Closure.compute deduped).Closure.predicates
    else deduped
  in
  let classes = Eqclass.of_predicates working in
  let guard = Guard.create config.Config.strictness in
  let issues = ref [] in
  let note_issues found = issues := List.rev_append found !issues in
  (* Validation is its own phase: every referenced table is audited before
     any of its numbers enter a formula. *)
  let validated =
    Obs.Trace.with_span trace "validate" @@ fun () ->
    let tables =
      List.map
        (fun name ->
          let source = Query.source query name in
          (name, source, validated_table config guard note_issues db source))
        query.Query.tables
    in
    Obs.Trace.attr_int trace "tables" (List.length tables);
    Obs.Trace.attr_int trace "issues" (List.length !issues);
    tables
  in
  Obs.Trace.attr_int trace "predicates" (List.length working);
  let tables =
    List.map
      (fun (name, source, db_table) ->
        (name, build_table config guard working classes db_table name ~source))
      validated
  in
  let index = build_index classes tables working in
  {
    config;
    predicates = working;
    classes;
    tables;
    index;
    sel_cache = Array.make (Array.length index.pred_infos) Float.nan;
    stats = { sel_hits = 0; sel_misses = 0; eligible_probes = 0 };
    guard;
    validation = List.rev !issues;
    annotations;
    deriv = None;
    kernel = None;
  }

let build_result ?trace ?annotations config db query =
  match build ?trace ?annotations config db query with
  | profile -> Ok profile
  | exception Els_error.Error e -> Error e
  | exception Invalid_argument msg ->
    Error (Els_error.Invalid_query { detail = msg })
  | exception Not_found ->
    Error
      (Els_error.Invalid_query
         { detail = "a query table or column is missing from the catalog" })

let table_count t = Array.length t.index.table_names
let table_bit t name = Hashtbl.find t.index.table_bits (normalize name)
let table_name t bit = t.index.table_names.(bit)
let table_at t bit = t.index.profiles.(bit)
let table t name = table_at t (table_bit t name)

let pred_count t = Array.length t.index.pred_infos
let pred t id = t.index.pred_infos.(id)
let scan_filters t name = t.index.local_preds_by_table.(table_bit t name)

let cache_stats t = t.stats

let guard t = t.guard
let guard_stats t = Guard.stats t.guard
let validation_issues t = t.validation

(* Derivation recording is opt-in per profile and normally attached only
   around a single estimation pass — during DP enumeration the same profile
   serves thousands of candidate steps, which would swamp the sink. *)
let set_derivation t d =
  (* A profile built against a stale epoch carries staleness annotations;
     stamp them onto every sink attached to it so the explain card always
     discloses which statistics were not fresh. *)
  (match d with
  | Some sink ->
    List.iter (fun note -> Obs.Derivation.annotate sink note) t.annotations
  | None -> ());
  t.deriv <- d

let derivation t = t.deriv

let join_card t cref =
  let profile = table t cref.Cref.table in
  match Cref.Map.find_opt cref profile.columns with
  | Some col ->
    if t.config.Config.local_aware then col.join_distinct
    else col.base_distinct
  | None ->
    (* A column never mentioned in predicates: fall back to its catalog
       cardinality. Callers only reach this for ad-hoc estimates. *)
    profile.base_rows

let column_stats t cref =
  let profile = table t cref.Cref.table in
  match Cref.Map.find_opt cref profile.columns with
  | Some col -> col.col_stats
  | None ->
    (* A column never mentioned in predicates carries no distribution
       information worth convolving; the estimators fall back to the
       System R defaults. *)
    Stats.Col_stats.trivial ~distinct:0

let selectivity_of_cards d1 d2 =
  let m = Float.max d1 d2 in
  if d1 <= 0. || d2 <= 0. then 0. else Float.min 1. (1. /. m)

(* Raw (unguarded, uncached) selectivity of one column-comparison
   predicate. Equality is the paper's 1/max(d1, d2) over the effective
   cardinalities; inequality and band go through the histogram-CDF
   convolution of {!Stats.Selectivity_est}, the rule-2d generalization. *)
let comparison_selectivity t ~left ~op ~right =
  match op with
  | Predicate.Eq ->
    selectivity_of_cards (join_card t left) (join_card t right)
  | Predicate.Band eps ->
    Stats.Selectivity_est.join_band (column_stats t left) ~eps
      (column_stats t right)
  | Predicate.Lt | Predicate.Le | Predicate.Gt | Predicate.Ge ->
    let cmp_op =
      match Predicate.cmp_of_comparison op with
      | Some o -> o
      | None -> assert false
    in
    Stats.Selectivity_est.join_comparison (column_stats t left) cmp_op
      (column_stats t right)

let join_selectivity t id =
  let compute () =
    match t.index.pred_infos.(id).pred with
    | Predicate.Col_cmp { left; op; right } ->
      Guard.selectivity t.guard ~site:"Profile.join_selectivity"
        (comparison_selectivity t ~left ~op ~right)
    | Predicate.Cmp _ ->
      invalid_arg "Profile.join_selectivity: not a join predicate"
  in
  (* NaN marks an unfilled slot: real selectivities live in [0, 1], and a
     flat float array keeps the hit path unboxed. *)
  let s = t.sel_cache.(id) in
  if Float.is_nan s then begin
    t.stats.sel_misses <- t.stats.sel_misses + 1;
    let s = compute () in
    t.sel_cache.(id) <- s;
    s
  end
  else begin
    t.stats.sel_hits <- t.stats.sel_hits + 1;
    s
  end

let estimator t = t.config.Config.estimator

let with_estimator e t =
  (* The compiled kernel bakes in the estimator, so the swapped copy
     recompiles lazily. *)
  { t with config = Config.with_estimator e t.config; kernel = None }

(* --- kernel compilation -------------------------------------------------

   Lowering a profile to a [Kernel.t]: class roots interned as dense ids
   (one per equality class, one per comparison or band predicate), the
   per-table adjacency re-laid out as CSR int arrays with precomputed
   other-endpoint bitmasks, every join selectivity evaluated once into a
   float array, and the degree statistics a [Degree] cap reads. Every
   estimator lowers: the kernel matches on its fold and cap as data.
   Selectivities go through the memoized [join_selectivity], so guard
   semantics and violation accounting are those of one pass over the
   join predicates. *)

let compile_kernel t =
  let index = t.index in
  let n = Array.length index.table_names in
  let jids = index.join_pred_ids in
  (* Predicate id -> dense position in [jids] (ascending conjunction
     order, the kernel's canonical predicate order). *)
  let jpos = Array.make (Array.length index.pred_infos) (-1) in
  Array.iteri (fun j id -> jpos.(id) <- j) jids;
  let rows = Array.init n (fun bit -> index.profiles.(bit).rows) in
  let pred_sel = Array.map (fun id -> join_selectivity t id) jids in
  (* Equality predicates share their class root's id ([Cref.equal]-keyed,
     never polymorphic); each comparison predicate is an independent
     constraint with an id of its own. *)
  let roots = ref [] in
  let n_classes = ref 0 in
  let fresh () =
    let c = !n_classes in
    incr n_classes;
    c
  in
  let class_of root =
    match List.find_opt (fun (r, _) -> Cref.equal r root) !roots with
    | Some (_, c) -> c
    | None ->
      let c = fresh () in
      roots := (root, c) :: !roots;
      c
  in
  let pred_class =
    Array.map
      (fun id ->
        let info = index.pred_infos.(id) in
        match info.pred with
        | Predicate.Col_cmp { op = Predicate.Eq; _ } -> class_of info.root
        | Predicate.Col_cmp _ | Predicate.Cmp _ -> fresh ())
      jids
  in
  let endpoints id =
    match index.pred_infos.(id).endpoints with
    | Some ends -> ends
    | None -> assert false (* [join_pred_ids] only holds joins *)
  in
  let pred_mask_a = Array.map (fun id -> 1 lsl fst (endpoints id)) jids in
  let pred_mask_b = Array.map (fun id -> 1 lsl snd (endpoints id)) jids in
  (* Degree statistics of an equality predicate's columns, ordered
     (endpoint a, endpoint b); comparison predicates never pair. *)
  let pred_degrees =
    Array.map
      (fun id ->
        match index.pred_infos.(id).pred with
        | Predicate.Col_cmp { left; op = Predicate.Eq; right } -> begin
          let a, b =
            if table_bit t left.Cref.table = fst (endpoints id) then
              (left, right)
            else (right, left)
          in
          match
            ( (column_stats t a).Stats.Col_stats.degree,
              (column_stats t b).Stats.Col_stats.degree )
          with
          | Some da, Some db -> Some (da, db)
          | _, _ -> None
        end
        | Predicate.Col_cmp _ | Predicate.Cmp _ -> None)
      jids
  in
  (* CSR re-layout of [join_preds_by_table], same per-table order. *)
  let adj_off = Array.make (n + 1) 0 in
  for bit = 0 to n - 1 do
    adj_off.(bit + 1) <-
      adj_off.(bit) + Array.length index.join_preds_by_table.(bit)
  done;
  let adj_pred = Array.make adj_off.(n) 0 in
  let adj_other_mask = Array.make adj_off.(n) 0 in
  for bit = 0 to n - 1 do
    Array.iteri
      (fun i id ->
        let slot = adj_off.(bit) + i in
        let a, b = endpoints id in
        adj_pred.(slot) <- jpos.(id);
        adj_other_mask.(slot) <- 1 lsl (if a = bit then b else a))
      index.join_preds_by_table.(bit)
  done;
  Kernel.make ~rows ~adj_off ~adj_pred ~adj_other_mask ~pred_sel ~pred_class
    ~pred_mask_a ~pred_mask_b ~pred_degrees ~n_classes:!n_classes
    ~estimator:(estimator t) ~guard:t.guard

let kernel t =
  match t.kernel with
  | Some k -> k
  | None ->
    let k = compile_kernel t in
    t.kernel <- Some k;
    k

let kernel_steps t =
  match t.kernel with Some k -> Kernel.steps k | None -> 0

let kernel_fallback_steps _ = 0
