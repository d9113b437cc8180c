type node = {
  plan : Exec.Plan.t;
  state : Els.Incremental.state;
  cost : float;
}

let scan_filters profile table = Els.Profile.scan_filters profile table

let method_applicable method_ eligible =
  match method_ with
  | Exec.Plan.Nested_loop -> true
  (* Sort-merge handles any comparison join (its driver generalizes to
     inequality/band windows); hash and index lookups need an equality
     key to probe on. *)
  | Exec.Plan.Sort_merge -> eligible <> []
  | Exec.Plan.Hash | Exec.Plan.Index_nested_loop ->
    List.exists Query.Predicate.is_equijoin eligible

let scan_node profile table =
  let tp = Els.Profile.table profile table in
  {
    plan =
      Exec.Plan.scan ~source:tp.Els.Profile.source
        ~filters:(scan_filters profile table) table;
    state = Els.Incremental.start profile table;
    cost = Cost.scan ~base_rows:tp.Els.Profile.base_rows;
  }

(* Added cost of joining [table] as the inner of [node] with [method_]. *)
let join_cost profile node table method_ ~out_rows =
  let tp = Els.Profile.table profile table in
  let outer_rows = node.state.Els.Incremental.size in
  let inner_base_rows = tp.Els.Profile.base_rows in
  let inner_rows = tp.Els.Profile.rows in
  match method_ with
  | Exec.Plan.Nested_loop ->
    Cost.nested_loop ~outer_rows ~inner_base_rows ~out_rows
  | Exec.Plan.Sort_merge ->
    Cost.sort_merge ~outer_rows ~inner_base_rows ~inner_rows ~out_rows
  | Exec.Plan.Hash ->
    Cost.hash ~outer_rows ~inner_base_rows ~inner_rows ~out_rows
  | Exec.Plan.Index_nested_loop ->
    Cost.index_nested_loop ~outer_rows ~inner_base_rows ~out_rows

let extend profile node table method_ eligible =
  let state = Els.Incremental.extend profile node.state table in
  let cost =
    node.cost
    +. join_cost profile node table method_
         ~out_rows:state.Els.Incremental.size
  in
  let tp = Els.Profile.table profile table in
  let inner =
    Exec.Plan.scan ~source:tp.Els.Profile.source
      ~filters:(scan_filters profile table) table
  in
  {
    plan =
      Exec.Plan.Join
        { method_; outer = node.plan; inner; predicates = eligible };
    state;
    cost;
  }

(* A step with no eligible equi-key and no nested loop in [methods] has no
   physical operator at all: structured refusal, never [assert false]. *)
let no_method_error methods tables =
  Els.Els_error.raise_
    (Els.Els_error.Invalid_query
       {
         detail =
           Printf.sprintf
             "no applicable join method for %s: the allowed methods (%s) \
              all need an eligible join predicate (an equality for \
              hash/index) and this step has none (allow nested loop to \
              plan cartesian steps)"
             (match tables with
             | [ t ] -> Printf.sprintf "table %S" t
             | ts -> Printf.sprintf "tables %s" (String.concat ", " ts))
             (String.concat ", " (List.map Exec.Plan.method_name methods));
       })

let no_charge () = ()

let best_extension ?(charge = no_charge) profile methods node table =
  let eligible = Els.Incremental.eligible profile node.state table in
  let candidates =
    List.filter_map
      (fun method_ ->
        if method_applicable method_ eligible then begin
          charge ();
          Some (extend profile node table method_ eligible)
        end
        else None)
      methods
  in
  match candidates with
  | [] -> None
  | first :: rest ->
    let best =
      List.fold_left
        (fun acc node' -> if node'.cost < acc.cost then node' else acc)
        first rest
    in
    Some (best, eligible <> [])

let complete_order ?charge ~methods profile node order =
  List.fold_left
    (fun node table ->
      match best_extension ?charge profile methods node table with
      | Some (node', _) -> node'
      | None -> no_method_error methods [ table ])
    node order

let plan_order ?charge ~methods profile order =
  match order with
  | [] -> invalid_arg "Dp.plan_order: empty order"
  | first :: rest ->
    complete_order ?charge ~methods profile (scan_node profile first) rest

let greedy_complete ?charge ~methods profile node remaining =
  let rec grow node remaining =
    if remaining = [] then node
    else begin
      let candidates =
        List.filter_map
          (fun table ->
            Option.map
              (fun (node', connected) -> (table, node', connected))
              (best_extension ?charge profile methods node table))
          remaining
      in
      (* Prefer predicate-connected extensions, as DP does. *)
      let connected = List.filter (fun (_, _, c) -> c) candidates in
      let pool = if connected <> [] then connected else candidates in
      match pool with
      | [] -> no_method_error methods remaining
      | first :: rest ->
        let table, node', _ =
          List.fold_left
            (fun (bt, bn, bc) (t, n, c) ->
              if n.cost < bn.cost then (t, n, c) else (bt, bn, bc))
            first rest
        in
        grow node'
          (List.filter (fun t -> not (String.equal t table)) remaining)
    end
  in
  grow node remaining

let optimize_traced
    ?(methods = [ Exec.Plan.Nested_loop; Exec.Plan.Sort_merge; Exec.Plan.Hash ])
    ?estimator ?budget profile query =
  if methods = [] then invalid_arg "Dp.optimize: no join methods";
  let profile =
    match estimator with
    | None -> profile
    | Some e -> Els.Profile.with_estimator e profile
  in
  let tables = Array.of_list query.Query.tables in
  let n = Array.length tables in
  if n = 0 then invalid_arg "Dp.optimize: query with no tables";
  if n > 20 then invalid_arg "Dp.optimize: too many tables for exact DP";
  let expansions = ref 0 in
  (* One node expansion = one [extend] (or seed scan) charged to the
     budget; [spend_node] also probes the deadline, so exhaustion is
     detected within one expansion of the limit. *)
  let charge () =
    incr expansions;
    match budget with
    | None -> ()
    | Some b -> Rel.Budget.spend_node_exn b 1
  in
  let boundary () =
    match budget with None -> () | Some b -> Rel.Budget.check_exn b
  in
  let best : (int, node) Hashtbl.t = Hashtbl.create 1024 in
  let consider mask candidate =
    match Hashtbl.find_opt best mask with
    | Some incumbent when incumbent.cost <= candidate.cost -> ()
    | Some _ | None -> Hashtbl.replace best mask candidate
  in
  (* O(degree) connectivity probe for the expansion loop: the compiled
     kernel answers without building the eligible-predicate list. *)
  let kernel = Els.Profile.kernel profile in
  let connects state bit =
    Els.Kernel.connected kernel ~mask:state.Els.Incremental.mask ~bit
  in
  let full = (1 lsl n) - 1 in
  (* One popcount per mask, up front: masks grouped by subset size so the
     enumeration loop never recounts bits. *)
  let by_size = Array.make (n + 1) [] in
  for mask = full downto 1 do
    let size = Rel.Bits.popcount mask in
    by_size.(size) <- mask :: by_size.(size)
  done;
  (* Highest subset size whose [best] entries are final. Entries of size
     s+1 become final only once every size-s mask has been processed, so
     everything at or below [completed_size] is identical no matter where
     a budget later trips — the anytime fallback only builds on these
     budget-independent states. *)
  let completed_size = ref 0 in
  let enumerate () =
    for i = 0 to n - 1 do
      charge ();
      consider (1 lsl i) (scan_node profile tables.(i))
    done;
    completed_size := 1;
    (* Grow subsets in increasing size so every mask is final before it is
       extended. *)
    for size = 1 to n - 1 do
      boundary ();
      List.iter
        (fun mask ->
          match Hashtbl.find_opt best mask with
          | None -> ()
          | Some node ->
            (* Prefer predicate-connected extensions: cartesian steps are
               considered only when no absent table connects at all. Two
               plain passes over the bits — no [List.init n Fun.id], no
               per-node extension list. *)
            let any_connected = ref false in
            for i = 0 to n - 1 do
              if
                (not !any_connected)
                && mask land (1 lsl i) = 0
                && connects node.state i
              then any_connected := true
            done;
            for i = 0 to n - 1 do
              if
                mask land (1 lsl i) = 0
                && ((not !any_connected) || connects node.state i)
              then begin
                let table = tables.(i) in
                let eligible =
                  Els.Incremental.eligible profile node.state table
                in
                List.iter
                  (fun method_ ->
                    (* Sort-merge and hash need at least one equi-key. *)
                    if method_applicable method_ eligible then begin
                      charge ();
                      consider
                        (mask lor (1 lsl i))
                        (extend profile node table method_ eligible)
                    end)
                  methods
              end
            done)
        by_size.(size);
      completed_size := size + 1
    done
  in
  (* Anytime fallback on exhaustion: pick the cheapest among a ladder of
     candidates whose set only grows with the budget (stopping later never
     removes a candidate), so with the same inputs a bigger budget can
     never choose a costlier plan:
     - the best full plan materialized so far (deterministic prefix of the
       expansion order);
     - a greedy completion of the best node at each finalized subset size
       (budget-independent states, largest size first so ties prefer the
       most DP-informed plan);
     - the FROM-order left-deep fallback (budget-independent, last so it
       only wins when strictly cheaper). *)
  let anytime_result resource =
    let attempt rung f =
      match f () with
      | node -> Some (rung, node)
      | exception Els.Els_error.Error _ -> None
    in
    let full_candidate =
      Option.map
        (fun node -> (Provenance.Dp, node))
        (Hashtbl.find_opt best full)
    in
    let best_of_size size =
      List.fold_left
        (fun acc mask ->
          match (Hashtbl.find_opt best mask, acc) with
          | None, acc -> acc
          | Some node, Some incumbent when incumbent.cost <= node.cost -> acc
          | Some node, _ -> Some node)
        None by_size.(size)
    in
    let completions =
      List.filter_map
        (fun size ->
          match best_of_size size with
          | None -> None
          | Some node ->
            let remaining =
              List.filter_map
                (fun i ->
                  if node.state.Els.Incremental.mask land (1 lsl i) = 0 then
                    Some tables.(i)
                  else None)
                (List.init n Fun.id)
            in
            if remaining = [] then Some (Provenance.Dp, node)
            else
              attempt Provenance.Greedy (fun () ->
                  greedy_complete ~methods profile node remaining))
        (List.init !completed_size (fun i -> !completed_size - i))
    in
    let left_deep =
      if n = 0 then None
      else
        attempt Provenance.Left_deep_fallback (fun () ->
            plan_order ~methods profile (Array.to_list tables))
    in
    let candidates =
      Option.to_list full_candidate @ completions @ Option.to_list left_deep
    in
    match candidates with
    | [] -> no_method_error methods (Array.to_list tables)
    | (rung0, node0) :: rest ->
      let rung, node =
        List.fold_left
          (fun (br, bn) (r, n') -> if n'.cost < bn.cost then (r, n') else (br, bn))
          (rung0, node0) rest
      in
      (node, Provenance.degraded rung resource ~expansions:!expansions)
  in
  match enumerate () with
  | () -> begin
    match Hashtbl.find_opt best full with
    | Some node ->
      (node, Provenance.completed Provenance.Dp ~expansions:!expansions)
    | None ->
      (* Reachable only when [methods] lacks nested loop and some subset
         has no equi-connected extension. *)
      no_method_error methods (Array.to_list tables)
  end
  | exception Rel.Budget.Exhausted resource -> anytime_result resource

let optimize ?methods ?estimator ?budget profile query =
  fst (optimize_traced ?methods ?estimator ?budget profile query)
