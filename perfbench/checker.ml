(* The answer checker: every response is compared with an in-process
   reference computed on the catalog epoch the response names.

   The reference catalog is loaded from the same CSV files, the same way
   the server loads them. Analyze responses are replayed in epoch order on
   a mirror [Catalog.Store], so epoch k of the mirror carries the same
   statistics as the server's epoch k (4-shard merges change them). *)

type reference = {
  db : Catalog.Db.t;  (** live data, as the server's [run] sees it *)
  store : Catalog.Store.t;
  epochs : (int, Catalog.Epoch.t) Hashtbl.t;
  analyzed : (string, int list) Hashtbl.t;
      (** table -> the epochs that re-analyzed it, newest first *)
}

(* Mirrors [elsdb --db csv:...]: one table per file, named by basename. *)
let load_db csvs =
  let db = Catalog.Db.create () in
  List.iter
    (fun path ->
      let table =
        Filename.remove_extension (Filename.basename path)
        |> String.lowercase_ascii
      in
      ignore
        (Catalog.Analyze.register db ~name:table
           (Rel.Csv.relation_of_file ~table path)))
    csvs;
  db

let reference csvs =
  let db = load_db csvs in
  let store = Catalog.Store.create db in
  let epochs = Hashtbl.create 64 in
  Hashtbl.replace epochs 0 (Catalog.Store.pin store);
  { db; store; epochs; analyzed = Hashtbl.create 16 }

type verdict = Match | Error_response | Wrong of string

let config_of = function
  | None -> Els.Config.els
  | Some name -> (
    match Els.Estimator.of_string name with
    | Ok e -> Els.Config.of_estimator e
    | Error msg -> invalid_arg msg)

let floats l = Obs.Json.List (List.map (fun x -> Obs.Json.Float x) l)
let strings l = Obs.Json.List (List.map (fun s -> Obs.Json.String s) l)

(* The compared fields of a response, rendered with the server's encoder
   (Obs.Json's float rendering round-trips, so equal text is equal bits). *)
let fields json names =
  Obs.Json.to_string
    (Obs.Json.Obj
       (List.map
          (fun n ->
            (n, Option.value (Obs.Json.member n json) ~default:Obs.Json.Null))
          names))

let int_field json name =
  match Obs.Json.member name json with Some (Obs.Json.Int i) -> Some i | _ -> None

let compile db sql =
  match Sqlfront.Binder.compile_result db sql with
  | Ok q -> q
  | Error e -> failwith (Els.Els_error.to_string e)

(* What the server should have answered, as the text of the compared
   fields. *)
let expected ref_ (r : Mix.request) epoch =
  let edb = Catalog.Epoch.db epoch in
  let config = config_of r.Mix.estimator in
  match r.Mix.op with
  | Mix.Estimate ->
    let query = compile edb r.Mix.sql in
    let order =
      match r.Mix.order with
      | Some o -> List.map String.lowercase_ascii o
      | None -> query.Query.tables
    in
    let sizes = Result.get_ok (Els.intermediate_sizes_result config edb query order) in
    let estimate = Result.get_ok (Els.estimate_result config edb query order) in
    Obs.Json.to_string
      (Obs.Json.Obj
         [
           ("estimate", Obs.Json.Float estimate);
           ("sizes", floats sizes);
           ("order", strings order);
         ])
  | Mix.Explain ->
    let choice = Optimizer.choose config edb (compile edb r.Mix.sql) in
    Obs.Json.to_string
      (Obs.Json.Obj
         [
           ("join_order", strings choice.Optimizer.join_order);
           ("estimates", floats choice.Optimizer.intermediate_estimates);
           ("cost", Obs.Json.Float choice.Optimizer.estimated_cost);
         ])
  | Mix.Run ->
    let rows =
      (Exec.Executor.run_query ref_.db (compile ref_.db r.Mix.sql)).Exec.Executor.row_count
    in
    Obs.Json.to_string (Obs.Json.Obj [ ("rows", Obs.Json.Int rows) ])
  | Mix.Analyze -> invalid_arg "analyze is checked by replay"

let compared = function
  | Mix.Estimate -> [ "estimate"; "sizes"; "order" ]
  | Mix.Explain -> [ "join_order"; "estimates"; "cost" ]
  | Mix.Run -> [ "rows" ]
  | Mix.Analyze -> [] (* checked by [replay_analyzes] *)

(* Replay the analyzes in the order the server published them. Each one
   must land on the epoch id the server reported. *)
let replay_analyzes ref_ (answers : (Mix.request * Obs.Json.t) list) =
  let published =
    List.filter_map
      (fun ((r : Mix.request), json) ->
        match (r.Mix.op, int_field json "epoch") with
        | Mix.Analyze, Some e -> Some (e, r)
        | _ -> None)
      answers
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  List.filter_map
    (fun (e, (r : Mix.request)) ->
      Catalog.Store.reanalyze ~shards:r.Mix.shards ref_.store ~table:r.Mix.table;
      match Catalog.Store.publish ref_.store with
      | Ok epoch when Catalog.Epoch.id epoch = e ->
        Hashtbl.replace ref_.epochs e epoch;
        let table = String.lowercase_ascii r.Mix.table in
        Hashtbl.replace ref_.analyzed table
          (e :: Option.value (Hashtbl.find_opt ref_.analyzed table) ~default:[]);
        None
      | Ok epoch ->
        Some (Printf.sprintf "analyze published epoch %d, mirror %d" e
                (Catalog.Epoch.id epoch))
      | Error _ -> Some "mirror publish refused")
    published

(* An answer depends only on the statistics of the query's own tables, so
   two epochs that re-analyzed none of them in between share one
   reference: the key names, per table, the epoch that last analyzed it. *)
let statistics_version ref_ tables_of (r : Mix.request) epoch_id =
  let tables =
    match Hashtbl.find_opt tables_of r.Mix.sql with
    | Some t -> t
    | None ->
      let q = compile ref_.db r.Mix.sql in
      let t = List.map (fun t -> String.lowercase_ascii (Query.source q t)) q.Query.tables in
      Hashtbl.replace tables_of r.Mix.sql t;
      t
  in
  List.map
    (fun t ->
      let analyzed = Option.value (Hashtbl.find_opt ref_.analyzed t) ~default:[] in
      (t, Option.value (List.find_opt (fun e -> e <= epoch_id) analyzed) ~default:0))
    tables

let verdict ref_ (memo, tables_of) (id, (r : Mix.request), json) =
  match (Obs.Json.member "id" json, Obs.Json.member "ok" json) with
  | id', _ when id' <> Some (Obs.Json.String id) -> Wrong ("no answer echoing id " ^ id)
  | _, Some (Obs.Json.Bool true) -> begin
    match r.Mix.op with
    | Mix.Analyze -> Match (* checked by [replay_analyzes] *)
    | op -> begin
      let epoch_id = Option.value (int_field json "epoch") ~default:0 in
      match Hashtbl.find_opt ref_.epochs epoch_id with
      | None -> Wrong (Printf.sprintf "unknown epoch %d" epoch_id)
      | Some epoch ->
        let key =
          (r, if op = Mix.Run then [] else statistics_version ref_ tables_of r epoch_id)
        in
        let want =
          match Hashtbl.find_opt memo key with
          | Some w -> w
          | None ->
            let w = expected ref_ r epoch in
            Hashtbl.replace memo key w;
            w
        in
        let got = fields json (compared op) in
        if String.equal got want then Match
        else Wrong (Printf.sprintf "%s: got %s, want %s" r.Mix.sql got want)
    end
  end
  | _, _ -> Error_response

type tally = {
  matched : int;
  errors : int;  (** ok:false responses, sheds included *)
  wrong : int;
  first_wrong : string option;
}

(* Check every (id, request, response line), in parallel over [domains]
   domains (the reference reads only immutable epochs and live relations,
   as the server's workers do). An empty line stands for a missing
   answer. *)
let check ~domains ref_ answers =
  let parsed =
    List.map
      (fun (id, r, line) ->
        (id, r, match Obs.Json.of_string line with Ok json -> json | Error _ -> Obs.Json.Null))
      answers
  in
  let replay_failures = replay_analyzes ref_ (List.map (fun (_, r, json) -> (r, json)) parsed) in
  let work = Array.of_list parsed in
  let run k =
    let memo = (Hashtbl.create 256, Hashtbl.create 64) in
    let acc = ref [] in
    Array.iteri
      (fun i a ->
        if i mod domains = k then
          acc := (match verdict ref_ memo a with v -> v
                  | exception e -> Wrong (Printexc.to_string e)) :: !acc)
      work;
    !acc
  in
  let workers = List.init (domains - 1) (fun k -> Domain.spawn (fun () -> run (k + 1))) in
  let mine = run 0 in
  let verdicts = List.concat (mine :: List.map Domain.join workers) in
  let wrongs =
    List.filter_map (function Wrong w -> Some w | _ -> None) verdicts
    @ replay_failures
  in
  {
    matched = List.length (List.filter (( = ) Match) verdicts);
    errors = List.length (List.filter (( = ) Error_response) verdicts);
    wrong = List.length wrongs;
    first_wrong = (match wrongs with [] -> None | w :: _ -> Some w);
  }
