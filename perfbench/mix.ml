(* Workloads: the seeded databases and the seeded request streams.

   Everything here is a function of (workload, seed). The server only ever
   sees the CSV files written from [tables] and the ndjson frames built
   from [next]; the checker and the traced replay rebuild the same stream
   from the same seed. *)

type op = Estimate | Explain | Run | Analyze

let op_name = function
  | Estimate -> "estimate"
  | Explain -> "explain"
  | Run -> "run"
  | Analyze -> "analyze"

type request = {
  op : op;
  sql : string;  (** empty for [Analyze] *)
  estimator : string option;
  order : string list option;  (** [Estimate] only *)
  table : string;  (** [Analyze] only *)
  shards : int;  (** [Analyze] only *)
}

let frame ~id r =
  let opt name f = function None -> [] | Some v -> [ (name, f v) ] in
  let str s = Obs.Json.String s in
  let fields =
    match r.op with
    | Analyze ->
      [ ("table", str r.table); ("shards", Obs.Json.Int r.shards) ]
    | Estimate | Explain | Run ->
      (("sql", str r.sql) :: opt "estimator" str r.estimator)
      @ opt "order" (fun l -> Obs.Json.List (List.map str l)) r.order
  in
  Obs.Json.to_string
    (Obs.Json.Obj
       ([ ("v", Obs.Json.Int 1); ("id", str id); ("op", str (op_name r.op)) ]
       @ fields))

(* --- query shapes --- *)

(* A join graph over named tables plus the SQL conditions that link it. *)
type shape = {
  tables : string list;
  edges : (string * string) list;
  joins : string list;
  locals : (string * string) list;  (** (table, column) that locals may use *)
}

let chain_shape ~prefix ~first ~len =
  let names = List.init len (fun i -> Printf.sprintf "%s%d" prefix (first + i)) in
  let rec links = function
    | a :: (b :: _ as rest) -> (a, b) :: links rest
    | [ _ ] | [] -> []
  in
  let edges = links names in
  {
    tables = names;
    edges;
    joins = List.map (fun (a, b) -> Printf.sprintf "%s.a = %s.a" a b) edges;
    locals = List.map (fun t -> (t, "a")) names;
  }

(* Fact table joined to the given dimensions (1-based indexes). *)
let star_shape dims =
  let dname i = Printf.sprintf "d%d" i in
  {
    tables = "fact" :: List.map dname dims;
    edges = List.map (fun i -> ("fact", dname i)) dims;
    joins = List.map (fun i -> Printf.sprintf "fact.k%d = d%d.k" i i) dims;
    locals =
      List.concat_map
        (fun i -> [ (dname i, "k"); ("fact", Printf.sprintf "k%d" i) ])
        dims;
  }

let section8_shape tables =
  let rec links = function
    | a :: (b :: _ as rest) -> (a, b) :: links rest
    | [ _ ] | [] -> []
  in
  let edges = links tables in
  {
    tables;
    edges;
    joins = List.map (fun (a, b) -> Printf.sprintf "%s.%s = %s.%s" a a b b) edges;
    locals = [ ("s", "s") ];
  }

let sql_of shape conds =
  Printf.sprintf "SELECT COUNT(*) FROM %s WHERE %s"
    (String.concat ", " shape.tables)
    (String.concat " AND " (shape.joins @ conds))

let pick rng l = List.nth l (Rel.Prng.int rng (List.length l))

(* [k] distinct sorted values drawn from [1..n]. *)
let subset rng ~n ~k =
  let a = Array.init n (fun i -> i + 1) in
  Rel.Prng.shuffle rng a;
  List.sort compare (Array.to_list (Array.sub a 0 k))

(* A random order in which every table after the first joins one already
   placed, so no prefix is a cross product. *)
let connected_order rng shape =
  let adjacent placed t =
    List.exists
      (fun (a, b) -> (a = t && List.mem b placed) || (b = t && List.mem a placed))
      shape.edges
  in
  let rec go placed =
    match List.filter (fun t -> not (List.mem t placed)) shape.tables with
    | [] -> List.rev placed
    | rest -> go (pick rng (List.filter (adjacent placed) rest) :: placed)
  in
  go [ pick rng shape.tables ]

let local_pred rng shape ~hi =
  let table, col = pick rng shape.locals in
  let op = pick rng [ "<"; "<="; ">="; ">" ] in
  Printf.sprintf "%s.%s %s %d" table col op (Rel.Prng.int_in rng 2 hi)

(* --- workloads --- *)

type t = {
  tables : (string * Rel.Relation.t) list;  (** CSV order = load order *)
  next : unit -> request;  (** the seeded request stream *)
}

let relations db =
  List.map
    (fun (tbl : Catalog.Table.t) ->
      match tbl.Catalog.Table.data with
      | Some rel -> (tbl.Catalog.Table.name, rel)
      | None -> invalid_arg ("stats-only table " ^ tbl.Catalog.Table.name))
    (Catalog.Db.tables db)

let query_request ?order ?estimator op sql =
  { op; sql; estimator; order; table = ""; shards = 1 }

(* Draws [slots] in blocks, each block a fresh shuffle of all of them: the
   order is seeded, but every block has exactly the slots' make-up. Request
   costs differ by orders of magnitude between classes, so i.i.d. draws
   would let the class mix of a run, and with it every timing, wander from
   run to run. *)
let cycle rng slots =
  let a = Array.of_list slots in
  let pos = ref (Array.length a) in
  fun () ->
    if !pos >= Array.length a then begin
      Rel.Prng.shuffle rng a;
      pos := 0
    end;
    incr pos;
    a.(!pos - 1)

(* estimate-hot: a fixed pool of 16 estimate requests, so nearly every
   request repeats an earlier table set and predicate text. The pool's
   make-up is the same for every seed: chains of 4–8 tables alternate with
   stars of 3–6 dimensions, half carry a local predicate, and the
   estimators cycle through ls/m/ss/pess/lp2; the seed picks the data, the
   tables, the constants and the join orders. *)
let estimate_hot seed =
  let chain = Datagen.Workload.chain ~rows_range:(800, 1200) ~seed ~n_tables:8 () in
  let star =
    Datagen.Workload.star ~dim_rows_range:(300, 600) ~seed:(seed + 1) ~n_dims:6 ()
  in
  let rng = Rel.Prng.create (seed * 31 + 1) in
  let estimators = [| "ls"; "m"; "ss"; "pess"; "lp2" |] in
  let pool =
    List.init 16 (fun i ->
        let shape =
          if i mod 2 = 0 then
            let len = 4 + (i / 2 mod 5) in
            chain_shape ~prefix:"t" ~first:(Rel.Prng.int_in rng 1 (9 - len)) ~len
          else star_shape (subset rng ~n:6 ~k:(3 + (i / 2 mod 4)))
        in
        let conds = if i mod 4 < 2 then [ local_pred rng shape ~hi:60 ] else [] in
        query_request Estimate (sql_of shape conds)
          ~estimator:estimators.(i mod 5)
          ~order:(connected_order rng shape))
  in
  {
    tables = relations chain.Datagen.Workload.db @ relations star.Datagen.Workload.db;
    next = cycle (Rel.Prng.create (seed * 31 + 2)) pool;
  }

(* explain-wide: DP over 9–11-table chains and 6–8-dimension stars; every
   text is fresh. A block of 39 requests holds 30 chains (ten of each
   length; of the 9-table ones, one ends in a comparison or band link and
   one asks for lp2) and 9 stars (three of each size; per size one asks
   for degseq and one for lp2): those run the interpreted estimation tier.
   The interpreted requests stay on the shorter shapes: over the longer
   chains they cost 25–190 ms depending on the data, which would make the
   tail and the throughput a draw of the seed, and p90 would sit on the
   edge between them and the 11-table chains instead of inside a class. *)
let explain_wide seed =
  let chain =
    Datagen.Workload.chain ~rows_range:(800, 1200) ~distinct_range:(60, 120) ~seed
      ~n_tables:11 ()
  in
  let star =
    Datagen.Workload.star ~dim_rows_range:(300, 600) ~seed:(seed + 1) ~n_dims:8 ()
  in
  let rng = Rel.Prng.create (seed * 31 + 3) in
  let chain_estimators =
    [| Some "ls"; Some "lp2"; None; Some "ls"; Some "m"; Some "ss"; Some "pess"; None; Some "ls"; None |]
  in
  let star_estimators = [| Some "degseq"; Some "lp2"; None |] in
  let slots =
    List.concat_map
      (fun len ->
        List.init 10 (fun k ->
            (* Slot 0 ends in a comparison or band link and slot 1 asks for
               lp2; longer chains take slots 8 and 9 in their place. *)
            let k = if len > 9 && k < 2 then k + 8 else k in
            (`Chain len, k, chain_estimators.(k))))
      [ 9; 10; 11 ]
    @ List.concat_map (fun dims -> List.init 3 (fun k -> (`Star dims, k, star_estimators.(k)))) [ 6; 7; 8 ]
  in
  let next_slot = cycle (Rel.Prng.create (seed * 31 + 4)) slots in
  let seen = Hashtbl.create 4096 in
  let text = function
    | `Chain len, k, _ ->
      let shape = chain_shape ~prefix:"t" ~first:(Rel.Prng.int_in rng 1 (12 - len)) ~len in
      let joins =
        if k <> 0 then shape.joins
        else
          let a, b = List.nth shape.edges (List.length shape.edges - 1) in
          let last =
            if Rel.Prng.bool rng then Printf.sprintf "%s.a < %s.a" a b
            else
              let w = Rel.Prng.int_in rng 1 5 in
              Printf.sprintf "%s.a BETWEEN %s.a - %d AND %s.a + %d" a b w b w
          in
          List.filteri (fun i _ -> i < List.length shape.joins - 1) shape.joins @ [ last ]
      in
      sql_of { shape with joins } [ local_pred rng shape ~hi:150 ]
    | `Star dims, _, _ ->
      let shape = star_shape (subset rng ~n:8 ~k:dims) in
      sql_of shape [ local_pred rng shape ~hi:80 ]
  in
  let rec fresh slot =
    let sql = text slot in
    if Hashtbl.mem seen sql then fresh slot
    else begin
      Hashtbl.add seen sql ();
      let _, _, estimator = slot in
      query_request Explain sql ?estimator
    end
  in
  {
    tables = relations chain.Datagen.Workload.db @ relations star.Datagen.Workload.db;
    next = (fun () -> fresh (next_slot ()));
  }

(* mixed-churn: reads beside writes over the Section 8 tables (scale 10)
   plus a small key-like chain and star. A block of 20 requests holds 10
   estimates, 5 explains, 4 runs and 1 analyze; runs and analyzes take the
   server's catalog lock and every analyze publishes a new epoch. Each op
   draws from its own pool in blocks whose make-up (shape family, and
   estimator for runs) is fixed; the seed picks the rest. *)
let mixed_churn seed =
  let s8 = Datagen.Section8.build ~scale:10 ~seed () in
  (* Key columns throughout, like Section 8's, so a run's work depends on
     its plan and not on how the seed sized the tables. *)
  let chain =
    Datagen.Workload.chain ~rows_range:(400, 400) ~distinct_range:(400, 400)
      ~seed:(seed + 1) ~n_tables:5 ()
  in
  let star =
    Datagen.Workload.star ~fact_rows:2000 ~dim_rows_range:(100, 100)
      ~distinct_range:(100, 100) ~seed:(seed + 2) ~n_dims:4 ()
  in
  let tables =
    relations s8 @ relations chain.Datagen.Workload.db @ relations star.Datagen.Workload.db
  in
  let rng = Rel.Prng.create (seed * 31 + 5) in
  (* Shape family [i mod 3] at size step [size] (0..2). *)
  let family i size =
    match i mod 3 with
    | 0 -> (section8_shape (List.filteri (fun j _ -> j < 2 + size) [ "s"; "m"; "b"; "g" ]), 100)
    | 1 ->
      let len = 3 + size in
      (chain_shape ~prefix:"t" ~first:(Rel.Prng.int_in rng 1 (6 - len)) ~len, 300)
    | _ -> (star_shape (subset rng ~n:4 ~k:(2 + size)), 100)
  in
  let pool n f =
    List.init n (fun i ->
        let shape, hi = family i (i / 3 mod 3) in
        f i shape (sql_of shape [ local_pred rng shape ~hi ]))
  in
  let estimators = [| "ls"; "m"; "ss"; "pess" |] in
  let estimates =
    pool 24 (fun i shape sql ->
        query_request Estimate sql ~estimator:estimators.(i mod 4)
          ~order:(connected_order rng shape))
  in
  let explains =
    pool 24 (fun i _ sql -> query_request Explain sql ~estimator:estimators.(i / 3 mod 4))
  in
  (* Every family meets every run estimator. Runs join the family's
     largest shape under [x < domain/10] on its first table, the form of
     the paper's Section 8 query (s < 10 at scale 10), where the estimator
     decides the plan's work; free predicates let one plan's work range
     over two orders of magnitude with the seed. *)
  let runs =
    List.init 9 (fun i ->
        let shape, hi = family i 2 in
        let table, col = List.hd shape.locals in
        let cond = Printf.sprintf "%s.%s < %d" table col (hi / 10) in
        query_request Run (sql_of shape [ cond ]) ~estimator:[| "m"; "ss"; "ls" |].(i / 3))
  in
  let analyzes =
    List.concat_map
      (fun (table, _) ->
        List.map
          (fun shards ->
            { op = Analyze; sql = ""; estimator = None; order = None; table; shards })
          [ 1; 4 ])
      tables
  in
  let stream = Rel.Prng.create (seed * 31 + 6) in
  let draw = function
    | `Estimate -> cycle stream estimates
    | `Explain -> cycle stream explains
    | `Run -> cycle stream runs
    | `Analyze -> cycle stream analyzes
  in
  let estimate = draw `Estimate and explain = draw `Explain and run = draw `Run
  and analyze = draw `Analyze in
  let ops =
    cycle stream
      (List.init 10 (fun _ -> estimate)
      @ List.init 5 (fun _ -> explain)
      @ List.init 4 (fun _ -> run)
      @ [ analyze ])
  in
  { tables; next = (fun () -> (ops ()) ()) }

(* Write the tables as [dir/<table>.csv], in load order; returns the paths. *)
let write_csvs dir w =
  List.map
    (fun (name, rel) ->
      let path = Filename.concat dir (name ^ ".csv") in
      Rel.Csv.to_file rel path;
      path)
    w.tables

let make name ~seed =
  match name with
  | "estimate-hot" -> estimate_hot seed
  | "explain-wide" -> explain_wide seed
  | "mixed-churn" -> mixed_churn seed
  | other -> invalid_arg ("unknown workload " ^ other)
