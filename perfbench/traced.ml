(* The traced run: the same seeded requests, replayed sequentially in this
   process through the public calls [Serve.Server]'s handlers make, in the
   handlers' order. Benchmark-side spans wrap each call; [Profile.build]
   and [Optimizer.choose] add their own "profile"/"validate"/"optimize"
   spans under them. The second [Els.prepare] of the estimate handler is
   deliberately not replayed: it is what [serve.unaccounted_us] shows. *)

type counts = {
  mutable requests : int;
  mutable kernel_steps : int;
  mutable fallback_steps : int;
  mutable sel_hits : int;
  mutable sel_misses : int;
  mutable expansions : int;
  mutable tuples_read : int;
  mutable tuples_output : int;
  mutable work : int;
  mutable rows : int;
  mutable publishes : int;
}

let counts () =
  {
    requests = 0;
    kernel_steps = 0;
    fallback_steps = 0;
    sel_hits = 0;
    sel_misses = 0;
    expansions = 0;
    tuples_read = 0;
    tuples_output = 0;
    work = 0;
    rows = 0;
    publishes = 0;
  }

let note_profile c p =
  let s = Els.Profile.cache_stats p in
  c.kernel_steps <- c.kernel_steps + Els.Profile.kernel_steps p;
  c.fallback_steps <- c.fallback_steps + Els.Profile.kernel_fallback_steps p;
  c.sel_hits <- c.sel_hits + s.Els.Profile.sel_hits;
  c.sel_misses <- c.sel_misses + s.Els.Profile.sel_misses

(* The response fields [Serve.Server] adds for a plan and an execution. *)
let provenance_fields (p : Optimizer.Provenance.t) =
  [
    ("rung", Obs.Json.String (Optimizer.Provenance.rung_name p.Optimizer.Provenance.rung));
    ("expansions", Obs.Json.Int p.Optimizer.Provenance.expansions);
    ( "exhausted",
      match p.Optimizer.Provenance.exhausted with
      | None -> Obs.Json.Null
      | Some r -> Obs.Json.String (Rel.Budget.resource_name r) );
  ]

let counters_fields (k : Exec.Counters.t) =
  [
    ("tuples_read", Obs.Json.Int k.Exec.Counters.tuples_read);
    ("comparisons", Obs.Json.Int k.Exec.Counters.comparisons);
    ("tuples_output", Obs.Json.Int k.Exec.Counters.tuples_output);
    ("work", Obs.Json.Int (Exec.Counters.total_work k));
  ]

let get = function Ok v -> v | Error e -> failwith (Els.Els_error.to_string e)

(* One request; returns the encoded response line. *)
let handle tr c (ref_ : Checker.reference) ~id frame =
  let span name f = Obs.Trace.with_span tr name f in
  let request =
    get (Result.map_error snd (span "protocol_parse" (fun () -> Serve.Protocol.parse frame)))
  in
  let id = Some id in
  let bind db sql =
    let ast =
      get
        (Result.map_error
           (fun e ->
             Els.Els_error.Parse_error
               { position = e.Sqlfront.Parser.position; detail = e.Sqlfront.Parser.message })
           (span "sql_parse" (fun () -> Sqlfront.Parser.parse_structured sql)))
    in
    get (span "bind" (fun () -> Sqlfront.Binder.bind_structured db ast))
  in
  (* The pin and the staleness probe of the query's tables. *)
  let pin query =
    span "pin" (fun () ->
        let epoch = Catalog.Store.pin ref_.Checker.store in
        List.iter
          (fun t -> ignore (Catalog.Epoch.annotations_for epoch (Query.source query t)))
          query.Query.tables;
        epoch)
  in
  let encode op fields =
    span "encode" (fun () ->
        Obs.Json.to_string (Serve.Protocol.response_ok ~id ~op fields))
  in
  c.requests <- c.requests + 1;
  match request.Serve.Protocol.op with
  | Serve.Protocol.Estimate { sql; estimator; order } ->
    let config = Checker.config_of estimator in
    let epoch0 = span "pin" (fun () -> Catalog.Store.pin ref_.Checker.store) in
    let query = bind (Catalog.Epoch.db epoch0) sql in
    let epoch = pin query in
    let edb = Catalog.Epoch.db epoch in
    let order =
      match order with
      | Some o -> List.map String.lowercase_ascii o
      | None -> query.Query.tables
    in
    let profile = Els.Profile.build ?trace:tr config edb query in
    ignore (span "kernel_compile" (fun () -> Els.Profile.kernel profile));
    let state =
      span "estimate_order" (fun () -> Els.Incremental.estimate_order profile order)
    in
    note_profile c profile;
    let sizes = Els.Incremental.history state in
    encode "estimate"
      [
        ("estimate", Obs.Json.Float state.Els.Incremental.size);
        ("sizes", Checker.floats sizes);
        ("order", Checker.strings order);
        ("epoch", Obs.Json.Int (Catalog.Epoch.id epoch));
      ]
  | Serve.Protocol.Explain { sql; estimator; _ } ->
    let config = Checker.config_of estimator in
    let epoch0 = span "pin" (fun () -> Catalog.Store.pin ref_.Checker.store) in
    let query = bind (Catalog.Epoch.db epoch0) sql in
    let epoch = pin query in
    let choice = Optimizer.choose ?trace:tr config (Catalog.Epoch.db epoch) query in
    note_profile c choice.Optimizer.profile;
    c.expansions <- c.expansions + choice.Optimizer.provenance.Optimizer.Provenance.expansions;
    encode "explain"
      ([
        ("algorithm", Obs.Json.String choice.Optimizer.algorithm);
        ("join_order", Checker.strings choice.Optimizer.join_order);
        ("estimates", Checker.floats choice.Optimizer.intermediate_estimates);
        ("cost", Obs.Json.Float choice.Optimizer.estimated_cost);
        ("epoch", Obs.Json.Int (Catalog.Epoch.id epoch));
      ]
      @ provenance_fields choice.Optimizer.provenance)
  | Serve.Protocol.Run { sql; estimator; _ } ->
    let config = Checker.config_of estimator in
    let query = bind ref_.Checker.db sql in
    let choice = Optimizer.choose ?trace:tr config ref_.Checker.db query in
    note_profile c choice.Optimizer.profile;
    c.expansions <- c.expansions + choice.Optimizer.provenance.Optimizer.Provenance.expansions;
    let rows, counters, elapsed_s =
      span "execute" (fun () -> Exec.Executor.count_result ref_.Checker.db choice.Optimizer.plan)
    in
    let rows = get rows in
    c.tuples_read <- c.tuples_read + counters.Exec.Counters.tuples_read;
    c.tuples_output <- c.tuples_output + counters.Exec.Counters.tuples_output;
    c.work <- c.work + Exec.Counters.total_work counters;
    c.rows <- c.rows + rows;
    encode "run"
      ([
        ("join_order", Checker.strings choice.Optimizer.join_order);
        ("estimates", Checker.floats choice.Optimizer.intermediate_estimates);
        ("rows", Obs.Json.Int rows);
        ("elapsed_ms", Obs.Json.Float (elapsed_s *. 1000.));
      ]
      @ counters_fields counters
      @ provenance_fields choice.Optimizer.provenance)
  | Serve.Protocol.Analyze { table; shards } ->
    let table = String.lowercase_ascii (Option.get table) in
    span "reanalyze" (fun () ->
        Catalog.Store.reanalyze ?shards ref_.Checker.store ~table);
    let epoch = get (Result.map_error Els.Els_error.of_issue
                       (span "publish" (fun () -> Catalog.Store.publish ref_.Checker.store))) in
    c.publishes <- c.publishes + 1;
    encode "analyze"
      [ ("epoch", Obs.Json.Int (Catalog.Epoch.id epoch)); ("tables", Checker.strings [ table ]) ]
  | Serve.Protocol.Health | Serve.Protocol.Drain -> encode "health" []

type pass = { wall_s : float; minor_words : float; counts : counts }

(* Replay [frames] once; with a tracer, one root span per request. *)
let replay ?tracer ref_ frames =
  let c = counts () in
  let w0 = Gc.minor_words () in
  let t0 = Clock.now () in
  List.iter
    (fun (id, frame) ->
      Obs.Trace.with_span tracer "request" (fun () ->
          Obs.Trace.attr_str tracer "id" id;
          ignore (handle tracer c ref_ ~id frame)))
    frames;
  {
    wall_s = Clock.now () -. t0;
    minor_words = Gc.minor_words () -. w0;
    counts = c;
  }

(* --- span arithmetic --- *)

(* Per request: layer name -> self time (s), i.e. the span's duration
   minus what its children cover; repeated names add up. Also the request's
   traced total (the sum of its top-level layer spans) and the tables its
   "validate" span audited. *)
type request_layers = {
  self : (string * float) list;
  total_s : float;
  validate_tables : int;
}

let layers (root : Obs.Trace.span) =
  let self = Hashtbl.create 16 in
  let tables = ref 0 in
  let rec walk (s : Obs.Trace.span) =
    let covered =
      List.fold_left (fun a (ch : Obs.Trace.span) -> a +. ch.Obs.Trace.duration_s) 0. s.Obs.Trace.children
    in
    let prev = Option.value (Hashtbl.find_opt self s.Obs.Trace.name) ~default:0. in
    Hashtbl.replace self s.Obs.Trace.name (prev +. s.Obs.Trace.duration_s -. covered);
    (if s.Obs.Trace.name = "validate" then
       match List.assoc_opt "tables" s.Obs.Trace.attrs with
       | Some (Obs.Json.Int n) -> tables := !tables + n
       | _ -> ());
    List.iter walk s.Obs.Trace.children
  in
  List.iter walk root.Obs.Trace.children;
  {
    self = Hashtbl.fold (fun k v acc -> (k, v) :: acc) self [];
    total_s =
      List.fold_left (fun a (ch : Obs.Trace.span) -> a +. ch.Obs.Trace.duration_s) 0. root.Obs.Trace.children;
    validate_tables = !tables;
  }
