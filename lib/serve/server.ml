(* The estimation service core. See server.mli for the topology and the
   robustness contract; the short version is that every frame read from a
   client ends in exactly one structured response (or a counted
   disconnect), no matter what the frame, the catalog or the workers do. *)

type config = {
  domains : int;
  queue_depth : int;
  default_deadline_ms : float option;
  max_frame_bytes : int;
  drain_deadline_ms : float;
  epoch_retries : int;
  retry_backoff_ms : float;
  clock : (unit -> float) option;
}

let default_config =
  {
    domains = 2;
    queue_depth = 64;
    default_deadline_ms = None;
    max_frame_bytes = 1_048_576;
    drain_deadline_ms = 5_000.;
    epoch_retries = 2;
    retry_backoff_ms = 1.;
    clock = None;
  }

type session_stats = {
  frames : int;
  admitted : int;
  answered_ok : int;
  answered_error : int;
  shed : int;
  malformed : int;
  internal_errors : int;
  budget_trips : int;
  epoch_retries : int;
  disconnected : bool;
  drained : bool;
  drain_timed_out : bool;
  max_epoch : int;
}

type t = {
  cfg : config;
  db : Catalog.Db.t;
  catalog_store : Catalog.Store.t;
  store_mu : Mutex.t;
  reg : Obs.Metrics.t;
  stats_mu : Mutex.t;
  latencies : float list ref;  (* ms, newest first; drained at flush *)
  stopping : bool Atomic.t;
}

let create ?(config = default_config) ?metrics ?strictness db =
  if config.domains < 1 then invalid_arg "Serve.Server.create: domains < 1";
  if config.queue_depth < 1 then
    invalid_arg "Serve.Server.create: queue_depth < 1";
  (* A dead client must surface as an error on write, not kill the
     process. *)
  if Sys.unix then Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  {
    cfg = config;
    db;
    catalog_store = Catalog.Store.create ?strictness db;
    store_mu = Mutex.create ();
    reg = (match metrics with Some m -> m | None -> Obs.Metrics.create ());
    stats_mu = Mutex.create ();
    latencies = ref [];
    stopping = Atomic.make false;
  }

let config t = t.cfg
let store t = t.catalog_store
let db t = t.db
let metrics t = t.reg
let request_stop t = Atomic.set t.stopping true

let locked t f =
  Mutex.lock t.store_mu;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.store_mu)
    (fun () -> f t.catalog_store)

(* Obs.Metrics is not thread-safe; every touch goes through stats_mu. *)
let with_stats t f =
  Mutex.lock t.stats_mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.stats_mu) f

let count ?(by = 1) t name =
  with_stats t (fun () -> Obs.Metrics.incr ~by (Obs.Metrics.counter t.reg name))

let observe_latency t ms =
  with_stats t (fun () ->
      Obs.Metrics.observe (Obs.Metrics.histogram t.reg "serve.latency_ms") ms;
      t.latencies := ms :: !(t.latencies))

(* Nearest-rank quantile over the flush window. *)
let quantile sorted q =
  match Array.length sorted with
  | 0 -> Float.nan
  | n -> sorted.(min (n - 1) (int_of_float (q *. float_of_int n)))

let flush_metrics t =
  with_stats t (fun () ->
      let m = t.reg in
      (match !(t.latencies) with
      | [] -> ()
      | ls ->
        t.latencies := [];
        let sorted = Array.of_list ls in
        Array.sort Float.compare sorted;
        Obs.Metrics.set
          (Obs.Metrics.gauge m "serve.latency_p50_ms")
          (quantile sorted 0.50);
        Obs.Metrics.set
          (Obs.Metrics.gauge m "serve.latency_p99_ms")
          (quantile sorted 0.99));
      (* Absorb the store's own monotone totals under the same names the
         churn harness publishes, so one check-metrics schema covers
         both. *)
      let s = Catalog.Store.stats t.catalog_store in
      let set name v = Obs.Metrics.set_counter (Obs.Metrics.counter m name) v in
      set "store.publishes" s.Catalog.Store.publishes;
      set "store.audits_failed" s.Catalog.Store.audits_failed;
      set "store.quarantines" s.Catalog.Store.quarantines;
      set "store.stale_served" s.Catalog.Store.stale_served;
      set "store.retries" s.Catalog.Store.retries;
      set "store.hard_fallbacks" s.Catalog.Store.hard_fallbacks;
      Obs.Metrics.set
        (Obs.Metrics.gauge m "store.quarantined_now")
        (float_of_int s.Catalog.Store.quarantined_now);
      Obs.Metrics.set
        (Obs.Metrics.gauge m "serve.epoch")
        (float_of_int s.Catalog.Store.epoch))

(* --- bounded frame reader --- *)

(* Reads one newline-terminated frame, refusing to buffer more than
   [max_bytes]: an oversized line is consumed (and discarded) up to the
   next newline so the stream resynchronizes, and the refusal is
   structured. A final unterminated line still counts as a frame — a
   truncated frame is exactly the kind of damage the protocol must
   answer, not hang on. *)
type frame = Eof | Frame of string | Oversized of int

let read_frame ic ~max_bytes =
  let buf = Buffer.create 256 in
  let rec discard n =
    match input_char ic with
    | '\n' -> Oversized n
    | _ -> discard (n + 1)
    | exception End_of_file -> Oversized n
    | exception Sys_error _ -> Oversized n
  in
  let rec go () =
    match input_char ic with
    | '\n' -> Frame (Buffer.contents buf)
    | c ->
      if Buffer.length buf >= max_bytes then discard (Buffer.length buf + 1)
      else begin
        Buffer.add_char buf c;
        go ()
      end
    | exception End_of_file ->
      if Buffer.length buf = 0 then Eof else Frame (Buffer.contents buf)
    | exception Sys_error _ ->
      (* Connection reset mid-frame: treat as EOF, the session drains. *)
      Eof
  in
  go ()

(* --- session state --- *)

type job = {
  request : Protocol.request;
  budget : Rel.Budget.t option;
  admitted_at : float;
}

type session_state = {
  server : t;
  queue : job Queue.t;
  mu : Mutex.t;
  nonempty : Condition.t;
  mutable finished : bool;  (* under mu: EOF reached, workers may exit *)
  draining : bool Atomic.t;
  in_flight : int Atomic.t;
  out : out_channel;
  out_mu : Mutex.t;
  out_dead : bool ref;  (* under out_mu *)
  s_frames : int Atomic.t;
  s_admitted : int Atomic.t;
  s_ok : int Atomic.t;
  s_error : int Atomic.t;
  s_shed : int Atomic.t;
  s_malformed : int Atomic.t;
  s_internal : int Atomic.t;
  s_budget_trips : int Atomic.t;
  s_epoch_retries : int Atomic.t;
  s_drained : bool Atomic.t;
  s_drain_timed_out : bool Atomic.t;
  s_max_epoch : int Atomic.t;
}

let atomic_max a v =
  let rec go () =
    let c = Atomic.get a in
    if v > c && not (Atomic.compare_and_set a c v) then go ()
  in
  go ()

let write_response ss json =
  let line = Obs.Json.to_string json in
  Mutex.lock ss.out_mu;
  (if not !(ss.out_dead) then
     try
       output_string ss.out line;
       output_char ss.out '\n';
       flush ss.out
     with Sys_error _ ->
       (* The client's read side is gone. Remember it (every later write
          would fail the same way) and keep serving: a dead connection is
          a counted event, not a crash. *)
       ss.out_dead := true;
       count ss.server "serve.disconnects");
  Mutex.unlock ss.out_mu

let answer ss ~ok json =
  if ok then begin
    Atomic.incr ss.s_ok;
    count ss.server "serve.answered_ok"
  end
  else begin
    Atomic.incr ss.s_error;
    count ss.server "serve.answered_error"
  end;
  write_response ss json

let answer_error ss ~id ?extra err =
  (match err with
  | Els.Els_error.Budget_exhausted _ ->
    Atomic.incr ss.s_budget_trips;
    count ss.server "serve.budget_trips"
  | _ -> ());
  answer ss ~ok:false (Protocol.response_error ~id ?extra err)

(* --- request handlers ---

   Handlers return [((op, fields), Els_error.t * extra) result]: errors
   carry extra response fields (e.g. the anytime-ladder provenance of a
   budget-tripped run) alongside the taxonomy value. *)

let ( let* ) r f = match r with Ok v -> f v | Error e -> Error (e, [])

let invalid detail = Error (Els.Els_error.Invalid_query { detail })

let resolve_config estimator =
  match estimator with
  | None -> Ok Els.Config.els
  | Some name -> begin
    match Els.Estimator.of_string name with
    | Ok e -> Ok (Els.Config.of_estimator e)
    | Error msg -> invalid msg
  end

let enumerator_names = [ "dp"; "greedy"; "random" ]

let resolve_enumerator = function
  | None -> Ok Optimizer.Exhaustive
  | Some name -> begin
    match String.lowercase_ascii name with
    | "dp" -> Ok Optimizer.Exhaustive
    | "greedy" -> Ok Optimizer.Greedy_order
    | "random" -> Ok (Optimizer.Randomized 1)
    | other ->
      invalid
        (Printf.sprintf "unknown enumerator %S%s" other
           (Catalog.Suggest.hint ~candidates:enumerator_names other))
  end

let check_budget ~site budget =
  match budget with
  | None -> Ok ()
  | Some b -> begin
    match Rel.Budget.check b with
    | Ok () -> Ok ()
    | Error resource ->
      Error
        (Els.Els_error.Budget_exhausted
           { site; resource; detail = "request deadline passed" })
  end

(* Re-pin when the pinned epoch quarantines one of the query's tables:
   the publish ladder heals quarantines on the next clean re-ANALYZE, so
   a short exponential backoff can land on a fresh epoch — bounded by
   [epoch_retries]. Always returns an epoch: after the last retry the
   stale-but-sane statistics are served with the staleness disclosed. *)
let pin_with_retry ss epoch0 tables =
  let t = ss.server in
  let stale epoch =
    List.concat_map
      (fun table ->
        List.map
          (fun note -> (table, note))
          (Catalog.Epoch.annotations_for epoch table))
      tables
  in
  let rec go attempt epoch =
    match stale epoch with
    | [] -> (epoch, [])
    | notes when attempt >= t.cfg.epoch_retries -> (epoch, notes)
    | _ ->
      Atomic.incr ss.s_epoch_retries;
      count t "serve.epoch_retries";
      Unix.sleepf
        (t.cfg.retry_backoff_ms *. (2. ** float_of_int attempt) /. 1000.);
      go (attempt + 1) (locked t Catalog.Store.pin)
  in
  let epoch, notes = go 0 epoch0 in
  atomic_max ss.s_max_epoch (Catalog.Epoch.id epoch);
  (epoch, notes)

let json_of_sizes sizes =
  Obs.Json.List (List.map (fun s -> Obs.Json.Float s) sizes)

let json_of_strings l = Obs.Json.List (List.map (fun s -> Obs.Json.String s) l)

let stale_fields = function
  | [] -> []
  | notes ->
    [
      ( "stale",
        Obs.Json.List
          (List.map
             (fun (table, note) ->
               Obs.Json.Obj
                 [
                   ("table", Obs.Json.String table);
                   ("note", Obs.Json.String note);
                 ])
             notes) );
    ]

let provenance_fields (p : Optimizer.Provenance.t) =
  [
    ("rung", Obs.Json.String (Optimizer.Provenance.rung_name p.rung));
    ("expansions", Obs.Json.Int p.expansions);
    ( "exhausted",
      match p.exhausted with
      | None -> Obs.Json.Null
      | Some r -> Obs.Json.String (Rel.Budget.resource_name r) );
  ]

let counters_fields (c : Exec.Counters.t) =
  [
    ("tuples_read", Obs.Json.Int c.Exec.Counters.tuples_read);
    ("comparisons", Obs.Json.Int c.Exec.Counters.comparisons);
    ("tuples_output", Obs.Json.Int c.Exec.Counters.tuples_output);
    ("work", Obs.Json.Int (Exec.Counters.total_work c));
  ]

let query_tables query = List.map (Query.source query) query.Query.tables

let handle_estimate ss ~budget ~sql ~estimator ~order =
  let t = ss.server in
  let* () = check_budget ~site:"serve.estimate" budget in
  let* config = resolve_config estimator in
  (* Estimate against a pinned snapshot: this request's numbers cannot be
     torn by a concurrent publish. Binding reads only schema, which no
     publish changes, so the bound query survives a re-pin. *)
  let epoch0 = locked t Catalog.Store.pin in
  let* query = Sqlfront.Binder.compile_result (Catalog.Epoch.db epoch0) sql in
  let epoch, stale = pin_with_retry ss epoch0 (query_tables query) in
  let edb = Catalog.Epoch.db epoch in
  let* order =
    match order with
    | None -> Ok query.Query.tables
    | Some order ->
      let order = List.map String.lowercase_ascii order in
      let norm l = List.sort String.compare l in
      if norm order = norm query.Query.tables then Ok order
      else invalid "order must be a permutation of the query's tables"
  in
  let* sizes, estimate = Els.sizes_and_estimate_result config edb query order in
  let* () = check_budget ~site:"serve.estimate" budget in
  Ok
    ( "estimate",
      [
        ("estimate", Obs.Json.Float estimate);
        ("sizes", json_of_sizes sizes);
        ("order", json_of_strings order);
        ("epoch", Obs.Json.Int (Catalog.Epoch.id epoch));
      ]
      @ stale_fields stale )

let handle_explain ss ~budget ~sql ~estimator ~enumerator =
  let t = ss.server in
  let* () = check_budget ~site:"serve.explain" budget in
  let* config = resolve_config estimator in
  let* enumerator = resolve_enumerator enumerator in
  let epoch0 = locked t Catalog.Store.pin in
  let* query = Sqlfront.Binder.compile_result (Catalog.Epoch.db epoch0) sql in
  let epoch, stale = pin_with_retry ss epoch0 (query_tables query) in
  let edb = Catalog.Epoch.db epoch in
  match Optimizer.choose ~enumerator ?budget config edb query with
  | exception Els.Els_error.Error e -> Error (e, [])
  | choice ->
    Ok
      ( "explain",
        [
          ("algorithm", Obs.Json.String choice.Optimizer.algorithm);
          ("join_order", json_of_strings choice.Optimizer.join_order);
          ("estimates", json_of_sizes choice.Optimizer.intermediate_estimates);
          ("cost", Obs.Json.Float choice.Optimizer.estimated_cost);
          ("epoch", Obs.Json.Int (Catalog.Epoch.id epoch));
        ]
        @ provenance_fields choice.Optimizer.provenance
        @ stale_fields stale )

let handle_run ss ~budget ~sql ~estimator ~enumerator =
  let t = ss.server in
  let* () = check_budget ~site:"serve.run" budget in
  let* config = resolve_config estimator in
  let* enumerator = resolve_enumerator enumerator in
  (* Execution reads the live relations, so it serializes with catalog
     churn (insert/delete/reanalyze/publish) under the catalog lock; the
     estimate/explain hot path never waits here beyond the epoch pin. *)
  locked t @@ fun _store ->
  let* query = Sqlfront.Binder.compile_result t.db sql in
  match Optimizer.choose ~enumerator ?budget config t.db query with
  | exception Els.Els_error.Error e -> Error (e, [])
  | choice -> begin
    let provenance = provenance_fields choice.Optimizer.provenance in
    match Exec.Executor.count_result ?budget t.db choice.Optimizer.plan with
    | Ok rows, counters, elapsed_s ->
      Ok
        ( "run",
          [
            ("join_order", json_of_strings choice.Optimizer.join_order);
            ("estimates", json_of_sizes choice.Optimizer.intermediate_estimates);
            ("rows", Obs.Json.Int rows);
            ("elapsed_ms", Obs.Json.Float (elapsed_s *. 1000.));
          ]
          @ counters_fields counters @ provenance )
    | Error e, counters, _ ->
      (* The budget tripped mid-execution: a structured refusal that
         still discloses the anytime rung that planned the run and the
         partial work performed. *)
      Error (e, provenance @ counters_fields counters)
  end

let handle_analyze ss ~budget ~table ~shards =
  let t = ss.server in
  let* () = check_budget ~site:"serve.analyze" budget in
  locked t @@ fun store ->
  let* tables =
    match table with
    | Some name ->
      let name = String.lowercase_ascii name in
      if Catalog.Db.mem t.db name then Ok [ name ]
      else Error (Els.Els_error.Missing_stats { table = name; column = None })
    | None ->
      Ok (List.map (fun tbl -> tbl.Catalog.Table.name) (Catalog.Db.tables t.db))
  in
  List.iter (fun table -> Catalog.Store.reanalyze ?shards store ~table) tables;
  match Catalog.Store.publish store with
  | Error issue -> Error (Els.Els_error.of_issue issue, [])
  | Ok epoch ->
    atomic_max ss.s_max_epoch (Catalog.Epoch.id epoch);
    let s = Catalog.Store.stats store in
    (* Disclose how many columns of the published epoch carry degree
       sequences, so clients know whether lp2/degseq/ent will read real
       statistics or degrade to min-rows. *)
    let degree_columns =
      List.fold_left
        (fun acc tbl ->
          List.fold_left
            (fun acc (_, cs) ->
              if cs.Stats.Col_stats.degree <> None then acc + 1 else acc)
            acc tbl.Catalog.Table.column_stats)
        0
        (Catalog.Db.tables (Catalog.Epoch.db epoch))
    in
    Ok
      ( "analyze",
        [
          ("epoch", Obs.Json.Int (Catalog.Epoch.id epoch));
          ("tables", json_of_strings tables);
          ("degree_columns", Obs.Json.Int degree_columns);
          ("quarantined_now", Obs.Json.Int s.Catalog.Store.quarantined_now);
          ("audits_failed", Obs.Json.Int s.Catalog.Store.audits_failed);
          ("stale_served", Obs.Json.Int s.Catalog.Store.stale_served);
        ] )

let queue_depth_now ss =
  Mutex.lock ss.mu;
  let d = Queue.length ss.queue in
  Mutex.unlock ss.mu;
  d

let health_fields ss =
  let t = ss.server in
  let epoch = locked t Catalog.Store.pin in
  atomic_max ss.s_max_epoch (Catalog.Epoch.id epoch);
  [
    ("epoch", Obs.Json.Int (Catalog.Epoch.id epoch));
    ("queue_depth", Obs.Json.Int (queue_depth_now ss));
    ("domains", Obs.Json.Int t.cfg.domains);
    ("draining", Obs.Json.Bool (Atomic.get ss.draining));
  ]

let session_counter_fields ss =
  [
    ("frames", Obs.Json.Int (Atomic.get ss.s_frames));
    ("admitted", Obs.Json.Int (Atomic.get ss.s_admitted));
    ("answered_ok", Obs.Json.Int (Atomic.get ss.s_ok));
    ("answered_error", Obs.Json.Int (Atomic.get ss.s_error));
    ("shed", Obs.Json.Int (Atomic.get ss.s_shed));
    ("malformed", Obs.Json.Int (Atomic.get ss.s_malformed));
    ("internal_errors", Obs.Json.Int (Atomic.get ss.s_internal));
    ("budget_trips", Obs.Json.Int (Atomic.get ss.s_budget_trips));
    ("epoch_retries", Obs.Json.Int (Atomic.get ss.s_epoch_retries));
    ("max_epoch", Obs.Json.Int (Atomic.get ss.s_max_epoch));
  ]

(* --- worker side --- *)

let dispatch ss (job : job) =
  let budget = job.budget in
  match job.request.Protocol.op with
  | Protocol.Estimate { sql; estimator; order } ->
    handle_estimate ss ~budget ~sql ~estimator ~order
  | Protocol.Explain { sql; estimator; enumerator } ->
    handle_explain ss ~budget ~sql ~estimator ~enumerator
  | Protocol.Run { sql; estimator; enumerator } ->
    handle_run ss ~budget ~sql ~estimator ~enumerator
  | Protocol.Analyze { table; shards } ->
    handle_analyze ss ~budget ~table ~shards
  | Protocol.Health -> Ok ("health", health_fields ss)
  | Protocol.Drain ->
    (* Drain is handled inline by the reader; one that somehow reaches a
       worker is acknowledged as a no-op. *)
    Ok ("drain", session_counter_fields ss)

let handle_job ss (job : job) =
  let id = job.request.Protocol.id in
  (* A request whose deadline passed while queued is answered without
     doing any work — the budget spans queue wait by construction. *)
  let outcome =
    match check_budget ~site:"serve.queue" job.budget with
    | Error e -> Error (e, [])
    | Ok () -> begin
      (* Per-request exception firewall: any raise below becomes a
         structured response; the worker and the server survive. *)
      match dispatch ss job with
      | result -> result
      | exception Els.Els_error.Error e -> Error (e, [])
      | exception Rel.Budget.Exhausted resource ->
        Error
          ( Els.Els_error.Budget_exhausted
              {
                site = "serve.worker";
                resource;
                detail = "budget exhausted mid-request";
              },
            [] )
      | exception exn ->
        Atomic.incr ss.s_internal;
        count ss.server "serve.internal_errors";
        Error
          ( Els.Els_error.Invariant_violation
              { site = "serve.worker"; detail = Printexc.to_string exn },
            [] )
    end
  in
  (match outcome with
  | Ok (op, fields) -> answer ss ~ok:true (Protocol.response_ok ~id ~op fields)
  | Error (e, extra) -> answer_error ss ~id ~extra e);
  let clock =
    match ss.server.cfg.clock with Some c -> c | None -> Unix.gettimeofday
  in
  observe_latency ss.server ((clock () -. job.admitted_at) *. 1000.)

let worker_loop ss =
  let rec go () =
    Mutex.lock ss.mu;
    while Queue.is_empty ss.queue && not ss.finished do
      Condition.wait ss.nonempty ss.mu
    done;
    match Queue.take_opt ss.queue with
    | None ->
      (* finished && empty *)
      Mutex.unlock ss.mu
    | Some job ->
      Atomic.incr ss.in_flight;
      Mutex.unlock ss.mu;
      handle_job ss job;
      Atomic.decr ss.in_flight;
      go ()
  in
  go ()

(* --- reader side --- *)

let make_budget ss (spec : Protocol.budget_spec) =
  let cfg = ss.server.cfg in
  let deadline_ms =
    match spec.Protocol.deadline_ms with
    | Some _ as d -> d
    | None -> cfg.default_deadline_ms
  in
  match (deadline_ms, spec.Protocol.node_budget, spec.Protocol.row_budget) with
  | None, None, None -> None
  | _ ->
    Some
      (Rel.Budget.create ?clock:cfg.clock ?deadline_ms
         ?node_budget:spec.Protocol.node_budget
         ?row_budget:spec.Protocol.row_budget ())

let shed ss ~id ~depth ~policy =
  Atomic.incr ss.s_shed;
  count ss.server "serve.shed";
  answer_error ss ~id (Els.Els_error.Overloaded { depth; shed_policy = policy })

let admit ss (request : Protocol.request) =
  let id = request.Protocol.id in
  if Atomic.get ss.draining || Atomic.get ss.server.stopping then
    shed ss ~id ~depth:(queue_depth_now ss) ~policy:"draining"
  else begin
    let clock =
      match ss.server.cfg.clock with Some c -> c | None -> Unix.gettimeofday
    in
    (* The budget is created at admission, so queue wait counts against
       the request's deadline. *)
    let job =
      {
        request;
        budget = make_budget ss request.Protocol.budget;
        admitted_at = clock ();
      }
    in
    Mutex.lock ss.mu;
    if Queue.length ss.queue >= ss.server.cfg.queue_depth then begin
      let depth = Queue.length ss.queue in
      Mutex.unlock ss.mu;
      shed ss ~id ~depth ~policy:"reject-newest"
    end
    else begin
      Queue.add job ss.queue;
      Condition.signal ss.nonempty;
      Mutex.unlock ss.mu;
      Atomic.incr ss.s_admitted;
      count ss.server "serve.admitted"
    end
  end

(* Stop admission, wait (bounded) for queued + in-flight work, answer the
   drain with the session's counters. Runs on the reader thread so a
   single-domain session cannot deadlock behind its own drain. *)
let drain ss ~id =
  Atomic.set ss.draining true;
  count ss.server "serve.drains";
  let deadline =
    Unix.gettimeofday () +. (ss.server.cfg.drain_deadline_ms /. 1000.)
  in
  let rec wait () =
    (* A worker moves a job from the queue into in_flight while holding
       [mu], so probing both under [mu] cannot miss the handoff. *)
    let busy =
      Mutex.lock ss.mu;
      let b = (not (Queue.is_empty ss.queue)) || Atomic.get ss.in_flight > 0 in
      Mutex.unlock ss.mu;
      b
    in
    if not busy then true
    else if Unix.gettimeofday () > deadline then false
    else begin
      Unix.sleepf 0.001;
      wait ()
    end
  in
  let completed = wait () in
  if not completed then begin
    Atomic.set ss.s_drain_timed_out true;
    count ss.server "serve.drain_timeouts"
  end;
  Atomic.set ss.s_drained true;
  answer ss ~ok:true
    (Protocol.response_ok ~id ~op:"drain"
       (("completed", Obs.Json.Bool completed) :: session_counter_fields ss))

let session t ic oc =
  let ss =
    {
      server = t;
      queue = Queue.create ();
      mu = Mutex.create ();
      nonempty = Condition.create ();
      finished = false;
      draining = Atomic.make false;
      in_flight = Atomic.make 0;
      out = oc;
      out_mu = Mutex.create ();
      out_dead = ref false;
      s_frames = Atomic.make 0;
      s_admitted = Atomic.make 0;
      s_ok = Atomic.make 0;
      s_error = Atomic.make 0;
      s_shed = Atomic.make 0;
      s_malformed = Atomic.make 0;
      s_internal = Atomic.make 0;
      s_budget_trips = Atomic.make 0;
      s_epoch_retries = Atomic.make 0;
      s_drained = Atomic.make false;
      s_drain_timed_out = Atomic.make false;
      s_max_epoch = Atomic.make 0;
    }
  in
  let workers =
    List.init t.cfg.domains (fun _ -> Domain.spawn (fun () -> worker_loop ss))
  in
  let malformed ~id err =
    Atomic.incr ss.s_malformed;
    count t "serve.malformed";
    answer_error ss ~id err
  in
  let rec read_loop () =
    match read_frame ic ~max_bytes:t.cfg.max_frame_bytes with
    | Eof -> ()
    | Oversized n ->
      Atomic.incr ss.s_frames;
      count t "serve.frames";
      malformed ~id:None
        (Els.Els_error.Parse_error
           {
             position = t.cfg.max_frame_bytes;
             detail =
               Printf.sprintf "frame of %d bytes exceeds the %d-byte limit" n
                 t.cfg.max_frame_bytes;
           });
      read_loop ()
    | Frame line ->
      Atomic.incr ss.s_frames;
      count t "serve.frames";
      (if String.trim line = "" then ()
       else
         match Protocol.parse ~max_frame_bytes:t.cfg.max_frame_bytes line with
         | Error (id, err) -> malformed ~id err
         | Ok request -> begin
           match request.Protocol.op with
           | Protocol.Health ->
             (* Answered inline so liveness probes work even when the
                queue is full or the session is draining. *)
             answer ss ~ok:true
               (Protocol.response_ok ~id:request.Protocol.id ~op:"health"
                  (health_fields ss))
           | Protocol.Drain -> drain ss ~id:request.Protocol.id
           | _ -> admit ss request
         end);
      read_loop ()
  in
  read_loop ();
  (* EOF is an implicit drain: workers finish whatever is queued, then
     exit. *)
  Mutex.lock ss.mu;
  ss.finished <- true;
  Condition.broadcast ss.nonempty;
  Mutex.unlock ss.mu;
  List.iter Domain.join workers;
  flush_metrics t;
  {
    frames = Atomic.get ss.s_frames;
    admitted = Atomic.get ss.s_admitted;
    answered_ok = Atomic.get ss.s_ok;
    answered_error = Atomic.get ss.s_error;
    shed = Atomic.get ss.s_shed;
    malformed = Atomic.get ss.s_malformed;
    internal_errors = Atomic.get ss.s_internal;
    budget_trips = Atomic.get ss.s_budget_trips;
    epoch_retries = Atomic.get ss.s_epoch_retries;
    disconnected = !(ss.out_dead);
    drained = Atomic.get ss.s_drained;
    drain_timed_out = Atomic.get ss.s_drain_timed_out;
    max_epoch = Atomic.get ss.s_max_epoch;
  }

(* --- socket front --- *)

let serve_socket t ~path =
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let threads = ref [] in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close sock with Unix.Unix_error _ -> ());
      List.iter Thread.join !threads;
      try Unix.unlink path with Unix.Unix_error _ -> ())
  @@ fun () ->
  Unix.bind sock (Unix.ADDR_UNIX path);
  Unix.listen sock 16;
  while not (Atomic.get t.stopping) do
    (* Poll so request_stop (the SIGTERM hook) is honored promptly. *)
    match Unix.select [ sock ] [] [] 0.25 with
    | [], _, _ -> ()
    | _ :: _, _, _ ->
      let conn, _ = Unix.accept sock in
      let th =
        Thread.create
          (fun conn ->
            let ic = Unix.in_channel_of_descr conn in
            let oc = Unix.out_channel_of_descr conn in
            (try ignore (session t ic oc) with _ -> ());
            try Unix.close conn with Unix.Unix_error _ -> ())
          conn
      in
      threads := th :: !threads
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done
