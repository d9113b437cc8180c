(* Per-layer metrics: the traced in-process replay, the server's own
   metrics snapshot, and the sequential phase's client-side latencies. *)

open Summary

let snapshot_value snapshot section name =
  match Option.bind (Obs.Json.member section snapshot) (Obs.Json.member name) with
  | Some (Obs.Json.Int n) -> float_of_int n
  | Some (Obs.Json.Float x) -> x
  | _ -> 0.

(* [frames] are the (id, frame) pairs the sequential phase sent;
   [seq_client] its client-side latencies (s); [snapshot] the server's
   metrics, whose latency gauges cover that phase alone. *)
let metrics ~trace_out ~ref_ ~frames ~seq_client ~snapshot ~late_p99_ms =
  (* Warm once, then time an untraced and a traced pass of the same
     requests. *)
  ignore (Traced.replay ref_ frames);
  let plain = Traced.replay ref_ frames in
  let tracer = Obs.Trace.create ~clock:Clock.now () in
  let traced = Traced.replay ~tracer ref_ frames in
  Option.iter
    (fun path ->
      let oc = open_out path in
      output_string oc (Obs.Json.to_string (Obs.Trace.to_json tracer));
      close_out oc)
    trace_out;
  let requests = List.map Traced.layers (Obs.Trace.roots tracer) in
  let with_layer name =
    List.filter_map (fun r -> List.assoc_opt name r.Traced.self) requests
  in
  let self name = median (with_layer name) in
  let n_with name = float_of_int (List.length (with_layer name)) in
  let c = traced.Traced.counts in
  let per name v = ratio (float_of_int v) (n_with name) in
  let server_p50_ms = snapshot_value snapshot "gauges" "serve.latency_p50_ms" in
  let traced_us = median (List.map (fun r -> r.Traced.total_s) requests) *. 1e6 in
  let optimize_s = List.fold_left ( +. ) 0. (with_layer "optimize") in
  let count name = snapshot_value snapshot "counters" name in
  [
    metric "serve.server_p50_ms" server_p50_ms "ms";
    metric "serve.transport_p50_ms" ((median seq_client *. 1000.) -. server_p50_ms) "ms";
    metric "serve.protocol_parse_us" (self "protocol_parse" *. 1e6) "us";
    metric "serve.encode_us" (self "encode" *. 1e6) "us";
    metric "serve.unaccounted_us" ((server_p50_ms *. 1000.) -. traced_us) "us";
    metric "serve.shed" (count "serve.shed") "count";
    metric "serve.internal_errors" (count "serve.internal_errors") "count";
    metric "serve.epoch_retries" (count "serve.epoch_retries") "count";
    metric "serve.budget_trips" (count "serve.budget_trips") "count";
    metric "sqlfront.parse_us" (self "sql_parse" *. 1e6) "us";
    metric "sqlfront.bind_us" (self "bind" *. 1e6) "us";
    metric "catalog.pin_us" (self "pin" *. 1e6) "us";
    metric "catalog.validate_us" (self "validate" *. 1e6) "us";
    metric "catalog.validate_tables"
      (ratio
         (float_of_int (List.fold_left (fun n r -> n + r.Traced.validate_tables) 0 requests))
         (n_with "validate"))
      "count";
    metric "catalog.reanalyze_ms" (self "reanalyze" *. 1000.) "ms";
    metric "catalog.publish_ms" (self "publish" *. 1000.) "ms";
    metric "catalog.publishes" (float_of_int c.Traced.publishes) "count";
    metric "core.profile_us" (self "profile" *. 1e6) "us";
    metric "core.kernel_compile_us" (self "kernel_compile" *. 1e6) "us";
    metric "core.estimate_us" (self "estimate_order" *. 1e6) "us";
    metric "core.kernel_steps" (per "profile" c.Traced.kernel_steps) "count";
    metric "core.fallback_steps" (per "profile" c.Traced.fallback_steps) "count";
    metric "core.kernel_share"
      (ratio (float_of_int c.Traced.kernel_steps)
         (float_of_int (c.Traced.kernel_steps + c.Traced.fallback_steps)))
      "ratio";
    metric "core.sel_hit_ratio"
      (ratio (float_of_int c.Traced.sel_hits) (float_of_int (c.Traced.sel_hits + c.Traced.sel_misses)))
      "ratio";
    metric "optimizer.optimize_ms" (self "optimize" *. 1000.) "ms";
    metric "optimizer.expansions" (per "optimize" c.Traced.expansions) "count";
    metric "optimizer.ns_per_expansion" (ratio (optimize_s *. 1e9) (float_of_int c.Traced.expansions)) "ns";
    metric "exec.execute_ms" (self "execute" *. 1000.) "ms";
    metric "exec.tuples_read" (per "execute" c.Traced.tuples_read) "count";
    metric "exec.tuples_output" (per "execute" c.Traced.tuples_output) "count";
    metric "exec.work_per_row" (ratio (float_of_int c.Traced.work) (float_of_int c.Traced.rows)) "ratio";
    metric "gc.minor_words_per_req"
      (ratio plain.Traced.minor_words (float_of_int plain.Traced.counts.Traced.requests))
      "words";
    metric "loadgen.late_p99_ms" late_p99_ms "ms";
    metric "trace.overhead_ratio" (ratio traced.Traced.wall_s plain.Traced.wall_s) "ratio";
  ]
