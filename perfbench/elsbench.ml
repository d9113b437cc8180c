(* elsbench: the serve benchmark. Drives a spawned `elsdb serve` over its
   ndjson socket protocol with one seeded workload, checks every answer,
   and prints one JSON result line (see README.md). *)

let usage =
  "elsbench --workload NAME --seed N --seconds S --trace 0|1 --rate R \
   --elsdb EXE --dir DIR [--trace-out FILE] [--self-test]"

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  rate : float;
  elsdb : string;
  dir : string;
  trace_out : string option;
  self_test : bool;
}

let parse_args () =
  let a =
    ref
      {
        workload = "";
        seed = 0;
        seconds = 10.;
        trace = false;
        rate = 0.;
        elsdb = "";
        dir = "";
        trace_out = None;
        self_test = false;
      }
  in
  let rec go = function
    | "--workload" :: v :: rest -> a := { !a with workload = v }; go rest
    | "--seed" :: v :: rest -> a := { !a with seed = int_of_string v }; go rest
    | "--seconds" :: v :: rest -> a := { !a with seconds = float_of_string v }; go rest
    | "--trace" :: v :: rest -> a := { !a with trace = v = "1" }; go rest
    | "--rate" :: v :: rest -> a := { !a with rate = float_of_string v }; go rest
    | "--elsdb" :: v :: rest -> a := { !a with elsdb = v }; go rest
    | "--dir" :: v :: rest -> a := { !a with dir = v }; go rest
    | "--trace-out" :: v :: rest -> a := { !a with trace_out = Some v }; go rest
    | "--self-test" :: rest -> a := { !a with self_test = true }; go rest
    | [] -> ()
    | other :: _ ->
      prerr_endline ("elsbench: unexpected argument " ^ other ^ "\n" ^ usage);
      exit 2
  in
  go (List.tl (Array.to_list Sys.argv));
  if !a.elsdb = "" || !a.dir = "" || ((not !a.self_test) && !a.workload = "") then begin
    prerr_endline usage;
    exit 2
  end;
  !a

open Summary

let ms s = s *. 1000.
let us s = s *. 1e6

(* --- the run --- *)

type stream = {
  next_request : unit -> Mix.request;
  mutable issued : Mix.request list;  (** newest first *)
  mutable count : int;
}

let id_of idx = "r" ^ string_of_int idx

let take s () =
  let r = s.next_request () in
  let idx = s.count in
  s.issued <- r :: s.issued;
  s.count <- idx + 1;
  (idx, Mix.frame ~id:(id_of idx) r)

let request_at s =
  let a = Array.of_list (List.rev s.issued) in
  fun idx -> a.(idx)

let file_bytes path = (Unix.stat path).Unix.st_size

let setup_spawns = 7
let warmup_s = 1.0
let rounds = 10

let run a =
  let domains = Domain.recommended_domain_count () in
  let w = Mix.make a.workload ~seed:a.seed in
  let csvs = Mix.write_csvs a.dir w in
  let sock = Filename.concat a.dir "serve.sock" in
  let s = { next_request = w.Mix.next; issued = []; count = 0 } in
  (* Set-up: spawn to first health answer, several times; the last server
     stays up and serves the run. *)
  let rec spawn k acc =
    let server, c, setup = Loadgen.start ~exe:a.elsdb ~csvs ~domains ~sock ~dir:a.dir in
    if k = 1 then (server, c, setup :: acc)
    else begin
      Loadgen.close c;
      Loadgen.kill server;
      spawn (k - 1) (setup :: acc)
    end
  in
  let server, c0, setups = spawn setup_spawns [] in
  let conns =
    Array.init domains (fun i ->
        if i = 0 then c0 else Loadgen.conn (Option.get (Loadgen.connect sock)))
  in
  let phase conns pacing seconds = Loadgen.phase ~conns ~pacing ~seconds ~take:(take s) () in
  let cpu () = Loadgen.cpu_s server.Loadgen.pid in
  let warm, _ = phase conns Loadgen.Closed warmup_s in
  (* Open- and closed-loop slices alternate over several rounds, and each
     metric is the better quartile over rounds (Summary.better_quartile). *)
  let per_round = a.seconds /. float_of_int rounds in
  let measured =
    List.init rounds (fun _ ->
        let opened, _ =
          phase conns (Loadgen.Open a.rate) (per_round *. 0.4)
        in
        let closed =
          if a.trace then None
          else begin
            let cpu0 = cpu () in
            let samples, elapsed = phase conns Loadgen.Closed (per_round *. 0.6) in
            Some (samples, elapsed, cpu () -. cpu0)
          end
        in
        (opened, closed))
  in
  let open_samples = List.concat_map fst measured in
  let closed = List.filter_map snd measured in
  let closed_samples = List.concat_map (fun (x, _, _) -> x) closed in
  let rss = Loadgen.vm_hwm_mb server.Loadgen.pid in
  Array.iter Loadgen.close conns;
  (* One request outstanding: the server-side latency the traced run is
     compared with. Its own connection, so its latencies are the last
     window the server flushes before it exits. *)
  let seq_samples =
    if not a.trace then []
    else begin
      Unix.sleepf 0.05;
      let c = Loadgen.conn (Option.get (Loadgen.connect sock)) in
      let samples, _ = phase [| c |] Loadgen.Closed (a.seconds *. 0.2) in
      Loadgen.close c;
      Unix.sleepf 0.05;
      samples
    end
  in
  let snapshot = Loadgen.stop server in
  (* --- correctness --- *)
  let request = request_at s in
  let all = warm @ open_samples @ closed_samples @ seq_samples in
  let tally =
    Checker.check ~domains (Checker.reference csvs)
      (List.map
         (fun (x : Loadgen.sample) -> (id_of x.Loadgen.idx, request x.Loadgen.idx, x.Loadgen.line))
         all)
  in
  let missing = s.count - List.length all in
  let failed = tally.Checker.errors + tally.Checker.wrong + missing in
  (* --- workload facts --- *)
  let latency (x : Loadgen.sample) = x.Loadgen.recv -. x.Loadgen.due in
  let late_p99 = ms (quantile 0.99 (List.map Loadgen.generator_late open_samples)) in
  let wait_p99 =
    ms (quantile 0.99 (List.map (fun (x : Loadgen.sample) -> x.Loadgen.sent -. x.Loadgen.due) open_samples))
  in
  let by_op op l = List.filter (fun (x : Loadgen.sample) -> (request x.Loadgen.idx).Mix.op = op) l in
  let ops = [ Mix.Estimate; Mix.Explain; Mix.Run; Mix.Analyze ] in
  let per_op =
    List.filter_map
      (fun op ->
        match by_op op open_samples with
        | [] -> None
        | l ->
          let lat = List.map latency l in
          Some
            ( Mix.op_name op,
              Obs.Json.Obj
                [
                  ("samples", Obs.Json.Int (List.length l));
                  ("p50_ms", Obs.Json.Float (ms (median lat)));
                  ("p99_ms", Obs.Json.Float (ms (quantile 0.99 lat)));
                ] ))
      ops
  in
  let issued = List.rev s.issued in
  let mix =
    List.map
      (fun op ->
        (Mix.op_name op, Obs.Json.Int (List.length (List.filter (fun r -> r.Mix.op = op) issued))))
      ops
  in
  let texts = List.filter_map (fun r -> if r.Mix.op = Mix.Analyze then None else Some r.Mix.sql) issued in
  let seen = Hashtbl.create 1024 in
  let repeats =
    List.fold_left
      (fun n t -> if Hashtbl.mem seen t then n + 1 else (Hashtbl.add seen t (); n))
      0 texts
  in
  let facts =
    [
      ("workload", Obs.Json.String a.workload);
      ("seed", Obs.Json.Int a.seed);
      ("rate_per_s", Obs.Json.Float a.rate);
      ("op_mix", Obs.Json.Obj mix);
      ("distinct_sql_texts", Obs.Json.Int (Hashtbl.length seen));
      ("repeat_share", Obs.Json.Float (ratio (float_of_int repeats) (float_of_int (List.length texts))));
      ( "csv",
        Obs.Json.Obj
          [
            ("tables", Obs.Json.Int (List.length csvs));
            ( "rows",
              Obs.Json.Int
                (List.fold_left (fun n (_, r) -> n + Rel.Relation.cardinality r) 0 w.Mix.tables) );
            ("bytes", Obs.Json.Int (List.fold_left (fun n p -> n + file_bytes p) 0 csvs));
          ] );
      ("nproc", Obs.Json.Int domains);
      ("ocaml", Obs.Json.String Sys.ocaml_version);
      ( "backend",
        Obs.Json.String
          (match Sys.backend_type with
          | Sys.Native -> "native"
          | Sys.Bytecode -> "bytecode"
          | Sys.Other s -> s) );
      ("open_loop_latency", Obs.Json.Obj per_op);
      ( "rounds",
        Obs.Json.List
          (List.map
             (fun (opened, closed) ->
               Obs.Json.Obj
                 ([ ("p50_ms", Obs.Json.Float (ms (median (List.map latency opened)))) ]
                 @
                 match closed with
                 | None -> []
                 | Some (x, elapsed, cpu) ->
                   [
                     ("qps", Obs.Json.Float (ratio (float_of_int (List.length x)) elapsed));
                     ("cpu_us_per_req", Obs.Json.Float (us (ratio cpu (float_of_int (List.length x)))));
                   ]))
             measured) );
      ("loadgen_late_p99_ms", Obs.Json.Float late_p99);
      ("connection_wait_p99_ms", Obs.Json.Float wait_p99);
      ("generator_behind", Obs.Json.Bool (late_p99 > 1.));
      ("errors", Obs.Json.Int tally.Checker.errors);
      ("wrong", Obs.Json.Int tally.Checker.wrong);
      ("missing", Obs.Json.Int missing);
      ( "first_wrong",
        match tally.Checker.first_wrong with None -> Obs.Json.Null | Some w -> Obs.Json.String w );
      ("fail_ratio", Obs.Json.Float (ratio (float_of_int failed) (float_of_int s.count)));
    ]
  in
  let metrics =
    if not a.trace then begin
      (* Gated latencies come from the closed loop: a machine slowed by
         other tenants moves them in proportion, where it drives the
         fixed-rate open loop into a backlog (reported in the facts). *)
      let closed_quantile q =
        better_quartile `Lower
          (List.map
             (fun (x, _, _) ->
               ms (quantile q (List.map (fun (x : Loadgen.sample) -> x.Loadgen.recv -. x.Loadgen.sent) x)))
             closed)
      in
      let ok x = List.length (List.filter (fun (x : Loadgen.sample) -> Loadgen.ok x.Loadgen.line) x) in
      [
        metric "setup_s" (median setups) "s";
        metric "qps"
          (better_quartile `Higher
             (List.map (fun (x, elapsed, _) -> ratio (float_of_int (ok x)) elapsed) closed))
          "1/s";
        metric "p50_ms" (closed_quantile 0.5) "ms";
        metric "p90_ms" (closed_quantile 0.9) "ms";
        metric "cpu_us_per_req"
          (better_quartile `Lower
             (List.map (fun (x, _, cpu) -> us (ratio cpu (float_of_int (List.length x)))) closed))
          "us";
        metric "rss_mb" rss "MB";
      ]
    end
    else
      let frame (x : Loadgen.sample) =
        (id_of x.Loadgen.idx, Mix.frame ~id:(id_of x.Loadgen.idx) (request x.Loadgen.idx))
      in
      Layers.metrics ~trace_out:a.trace_out ~ref_:(Checker.reference csvs)
        ~frames:(List.map frame seq_samples)
        ~seq_client:
          (List.map (fun (x : Loadgen.sample) -> x.Loadgen.recv -. x.Loadgen.sent) seq_samples)
        ~snapshot ~late_p99_ms:late_p99
  in
  print_endline (Obs.Json.to_string (Obs.Json.Obj [ ("facts", Obs.Json.Obj facts) ]));
  print_endline
    (Obs.Json.to_string
       (Obs.Json.Obj
          [
            ("correct", Obs.Json.Bool (failed = 0));
            ("attempted", Obs.Json.Int s.count);
            ("failed", Obs.Json.Int failed);
            ("metrics", Obs.Json.Obj metrics);
          ]))

let () =
  let a = parse_args () in
  at_exit Loadgen.kill_all;
  (* Stopped from outside: exit, so [at_exit] still stops the servers. *)
  List.iter (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 1))) [ Sys.sigterm; Sys.sigint ];
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  if a.self_test then Selftest.run ~elsdb:a.elsdb ~dir:a.dir else run a
