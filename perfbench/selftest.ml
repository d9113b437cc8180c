(* The benchmark's own test: the checker catches a perturbed answer, and
   the sheds of an unpaced burst are counted as failures. Exit 0 on
   PASS. *)

let bump_last_bit x = Int64.float_of_bits (Int64.succ (Int64.bits_of_float x))

(* Perturb the first compared number of a response by one ulp (or one
   row), keeping everything else. *)
let perturb op line =
  let field = match op with Mix.Run -> "rows" | Mix.Explain -> "cost" | _ -> "estimate" in
  match Obs.Json.of_string line with
  | Ok (Obs.Json.Obj fields) ->
    Obs.Json.to_string
      (Obs.Json.Obj
         (List.map
            (fun (k, v) ->
              if k <> field then (k, v)
              else
                match v with
                | Obs.Json.Int n -> (k, Obs.Json.Int (n + 1))
                | Obs.Json.Float x -> (k, Obs.Json.Float (bump_last_bit x))
                | other -> (k, other))
            fields))
  | _ -> line

let check name ok detail =
  Printf.printf "%s %s: %s\n%!" (if ok then "PASS" else "FAIL") name detail;
  ok

let run ~elsdb ~dir =
  let domains = Domain.recommended_domain_count () in
  let w = Mix.make "mixed-churn" ~seed:7 in
  let csvs = Mix.write_csvs dir w in
  let sock = Filename.concat dir "serve.sock" in
  let server, c, _ = Loadgen.start ~exe:elsdb ~csvs ~domains ~sock ~dir in
  (* 1. Sequential answers all match; one perturbed answer per op does not. *)
  let answers =
    List.init 80 (fun i ->
        let r = w.Mix.next () and id = Printf.sprintf "s%d" i in
        (id, r, Loadgen.roundtrip c (Mix.frame ~id r)))
  in
  let clean = Checker.check ~domains (Checker.reference csvs) answers in
  let ok1 =
    check "clean answers match"
      (clean.Checker.matched = List.length answers)
      (Printf.sprintf "%d of %d matched" clean.Checker.matched (List.length answers))
  in
  let ok2 =
    List.for_all
      (fun op ->
        match List.find_opt (fun (_, (r : Mix.request), _) -> r.Mix.op = op) answers with
        | None -> check ("perturbed " ^ Mix.op_name op) false "no such request in the stream"
        | Some target ->
          let damaged =
            List.map
              (fun ((id, r, line) as a) -> if a == target then (id, r, perturb op line) else a)
              answers
          in
          let t = Checker.check ~domains (Checker.reference csvs) damaged in
          check ("perturbed " ^ Mix.op_name op ^ " caught") (t.Checker.wrong = 1)
            (Option.value t.Checker.first_wrong ~default:"not caught"))
      [ Mix.Estimate; Mix.Explain; Mix.Run ]
  in
  (* 2. An unpaced burst over one connection: the sheds are answered,
     counted by the server, and counted as failures by the checker. *)
  let burst = 2000 in
  let rec estimate () =
    match w.Mix.next () with { Mix.op = Mix.Estimate; _ } as r -> r | _ -> estimate ()
  in
  let frames = List.init burst (fun i -> (estimate (), Printf.sprintf "b%d" i)) in
  let writer =
    Thread.create
      (fun () -> List.iter (fun (r, id) -> Loadgen.send c (Mix.frame ~id r)) frames)
      ()
  in
  let rec read acc n =
    if n = 0 then List.rev acc
    else
      let lines = Loadgen.recv_lines c in
      read (List.rev_append lines acc) (n - List.length lines)
  in
  let lines = read [] burst in
  Thread.join writer;
  Loadgen.close c;
  Unix.sleepf 0.05;
  let snapshot = Loadgen.stop server in
  let shed_seen =
    List.length
      (List.filter
         (fun l ->
           match Obs.Json.of_string l with
           | Ok j -> (
             match Option.bind (Obs.Json.member "error" j) (Obs.Json.member "kind") with
             | Some (Obs.Json.String "overloaded") -> true
             | _ -> false)
           | Error _ -> false)
         lines)
  in
  let shed_counted = int_of_float (Layers.snapshot_value snapshot "counters" "serve.shed") in
  let by_id = Hashtbl.create burst in
  List.iter
    (fun l ->
      match Obs.Json.of_string l with
      | Ok j -> (
        match Obs.Json.member "id" j with
        | Some (Obs.Json.String id) -> Hashtbl.replace by_id id l
        | _ -> ())
      | Error _ -> ())
    lines;
  (* Checked together with the sequential answers, whose analyzes moved
     the server's epoch. *)
  let tally =
    Checker.check ~domains (Checker.reference csvs)
      (answers
      @ List.map (fun (r, id) -> (id, r, Option.value (Hashtbl.find_opt by_id id) ~default:"")) frames)
  in
  let ok3 =
    check "burst sheds counted"
      (shed_seen > 0 && shed_seen = shed_counted && tally.Checker.errors >= shed_seen
     && tally.Checker.wrong = 0)
      (Printf.sprintf "%d of %d frames shed, server counted %d, checker failed %d" shed_seen
         burst shed_counted tally.Checker.errors)
  in
  if ok1 && ok2 && ok3 then print_endline "self-test: PASS"
  else begin
    print_endline "self-test: FAIL";
    exit 1
  end
