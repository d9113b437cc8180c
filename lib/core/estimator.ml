type flags = { closure : bool; local_aware : bool; single_table : bool }

(* What a per-step cap gets to see: the effective input sizes plus, for
   every bridging equality predicate whose endpoint columns both carry
   ANALYZE-collected degree sequences, the pair of those statistics —
   (already-joined side, newly-joined side). Comparison predicates and
   columns without degree statistics contribute no pair. *)
type step_input = {
  left_rows : float;
  right_rows : float;
  degrees : (Stats.Degree.t * Stats.Degree.t) list;
}

type fold = Product | Smallest | Largest | Unit

type cap =
  | No_cap
  | Min_rows
  | Degree of { bound : step_input -> float; note : step_input -> string }

type t = {
  id : string;
  label : string;
  summary : string;
  fold : fold;
  cap : cap;
  flags : flags;
}

let id t = t.id
let label t = t.label
let equal a b = String.equal a.id b.id

(* The fold shapes (M and SS from 1.0, LS from its first member) are part
   of the results' bit identity: the golden hex-float captures pin them,
   and [Kernel] seeds its per-class accumulators the same way. *)
let combine t sels =
  match t.fold with
  | Product -> List.fold_left ( *. ) 1. sels
  | Smallest -> List.fold_left Float.min 1. sels
  | Largest -> (
    match sels with [] -> 1. | s :: rest -> List.fold_left Float.max s rest)
  | Unit -> 1.

let min_rows s = Float.min s.left_rows s.right_rows

let cap_bound t s =
  match t.cap with
  | No_cap -> None
  | Min_rows -> Some (min_rows s)
  | Degree { bound; _ } -> Some (bound s)

let cap_note t s =
  match t.cap with
  | No_cap -> None
  | Min_rows -> Some "min-rows (degree-1 Lp-norm bound)"
  | Degree { note; _ } -> Some (note s)

(* The three rules of the paper (Section 7). *)

let m =
  {
    id = "m";
    label = "M";
    summary = "Rule M: multiply every eligible join selectivity (Selinger)";
    fold = Product;
    cap = No_cap;
    (* Canonically with PTC: panels compare combining rules under equal
       (closed) predicate sets. Plain SM is [Config.sm ~ptc:false]. *)
    flags = { closure = true; local_aware = false; single_table = false };
  }

let ss =
  {
    id = "ss";
    label = "SS";
    summary = "Rule SS: keep only the smallest selectivity per class";
    fold = Smallest;
    cap = No_cap;
    flags = { closure = true; local_aware = false; single_table = false };
  }

let ls =
  {
    id = "ls";
    label = "LS";
    summary = "Rule LS: keep only the largest selectivity per class";
    fold = Largest;
    cap = No_cap;
    flags = { closure = true; local_aware = true; single_table = true };
  }

let pess =
  {
    id = "pess";
    label = "PESS";
    summary =
      "Pessimistic degree-1 bound: cap each predicate-connected step at \
       min(|R1|', |R2|')";
    (* No per-class selectivity reduction: the bound comes entirely from
       the cap, so classes combine to 1 and a step's raw size is the
       cartesian product before capping. *)
    fold = Unit;
    cap = Min_rows;
    flags = { closure = true; local_aware = true; single_table = true };
  }

(* --- the degree-statistics family ---------------------------------------

   Bound-style estimators over the per-column degree sequences ANALYZE
   collects ([Stats.Degree] via [Col_stats.degree]). Like PESS they carry
   no per-class selectivity reduction — the whole estimate is the cap.
   All caps fold [Float.min] across the step's bridging predicates (a
   conjunction can only shrink the output) and degrade to PESS's min-rows
   when no degree statistics are available. The degree statistics are the
   {e base tables}': exact for the first (two-way) step, a heuristic for
   later steps whose left input is an intermediate. *)

(* A degree cap whose provenance note names [source], or min-rows when the
   step has no degree statistics. *)
let degree_cap ~source bound =
  Degree
    {
      bound;
      note =
        (fun s ->
          if s.degrees = [] then "min-rows (no degree statistics collected)"
          else source);
    }

let lp2 =
  {
    id = "lp2";
    label = "LP2";
    summary =
      "AGM/Lp-norm bound: cap each step at min(|R1|', |R2|', L2(a)·L2(b)) \
       from the join columns' degree-sequence L2 norms";
    fold = Unit;
    cap =
      degree_cap ~source:"degree-sequence L2 norms (ANALYZE)" (fun s ->
          List.fold_left
            (fun acc (a, b) ->
              Float.min acc (Stats.Degree.l2 a *. Stats.Degree.l2 b))
            (min_rows s) s.degrees);
    flags = { closure = true; local_aware = true; single_table = true };
  }

let degseq =
  {
    id = "degseq";
    label = "DEGSEQ";
    summary =
      "Degree-sequence two-approximation: pairwise product of the sorted \
       top-k degrees plus a capped tail (Instance Optimal Join Size \
       Estimation)";
    fold = Unit;
    cap =
      degree_cap ~source:"top-k degree sequences (ANALYZE)" (fun s ->
          match s.degrees with
          | [] -> min_rows s
          | edges ->
            List.fold_left
              (fun acc (a, b) -> Float.min acc (Stats.Degree.join_bound a b))
              Float.infinity edges);
    flags = { closure = true; local_aware = true; single_table = true };
  }

let ent =
  {
    id = "ent";
    label = "ENT";
    summary =
      "Entropy-style max-degree bound: cap each step at \
       min(|R1|'·L∞(b), |R2|'·L∞(a)) — the polymatroid bound's two-way \
       degenerate form";
    fold = Unit;
    (* Folded from infinity, not from min-rows: L∞ ≥ 1 on any non-empty
       column makes |R|·L∞ ≥ |R|, so a min-rows seed would swallow the
       entropic term and collapse ENT into PESS. Min-rows applies only as
       the no-statistics degradation. *)
    cap =
      degree_cap ~source:"degree-sequence L∞ norms (ANALYZE)" (fun s ->
          match s.degrees with
          | [] -> min_rows s
          | edges ->
            List.fold_left
              (fun acc (a, b) ->
                Float.min acc
                  (Float.min
                     (s.left_rows *. Stats.Degree.linf b)
                     (s.right_rows *. Stats.Degree.linf a)))
              Float.infinity edges);
    flags = { closure = true; local_aware = true; single_table = true };
  }

let all = [ m; ss; ls; pess; lp2; degseq; ent ]
let registry () = all
let ids () = List.map (fun e -> e.id) (registry ())

let find name =
  let needle = String.lowercase_ascii (String.trim name) in
  List.find_opt
    (fun e ->
      String.equal e.id needle
      || String.equal (String.lowercase_ascii e.label) needle)
    (registry ())

let of_string name =
  match find name with
  | Some e -> Ok e
  | None ->
    let candidates = ids () in
    Error
      (Printf.sprintf "unknown estimator %S, expected one of: %s%s" name
         (String.concat ", " candidates)
         (Catalog.Suggest.hint ~candidates name))

let of_string_exn name =
  match of_string name with Ok e -> e | Error msg -> invalid_arg msg
