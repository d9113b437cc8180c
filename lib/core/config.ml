type strictness = Catalog.Validate.strictness =
  | Strict
  | Repair
  | Trap

type t = {
  closure : bool;
  estimator : Estimator.t;
  local_aware : bool;
  single_table : bool;
  strictness : strictness;
}

let of_estimator ?(strictness = Repair) (e : Estimator.t) =
  {
    closure = e.Estimator.flags.Estimator.closure;
    estimator = e;
    local_aware = e.Estimator.flags.Estimator.local_aware;
    single_table = e.Estimator.flags.Estimator.single_table;
    strictness;
  }

let sm ~ptc = { (of_estimator Estimator.m) with closure = ptc }
(* Estimator.m's canonical flags already have closure on, so [sm ~ptc:true]
   = [of_estimator Estimator.m]; the record update only matters for plain
   SM. *)
let sss = of_estimator Estimator.ss
let els = of_estimator Estimator.ls
let pess = of_estimator Estimator.pess

let panel ?strictness () =
  List.map (fun e -> of_estimator ?strictness e) (Estimator.registry ())

let with_strictness strictness t = { t with strictness }
let with_estimator estimator t = { t with estimator }

(* A registry estimator under its canonical toggles prints its paper name
   (or its label); plain SM is the one named non-canonical configuration.
   The registry lookup is by id, so an off-registry copy of a built-in
   (same fold, new id) stays custom. *)
let name t =
  let toggles c = (c.closure, c.local_aware, c.single_table) in
  let algorithm =
    match Estimator.find (Estimator.id t.estimator) with
    | Some e
      when Estimator.equal e t.estimator && toggles t = toggles (of_estimator e)
      -> (
      match Estimator.id e with
      | "m" -> "SM+PTC"
      | "ss" -> "SSS"
      | "ls" -> "ELS"
      | _ -> Estimator.label e)
    | _
      when Estimator.equal t.estimator Estimator.m
           && toggles t = toggles (sm ~ptc:false) ->
      "SM"
    | _ ->
      Printf.sprintf "custom(rule=%s%s%s%s)"
        (Estimator.label t.estimator)
        (if t.closure then ",ptc" else "")
        (if t.local_aware then ",local" else "")
        (if t.single_table then ",1table" else "")
  in
  match t.strictness with
  | Repair -> algorithm
  | Strict -> algorithm ^ "!strict"
  | Trap -> algorithm ^ "!trap"
