(* Order statistics and the result entries shared by the reports. *)

(* Linear interpolation between order statistics; 0 for no samples (a
   layer a workload never reaches). *)
let quantile q = function
  | [] -> 0.
  | l ->
    let a = Array.of_list l in
    Array.sort Float.compare a;
    let pos = q *. float_of_int (Array.length a - 1) in
    let i = int_of_float pos in
    if i + 1 >= Array.length a then a.(i)
    else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median = quantile 0.5

(* The better quartile of per-round values: the lower one for times, the
   upper one for rates. Other tenants of a shared machine only ever slow a
   round down, for seconds or minutes at a time; the better quartile
   follows the program while up to 7 rounds of 10 are disturbed, and still
   moves with a change that slows every round. *)
let better_quartile direction values =
  quantile (match direction with `Lower -> 0.25 | `Higher -> 0.75) values
let ratio a b = if b = 0. then 0. else a /. b

let metric name value unit =
  (name, Obs.Json.Obj [ ("value", Obs.Json.Float value); ("unit", Obs.Json.String unit) ])
