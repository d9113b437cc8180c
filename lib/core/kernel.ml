(* The step engine over compiled flat arrays. Everything on the
   M/SS/LS/PESS path is written to stay free of minor-heap allocation in
   native code ([Degree] caps build their input list out of line):

   - floats never escape into a function call on the pass path: loop state
     lives in float-array scratch slots ([acc], [class_acc]) and locals
     used only in float ops, both of which ocamlopt keeps unboxed;
   - no refs, no local closures, no lists — [connected] recurses through a
     top-level function, accumulation uses [for] loops;
   - per-class accumulation reuses stamped scratch arrays ([class_acc] /
     [class_stamp] / [touched]), invalidated in O(1) by bumping [stamp];
   - guard checks are hand-inlined on the in-range path; the out-of-line
     [Guard.*] call happens only on a breach (reading its arguments back
     from the scratch slots), so strictness semantics, violation counters
     and error messages are the shared [Guard]'s;
   - [Float.min]/[Float.max] are hand-inlined with the stdlib's exact
     NaN/signed-zero semantics, because calling them would box their
     arguments.

   Bit-identity with the list-scan reference ([Incremental.
   step_selectivity_scan], [Estimator.combine]) requires replicating its
   exact IEEE evaluation order: selectivities combine per class first
   (classes in first-occurrence order of the ascending predicate scan,
   members in ascending id order, each fold seeded exactly as
   [Estimator.combine] seeds it — note SS folds from 1.0, so its first
   member is [Float.min 1. s], not [s]) and the per-class results multiply
   left-to-right onto 1.0. A flat product across all predicates would
   round differently. *)

(* Scratch slot indices in [acc]. *)
let slot_result = 0 (* combined selectivity, then final size *)
let slot_left = 1
let slot_right = 2
let slot_upper = 3
let slot_cap = 4 (* the cap the last bridged step applied *)

type t = {
  n_tables : int;
  rows : float array;  (* bit -> ‖R‖′ *)
  (* CSR adjacency: table [bit]'s join predicates are the dense indices
     [adj_pred.(adj_off.(bit)) .. adj_pred.(adj_off.(bit+1) - 1)], in
     working-conjunction order; [adj_other_mask] is the single-bit mask of
     each predicate's other endpoint, same slots. *)
  adj_off : int array;
  adj_pred : int array;
  adj_other_mask : int array;
  (* Per join predicate, dense index in ascending conjunction order. *)
  pred_sel : float array;
  pred_class : int array;
  pred_mask_a : int array;
  pred_mask_b : int array;
  (* Degree statistics of each equality predicate's (endpoint a, endpoint
     b) columns, when both carry them; read only by [Degree] caps. *)
  pred_degrees : (Stats.Degree.t * Stats.Degree.t) option array;
  estimator : Estimator.t;
  fold : Estimator.fold;
  cap : Estimator.cap;
  guard : Guard.t;
  (* Stamped scratch: [class_acc.(c)] is valid iff
     [class_stamp.(c) = stamp]; [touched.(0 .. n_touched-1)] lists the
     classes of the current step in first-occurrence order. *)
  class_acc : float array;
  class_stamp : int array;
  touched : int array;
  mutable stamp : int;
  mutable n_touched : int;
  (* The two sides of the last extend/join step: the predicates bridging
     them are the step's members. *)
  mutable left_mask : int;
  mutable right_mask : int;
  acc : float array;  (* see slot_* above *)
  mutable steps : int;
}

let make ~rows ~adj_off ~adj_pred ~adj_other_mask ~pred_sel ~pred_class
    ~pred_mask_a ~pred_mask_b ~pred_degrees ~n_classes ~estimator ~guard =
  let n_tables = Array.length rows in
  let n_preds = Array.length pred_sel in
  let n_slots = Array.length adj_pred in
  if Array.length adj_off <> n_tables + 1 then
    invalid_arg "Kernel.make: adj_off must have n_tables + 1 entries";
  if n_tables > 0 && (adj_off.(0) <> 0 || adj_off.(n_tables) <> n_slots) then
    invalid_arg "Kernel.make: adj_off does not span adj_pred";
  if Array.length adj_other_mask <> n_slots then
    invalid_arg "Kernel.make: adj_other_mask/adj_pred length mismatch";
  if
    Array.length pred_class <> n_preds
    || Array.length pred_mask_a <> n_preds
    || Array.length pred_mask_b <> n_preds
    || Array.length pred_degrees <> n_preds
  then invalid_arg "Kernel.make: per-predicate array length mismatch";
  Array.iter
    (fun p ->
      if p < 0 || p >= n_preds then
        invalid_arg "Kernel.make: adj_pred index out of range")
    adj_pred;
  Array.iter
    (fun c ->
      if c < 0 || c >= n_classes then
        invalid_arg "Kernel.make: pred_class out of range")
    pred_class;
  {
    n_tables;
    rows;
    adj_off;
    adj_pred;
    adj_other_mask;
    pred_sel;
    pred_class;
    pred_mask_a;
    pred_mask_b;
    pred_degrees;
    estimator;
    fold = estimator.Estimator.fold;
    cap = estimator.Estimator.cap;
    guard;
    class_acc = Array.make (max 1 n_classes) 0.;
    class_stamp = Array.make (max 1 n_classes) 0;
    touched = Array.make (max 1 n_classes) 0;
    stamp = 0;
    n_touched = 0;
    left_mask = 0;
    right_mask = 0;
    acc = Array.make 5 0.;
    steps = 0;
  }

let table_count k = k.n_tables
let table_rows k bit = k.rows.(bit)
let steps k = k.steps

(* Top level (not a local [let rec]) so no closure is allocated. *)
let rec connected_from k mask i stop =
  i < stop
  && (mask land k.adj_other_mask.(i) <> 0 || connected_from k mask (i + 1) stop)

let connected k ~mask ~bit =
  connected_from k mask k.adj_off.(bit) k.adj_off.(bit + 1)

(* Fold the predicate at dense index [p] into its class accumulator. No
   float parameters or returns, so the call itself never boxes. *)
let accum_pred k p =
  let c = k.pred_class.(p) in
  let s = k.pred_sel.(p) in
  if k.class_stamp.(c) <> k.stamp then begin
    k.class_stamp.(c) <- k.stamp;
    k.touched.(k.n_touched) <- c;
    k.n_touched <- k.n_touched + 1;
    (* Seed exactly as [Estimator.combine] does on the first member:
       M:    1. *. s = s (bit-exact identity, NaN included)
       SS:   Float.min 1. s — which is 1. when s > 1 (possible under Trap)
       LS:   seeds from the head directly
       PESS: classes contribute 1; the bound lives in the cap. *)
    k.class_acc.(c) <-
      (match k.fold with
      | Product | Largest -> s
      | Smallest -> if s > 1. then 1. else s
      | Unit -> 1.)
  end
  else
    match k.fold with
    | Product -> k.class_acc.(c) <- k.class_acc.(c) *. s
    | Smallest ->
        (* Float.min acc s, stdlib semantics with x = acc, y = s. *)
        let a = k.class_acc.(c) in
        k.class_acc.(c) <-
          (if s > a || ((not (Float.sign_bit s)) && Float.sign_bit a) then
             if s <> s then s else a
           else if a <> a then a
           else s)
    | Largest ->
        (* Float.max acc s, stdlib semantics with x = acc, y = s. *)
        let a = k.class_acc.(c) in
        k.class_acc.(c) <-
          (if s > a || ((not (Float.sign_bit s)) && Float.sign_bit a) then
             if a <> a then a else s
           else if s <> s then s
           else a)
    | Unit -> ()

(* Breach path of [finish_classes], out of line so the loop never passes a
   float to a call: re-guards [class_acc.(c)] through the shared Guard. *)
let fix_class k c =
  k.class_acc.(c) <- Guard.selectivity k.guard ~site:"Kernel.class" k.class_acc.(c)

(* Multiply the per-class results (first-occurrence order) into
   [acc.(slot_result)], guarding each class value. *)
let finish_classes k =
  k.acc.(slot_result) <- 1.;
  for i = 0 to k.n_touched - 1 do
    let c = k.touched.(i) in
    (* [not (in range)] and not [< 0. || > 1.]: NaN must breach. *)
    if not (k.class_acc.(c) >= 0. && k.class_acc.(c) <= 1.) then
      fix_class k c;
    k.acc.(slot_result) <- k.acc.(slot_result) *. k.class_acc.(c)
  done

(* Accumulate every predicate linking [bit] to [mask]; the combined
   selectivity lands in [acc.(slot_result)], bridging in [n_touched]. *)
let accumulate k ~mask ~bit =
  k.left_mask <- mask;
  k.right_mask <- 1 lsl bit;
  k.stamp <- k.stamp + 1;
  k.n_touched <- 0;
  for i = k.adj_off.(bit) to k.adj_off.(bit + 1) - 1 do
    if mask land k.adj_other_mask.(i) <> 0 then accum_pred k k.adj_pred.(i)
  done;
  finish_classes k

(* Does predicate [p] have one endpoint on each side of the last step? *)
let bridges k p =
  let a = k.pred_mask_a.(p) and b = k.pred_mask_b.(p) in
  (k.left_mask land a <> 0 && k.right_mask land b <> 0)
  || (k.left_mask land b <> 0 && k.right_mask land a <> 0)

(* Same, for predicates with one endpoint in each of two disjoint masks.
   Scans the full conjunction in ascending id order. *)
let accumulate_between k ~mask1 ~mask2 =
  k.left_mask <- mask1;
  k.right_mask <- mask2;
  k.stamp <- k.stamp + 1;
  k.n_touched <- 0;
  for p = 0 to Array.length k.pred_sel - 1 do
    if bridges k p then accum_pred k p
  done;
  finish_classes k

(* The cap's view of the last step: its input sizes and, in ascending
   conjunction order, the degree statistics of every bridging predicate
   that has them, oriented (left side, right side). *)
let step_input k =
  let degrees = ref [] in
  for p = Array.length k.pred_sel - 1 downto 0 do
    match k.pred_degrees.(p) with
    | Some (da, db) when bridges k p ->
      degrees :=
        (if k.left_mask land k.pred_mask_a.(p) <> 0 then (da, db) else (db, da))
        :: !degrees
    | Some _ | None -> ()
  done;
  {
    Estimator.left_rows = k.acc.(slot_left);
    right_rows = k.acc.(slot_right);
    degrees = !degrees;
  }

(* The [Degree] cap, out of line: it allocates its input, so it stays off
   the M/SS/LS/PESS path. Caps the raw size in [acc.(slot_result)]. *)
let cap_by_degrees k =
  match k.cap with
  | Estimator.Degree { bound; _ } ->
    let cap = bound (step_input k) in
    k.acc.(slot_cap) <- cap;
    k.acc.(slot_result) <- Float.min k.acc.(slot_result) cap
  | Estimator.No_cap | Estimator.Min_rows -> ()

(* Breach path of [finish_size]: reads the out-of-range size and its
   cartesian bound back from the scratch slots, so the hot loop never
   boxes them for this call. *)
let breach_size k ~site =
  k.acc.(slot_result) <-
    Guard.cardinality ~upper:k.acc.(slot_upper) k.guard ~site
      k.acc.(slot_result)

(* Turn the combined selectivity in [acc.(slot_result)] plus the two input
   sizes in [acc.(slot_left)]/[acc.(slot_right)] into the step's output
   size, in place: raw = left *. right *. s, capped on bridged steps
   (Float.min raw cap), then guarded against the cartesian upper bound. *)
let finish_size k ~site =
  let left = k.acc.(slot_left) and right = k.acc.(slot_right) in
  let raw = left *. right *. k.acc.(slot_result) in
  let capped =
    if k.n_touched = 0 then raw
    else
      match k.cap with
      | Estimator.No_cap -> raw
      | Estimator.Degree _ ->
          k.acc.(slot_result) <- raw;
          cap_by_degrees k;
          k.acc.(slot_result)
      | Estimator.Min_rows ->
          (* Float.min left right (x = left, y = right), inlined. *)
          let m =
            if
              right > left
              || ((not (Float.sign_bit right)) && Float.sign_bit left)
            then if right <> right then right else left
            else if left <> left then left
            else right
          in
          k.acc.(slot_cap) <- m;
          (* Float.min raw m (x = raw, y = m), inlined. *)
          if m > raw || ((not (Float.sign_bit m)) && Float.sign_bit raw)
          then if m <> m then m else raw
          else if raw <> raw then raw
          else m
  in
  let upper = left *. right in
  k.acc.(slot_result) <- capped;
  k.acc.(slot_upper) <- upper;
  if not (capped >= 0. && capped <= upper) then breach_size k ~site

let step_selectivity k ~mask ~bit =
  k.steps <- k.steps + 1;
  accumulate k ~mask ~bit;
  k.acc.(slot_result)

let extend_size k ~mask ~bit ~size =
  k.steps <- k.steps + 1;
  accumulate k ~mask ~bit;
  k.acc.(slot_left) <- size;
  k.acc.(slot_right) <- k.rows.(bit);
  finish_size k ~site:"Incremental.extend";
  k.acc.(slot_result)

let join_size k ~mask1 ~mask2 ~size1 ~size2 =
  k.steps <- k.steps + 1;
  accumulate_between k ~mask1 ~mask2;
  k.acc.(slot_left) <- size1;
  k.acc.(slot_right) <- size2;
  finish_size k ~site:"Incremental.join_states";
  k.acc.(slot_result)

let start_into k ~sizes ~bit = sizes.(1 lsl bit) <- k.rows.(bit)

let extend_into k ~sizes ~mask ~bit =
  k.steps <- k.steps + 1;
  accumulate k ~mask ~bit;
  k.acc.(slot_left) <- sizes.(mask);
  k.acc.(slot_right) <- k.rows.(bit);
  finish_size k ~site:"Incremental.extend";
  sizes.(mask lor (1 lsl bit)) <- k.acc.(slot_result)

(* --- read-back for derivation cards -------------------------------------

   After an extend or join step the scratch state still describes it: the
   touched classes in first-occurrence order, their guarded values, and
   the two sides whose bridging predicates are the classes' members. *)

let pred_selectivity k p = k.pred_sel.(p)

let step_classes k =
  List.init k.n_touched (fun i ->
      let c = k.touched.(i) in
      let members =
        List.filter
          (fun p -> k.pred_class.(p) = c && bridges k p)
          (List.init (Array.length k.pred_sel) Fun.id)
      in
      (members, k.class_acc.(c)))

let step_cap k =
  if k.n_touched = 0 then None
  else
    match Estimator.cap_note k.estimator (step_input k) with
    | Some note -> Some (k.acc.(slot_cap), note)
    | None -> None
