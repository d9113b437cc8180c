(** Supplementary figure F5: join-order enumerators compared.

    The paper's estimation algorithm is enumerator-agnostic — it cites
    dynamic programming [13], the polynomial AB algorithm [15] and
    randomized optimizers [14] as consumers of incremental estimates. This
    experiment runs all three enumerators of this repository (exhaustive
    DP, greedy, randomized iterative improvement) under ELS estimates on
    random chain queries, comparing optimization time, estimated plan cost
    and executed work. *)

type row = {
  seed : int;
  enumerator : string;
  optimize_s : float;  (** wall-clock seconds spent choosing the plan *)
  estimated_cost : float;
  work : int;  (** executed work of the chosen plan *)
  cache_hits : int;
      (** profile join-selectivity cache hits during enumeration *)
  cache_misses : int;
}

val run :
  ?seeds:int list -> ?n_tables:int -> unit -> row list
(** Defaults: seeds [1..5], 7 tables (large enough that DP's 2ⁿ starts to
    cost something while greedy stays linear-ish). *)

val render : row list -> string
