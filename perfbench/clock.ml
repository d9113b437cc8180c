(* Seconds on the monotonic clock, with nanosecond resolution. *)
external now : unit -> float = "elsbench_clock_s"
