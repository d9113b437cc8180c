(** Plain-text table rendering for experiment reports. *)

val table : header:string list -> string list list -> string
(** Aligned, pipe-separated table with a header rule. Rows may be ragged;
    short rows are padded with empty cells. Cells are UTF-8: widths count
    code points, not bytes, so a [⋈] takes one column. *)

val float_cell : float -> string
(** Compact scientific-ish rendering ([%.4g]) matching the paper's style
    (e.g. ["4e-08"]). *)

val size_list : float list -> string
(** Comma-separated [float_cell]s inside parentheses, like the paper's
    "(100, 100, 100)". *)
