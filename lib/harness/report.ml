let float_cell x = Printf.sprintf "%.4g" x

let size_list xs = "(" ^ String.concat ", " (List.map float_cell xs) ^ ")"

(* Display width in code points: every byte except a UTF-8 continuation
   byte (0b10xxxxxx) starts a character. *)
let width s =
  String.fold_left
    (fun n c -> if Char.code c land 0xC0 = 0x80 then n else n + 1)
    0 s

let table ~header rows =
  let n_cols =
    List.fold_left (fun acc row -> max acc (List.length row)) (List.length header)
      rows
  in
  let pad_row row =
    row @ List.init (n_cols - List.length row) (fun _ -> "")
  in
  let all = List.map pad_row (header :: rows) in
  let widths =
    List.init n_cols (fun j ->
        List.fold_left
          (fun acc row -> max acc (width (List.nth row j)))
          0 all)
  in
  (* Cells are padded to column width; the line's trailing blanks are
     stripped so rendered files stay clean. *)
  let rtrim s =
    let n = ref (String.length s) in
    while !n > 0 && s.[!n - 1] = ' ' do
      decr n
    done;
    String.sub s 0 !n
  in
  let render row =
    rtrim
      (String.concat " | "
         (List.map2
            (fun cell w -> cell ^ String.make (w - width cell) ' ')
            row widths))
  in
  let rule =
    String.concat "-+-" (List.map (fun w -> String.make w '-') widths)
  in
  String.concat "\n"
    (render (pad_row header)
    :: rule
    :: List.map (fun row -> render (pad_row row)) rows)
  ^ "\n"
