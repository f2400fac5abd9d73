type t = {
  title : string;
  columns : string list;
  mutable rows : string list list;  (* reversed *)
  mutable notes : string list;  (* reversed *)
}

let create ~title ~columns = { title; columns; rows = []; notes = [] }

let add_row t row =
  if List.length row <> List.length t.columns then
    invalid_arg "Table.add_row: arity mismatch";
  t.rows <- row :: t.rows

let add_note t note = t.notes <- note :: t.notes

let pp fmt t =
  let rows = List.rev t.rows in
  let widths =
    List.fold_left
      (fun ws row -> List.map2 (fun w c -> Stdlib.max w (String.length c)) ws row)
      (List.map String.length t.columns)
      rows
  in
  let total_width =
    List.fold_left ( + ) 0 widths + (3 * (List.length widths - 1))
  in
  let pad w s = s ^ String.make (w - String.length s) ' ' in
  let render_row row =
    String.concat " | " (List.map2 pad widths row)
  in
  Format.fprintf fmt "@.== %s ==@." t.title;
  Format.fprintf fmt "%s@." (render_row t.columns);
  Format.fprintf fmt "%s@." (String.make total_width '-');
  List.iter (fun row -> Format.fprintf fmt "%s@." (render_row row)) rows;
  List.iter (fun n -> Format.fprintf fmt "  note: %s@." n) (List.rev t.notes)

let print t = pp Format.std_formatter t

let csv_cell s =
  if String.exists (fun c -> c = ',' || c = '"' || c = '\n' || c = '\r') s then
    "\"" ^ String.concat "\"\"" (String.split_on_char '"' s) ^ "\""
  else s

let to_csv ?(notes = false) t =
  let line cells = String.concat "," (List.map csv_cell cells) in
  (* Notes become trailing records marked "note" in the first field,
     padded to the header arity so every record has the same number of
     fields (RFC 4180).  Off by default: the historical CSV layout has
     no note rows. *)
  let note_rows =
    if not notes then []
    else
      let pad = List.init (Stdlib.max 0 (List.length t.columns - 2)) (fun _ -> "") in
      List.rev_map (fun n -> "note" :: n :: pad) t.notes
  in
  String.concat "\n"
    ((line t.columns :: List.rev_map line t.rows) @ List.map line note_rows)
  ^ "\n"

let title t = t.title
let columns t = t.columns
let rows t = List.rev t.rows
let notes t = List.rev t.notes
