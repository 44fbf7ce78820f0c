type line = Row of string list | Separator

type t = { header : string list; mutable lines : line list (* reversed *) }

let create ~header =
  if header = [] then invalid_arg "Table.create: empty header";
  { header; lines = [] }

let add_row t row =
  let columns = List.length t.header in
  let given = List.length row in
  if given > columns then invalid_arg "Table.add_row: too many cells";
  let row =
    if given = columns then row
    else row @ List.init (columns - given) (fun _ -> "")
  in
  t.lines <- Row row :: t.lines

let add_separator t = t.lines <- Separator :: t.lines

let row_count t =
  List.length
    (List.filter (function Row _ -> true | Separator -> false) t.lines)

let cellf fmt = Format.asprintf fmt

let pp ppf t =
  let lines = List.rev t.lines in
  let rows =
    t.header :: List.filter_map (function Row r -> Some r | Separator -> None) lines
  in
  let widths = Array.make (List.length t.header) 0 in
  let account row =
    List.iteri (fun i cell -> widths.(i) <- max widths.(i) (String.length cell)) row
  in
  List.iter account rows;
  let pad i cell =
    let w = widths.(i) in
    let gap = w - String.length cell in
    if i = 0 then cell ^ String.make gap ' ' else String.make gap ' ' ^ cell
  in
  let emit row =
    Format.fprintf ppf "%s@."
      (String.concat "  " (List.mapi pad row))
  in
  let rule () =
    let total =
      Array.fold_left ( + ) 0 widths + (2 * (Array.length widths - 1))
    in
    Format.fprintf ppf "%s@." (String.make total '-')
  in
  emit t.header;
  rule ();
  List.iter (function Row r -> emit r | Separator -> rule ()) lines

let to_string t = Format.asprintf "%a" pp t
