(* Fails when a [val] declared in LIB/*/*.mli is named in no other
   OCaml file under the given roots: an export nothing outside its own
   module uses.

   Usage: check_exports LIB ROOT...

   Every .ml and .mli under LIB and the ROOTs is read with its comments
   removed; a value counts as used when its name appears as an
   identifier in any file other than the .ml and .mli of its own
   module. *)

let read path = In_channel.with_open_bin path In_channel.input_all

(* Drop (nested) comments. String literals are copied through in code and
   skipped inside comments, so a quoted "(*" or "*)" is not a delimiter. *)
let strip_comments s =
  let n = String.length s in
  let b = Buffer.create n in
  let rec skip_string i =
    if i >= n then n
    else if s.[i] = '\\' then skip_string (i + 2)
    else if s.[i] = '"' then i + 1
    else skip_string (i + 1)
  in
  let at i c = i < n && s.[i] = c in
  let rec go i depth =
    if i >= n then ()
    else if at i '(' && at (i + 1) '*' then go (i + 2) (depth + 1)
    else if depth > 0 && at i '*' && at (i + 1) ')' then go (i + 2) (depth - 1)
    else if at i '\'' && at (i + 1) '"' && at (i + 2) '\'' then begin
      if depth = 0 then Buffer.add_string b "'\"'";
      go (i + 3) depth
    end
    else if s.[i] = '"' then begin
      let j = skip_string (i + 1) in
      if depth = 0 then Buffer.add_string b (String.sub s i (j - i));
      go j depth
    end
    else begin
      if depth = 0 then Buffer.add_char b s.[i];
      go (i + 1) depth
    end
  in
  go 0 0;
  Buffer.contents b

let is_ident_char = function
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '\'' -> true
  | _ -> false

let identifiers s =
  let tbl = Hashtbl.create 256 in
  let n = String.length s in
  let rec go i =
    if i < n then
      if is_ident_char s.[i] then begin
        let j = ref i in
        while !j < n && is_ident_char s.[!j] do
          incr j
        done;
        Hashtbl.replace tbl (String.sub s i (!j - i)) ();
        go !j
      end
      else go (i + 1)
  in
  go 0;
  tbl

let rec sources dir =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.concat_map (fun name ->
         let path = Filename.concat dir name in
         if name.[0] = '.' || name.[0] = '_' then []
         else if Sys.is_directory path then sources path
         else if
           Filename.check_suffix name ".ml" || Filename.check_suffix name ".mli"
         then [ path ]
         else [])

(* Names of the [val]s an interface declares, nested signatures included. *)
let declared_vals text =
  String.split_on_char '\n' text
  |> List.filter_map (fun line ->
         let line = String.trim line in
         let len = String.length line in
         if len > 4 && String.sub line 0 4 = "val " then begin
           let rest = String.trim (String.sub line 4 (len - 4)) in
           let j = ref 0 in
           while !j < String.length rest && is_ident_char rest.[!j] do
             incr j
           done;
           if !j > 0 then Some (String.sub rest 0 !j) else None
         end
         else None)

let () =
  match Array.to_list Sys.argv with
  | _ :: lib :: roots ->
      let files = List.concat_map sources (lib :: roots) in
      let idents =
        List.map (fun f -> (f, identifiers (strip_comments (read f)))) files
      in
      let unused =
        List.concat_map
          (fun mli ->
            let base = Filename.remove_extension mli in
            let own f = f = mli || f = base ^ ".ml" in
            declared_vals (strip_comments (read mli))
            |> List.filter (fun v ->
                   not
                     (List.exists
                        (fun (f, ids) -> (not (own f)) && Hashtbl.mem ids v)
                        idents))
            |> List.map (fun v -> (mli, v)))
          (List.filter
             (fun f ->
               Filename.check_suffix f ".mli"
               && Filename.dirname (Filename.dirname f) = lib)
             files)
      in
      List.iter
        (fun (mli, v) ->
          Printf.printf "%s: val %s is used by no other module\n" mli v)
        unused;
      if unused <> [] then begin
        Printf.printf "%d unused export(s)\n" (List.length unused);
        exit 1
      end
  | _ ->
      prerr_endline "usage: check_exports LIB ROOT...";
      exit 2
