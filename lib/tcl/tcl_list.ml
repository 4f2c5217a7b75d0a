let parse s =
  let n = String.length s in
  let buf = Buffer.create 32 in
  let out = ref [] in
  let push () =
    out := Buffer.contents buf :: !out;
    Buffer.clear buf
  in
  (* Returns [Ok ()] or [Error msg]. [i] scans the string; elements are
     delimited by whitespace (including newlines, which are ordinary
     separators inside a list). *)
  let rec skip i =
    if i < n && (Chars.is_space s.[i] || s.[i] = '\n') then skip (i + 1)
    else i
  in
  let rec element i =
    (* Scan one element starting at a non-space [i]. *)
    if i >= n then Ok i
    else if s.[i] = '{' then (
      match Chars.find_matching_brace s i with
      | None -> Error "unmatched open brace in list"
      | Some j ->
        Buffer.add_string buf (String.sub s (i + 1) (j - i - 1));
        after_group (j + 1))
    else if s.[i] = '"' then quoted (i + 1)
    else bare i
  and after_group i =
    if i < n && not (Chars.is_space s.[i] || s.[i] = '\n') then
      Error "list element in braces followed by non-space character"
    else Ok i
  and quoted i =
    if i >= n then Error "unmatched open quote in list"
    else
      match s.[i] with
      | '"' -> after_group (i + 1)
      | '\\' ->
        let repl, j = Chars.backslash_subst s i in
        Buffer.add_string buf repl;
        quoted j
      | c ->
        Buffer.add_char buf c;
        quoted (i + 1)
  and bare i =
    if i >= n || Chars.is_space s.[i] || s.[i] = '\n' then Ok i
    else
      match s.[i] with
      | '\\' ->
        let repl, j = Chars.backslash_subst s i in
        Buffer.add_string buf repl;
        bare j
      | c ->
        Buffer.add_char buf c;
        bare (i + 1)
  in
  let rec loop i =
    let i = skip i in
    if i >= n then Ok (List.rev !out)
    else
      match element i with
      | Error _ as e -> e
      | Ok j ->
        push ();
        loop j
  in
  loop 0

let parse_exn s =
  match parse s with Ok l -> l | Error msg -> failwith msg

(* Decide how an element must be quoted when rebuilding a list string.
   Brace-quoting is only safe when the parser would recover the content
   verbatim: braces must balance *with the same backslash-skipping the
   parser uses*, so a backslash directly before a brace forces backslash
   quoting. *)
type quoting = Bare | Braces | Backslashes

let quoting_needed e =
  let n = String.length e in
  if n = 0 then Braces
  else
    let rec scan i depth quote =
      if i >= n then if depth <> 0 then Backslashes else quote
      else
        match e.[i] with
        | '\\' ->
          if i = n - 1 then Backslashes (* trailing backslash *)
          else if e.[i + 1] = '{' || e.[i + 1] = '}' then Backslashes
          else scan (i + 2) depth Braces
        | '{' -> scan (i + 1) (depth + 1) Braces
        | '}' ->
          if depth = 0 then Backslashes else scan (i + 1) (depth - 1) Braces
        | ' ' | '\t' | '\n' | '\r' | '\012' | '\011' | ';' | '"' | '$' | '['
        | ']' ->
          scan (i + 1) depth Braces
        | _ -> scan (i + 1) depth quote
    in
    scan 0 0 Bare

let quote_element e =
  match quoting_needed e with
  | Bare -> e
  | Braces -> "{" ^ e ^ "}"
  | Backslashes ->
    let buf = Buffer.create (String.length e + 8) in
    String.iter
      (fun c ->
        match c with
        | '{' | '}' | '\\' | '"' | '$' | '[' | ']' | ';' | ' ' ->
          Buffer.add_char buf '\\';
          Buffer.add_char buf c
        | '\t' -> Buffer.add_string buf "\\t"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | c -> Buffer.add_char buf c)
      e;
    Buffer.contents buf

let format elements = String.concat " " (List.map quote_element elements)

(* A list index: an integer, "end", or "end-N" with N a plain
   non-negative integer.  "end-" and "end--1" are malformed ("bad
   index"), matching Tcl; every list command shares this parser so
   out-of-range and malformed indices error identically everywhere. *)
let parse_index ~len s =
  let s = String.trim s in
  let bad () =
    Stdlib.Error (Printf.sprintf "bad index \"%s\": must be integer or end" s)
  in
  if s = "end" then Ok (len - 1)
  else if String.length s >= 4 && String.sub s 0 4 = "end-" then
    let suffix = String.sub s 4 (String.length s - 4) in
    if suffix <> "" && String.for_all (fun c -> c >= '0' && c <= '9') suffix
    then
      match int_of_string_opt suffix with
      | Some k -> Ok (len - 1 - k)
      | None -> bad ()
    else bad ()
  else match int_of_string_opt s with Some i -> Ok i | None -> bad ()
