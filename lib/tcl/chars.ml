let is_space c =
  match c with ' ' | '\t' | '\r' | '\012' | '\011' -> true | _ -> false

let is_var_char c =
  match c with
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> true
  | _ -> false

let is_digit c = c >= '0' && c <= '9'

let is_octal c = c >= '0' && c <= '7'

let hex_value c =
  match c with
  | '0' .. '9' -> Some (Char.code c - Char.code '0')
  | 'a' .. 'f' -> Some (Char.code c - Char.code 'a' + 10)
  | 'A' .. 'F' -> Some (Char.code c - Char.code 'A' + 10)
  | _ -> None

(* [i] points at the backslash itself. *)
let backslash_subst s i =
  let n = String.length s in
  if i + 1 >= n then ("\\", i + 1)
  else
    match s.[i + 1] with
    | 'n' -> ("\n", i + 2)
    | 't' -> ("\t", i + 2)
    | 'r' -> ("\r", i + 2)
    | 'b' -> ("\b", i + 2)
    | 'f' -> ("\012", i + 2)
    | 'v' -> ("\011", i + 2)
    | 'e' -> ("\027", i + 2)
    | '\n' ->
      (* Backslash-newline: collapse, with following whitespace, to one
         space. *)
      let j = ref (i + 2) in
      while !j < n && (s.[!j] = ' ' || s.[!j] = '\t') do
        incr j
      done;
      (" ", !j)
    | 'x' ->
      let rec hex j acc any =
        if j < n then
          match hex_value s.[j] with
          | Some v -> hex (j + 1) (((acc * 16) + v) land 0xff) true
          | None -> (j, acc, any)
        else (j, acc, any)
      in
      let j, v, any = hex (i + 2) 0 false in
      if any then (String.make 1 (Char.chr v), j) else ("x", i + 2)
    | '0' .. '7' ->
      let rec octal j acc count =
        if j < n && count < 3 && is_octal s.[j] then
          octal (j + 1) ((acc * 8) + (Char.code s.[j] - Char.code '0'))
            (count + 1)
        else (j, acc)
      in
      let j, v = octal (i + 1) 0 0 in
      (String.make 1 (Char.chr (v land 0xff)), j)
    | c -> (String.make 1 c, i + 2)

(* Script-level separators: whitespace plus the command terminators. *)
let rec skip_separators src n pos =
  if pos < n && (is_space src.[pos] || src.[pos] = '\n' || src.[pos] = ';')
  then skip_separators src n (pos + 1)
  else pos

(* [pos] points at '#': skip to an unescaped newline. *)
let skip_comment src n pos =
  let rec go i =
    if i >= n then i
    else
      match src.[i] with
      | '\\' -> go (i + 2)
      | '\n' -> i + 1
      | _ -> go (i + 1)
  in
  go pos

(* Content of a braced word: taken literally except that backslash-newline
   is still replaced by a space (as in Tcl). *)
let braced_content src open_idx close_idx =
  let raw = String.sub src (open_idx + 1) (close_idx - open_idx - 1) in
  if not (String.length raw > 0 && String.contains raw '\\') then raw
  else begin
    let buf = Buffer.create (String.length raw) in
    let n = String.length raw in
    let i = ref 0 in
    while !i < n do
      if raw.[!i] = '\\' && !i + 1 < n && raw.[!i + 1] = '\n' then begin
        let repl, j = backslash_subst raw !i in
        Buffer.add_string buf repl;
        i := j
      end
      else begin
        Buffer.add_char buf raw.[!i];
        incr i
      end
    done;
    Buffer.contents buf
  end

(* After a braced or quoted word, the next character must end the word.
   ']' only terminates inside a command substitution. *)
let word_end_ok src n pos ~bracket =
  pos >= n
  || is_space src.[pos]
  || src.[pos] = '\n'
  || src.[pos] = ';'
  || (bracket && src.[pos] = ']')

let find_matching_brace s i =
  let n = String.length s in
  let rec scan j depth =
    if j >= n then None
    else
      match s.[j] with
      | '\\' -> scan (j + 2) depth
      | '{' -> scan (j + 1) (depth + 1)
      | '}' -> if depth = 1 then Some j else scan (j + 1) (depth - 1)
      | _ -> scan (j + 1) depth
  in
  assert (i < n && s.[i] = '{');
  scan i 0
