open Interp

(* ------------------------------------------------------------------ *)
(* format *)

type conversion = {
  minus : bool;
  zero : bool;
  plus : bool;
  space : bool;
  alt : bool;
  width : int option;
  precision : int option;
  kind : char;
}

let parse_int_arg s =
  match int_of_string_opt (String.trim s) with
  | Some i -> i
  | None -> failf "expected integer but got \"%s\"" s

let parse_float_arg s =
  match float_of_string_opt (String.trim s) with
  | Some f -> f
  | None -> (
    (* Tcl lets an integer serve as a float argument. *)
    match int_of_string_opt (String.trim s) with
    | Some i -> float_of_int i
    | None -> failf "expected floating-point number but got \"%s\"" s)

(* Render one conversion. Padding/precision are applied manually so we
   don't need dynamically built OCaml format strings. *)
let render conv arg =
  let pad body =
    let body =
      if conv.plus && String.length body > 0 && body.[0] <> '-'
         && conv.kind <> 's'
      then "+" ^ body
      else if conv.space && String.length body > 0 && body.[0] <> '-'
              && conv.kind <> 's'
      then " " ^ body
      else body
    in
    match conv.width with
    | Some w when String.length body < w ->
      let fill = w - String.length body in
      if conv.minus then body ^ String.make fill ' '
      else if conv.zero && conv.kind <> 's' then
        if String.length body > 0 && (body.[0] = '-' || body.[0] = '+') then
          String.make 1 body.[0] ^ String.make fill '0'
          ^ String.sub body 1 (String.length body - 1)
        else String.make fill '0' ^ body
      else String.make fill ' ' ^ body
    | _ -> body
  in
  let int_body i =
    let s =
      match conv.kind with
      | 'd' | 'i' | 'u' -> string_of_int i
      | 'x' -> Printf.sprintf "%x" i
      | 'X' -> Printf.sprintf "%X" i
      | 'o' -> Printf.sprintf "%o" i
      | _ -> assert false
    in
    let s =
      match conv.precision with
      | Some p ->
        let neg = String.length s > 0 && s.[0] = '-' in
        let digits = if neg then String.sub s 1 (String.length s - 1) else s in
        let digits =
          if String.length digits < p then
            String.make (p - String.length digits) '0' ^ digits
          else digits
        in
        if neg then "-" ^ digits else digits
      | None -> s
    in
    if conv.alt && (conv.kind = 'x' || conv.kind = 'X') && i <> 0 then
      "0x" ^ s
    else s
  in
  match conv.kind with
  | 'd' | 'i' | 'u' | 'x' | 'X' | 'o' -> pad (int_body (parse_int_arg arg))
  | 'c' ->
    let code = parse_int_arg arg in
    pad (String.make 1 (Char.chr (code land 0xff)))
  | 's' ->
    let s =
      match conv.precision with
      | Some p when p < String.length arg -> String.sub arg 0 p
      | _ -> arg
    in
    pad s
  | 'f' ->
    let p = Option.value conv.precision ~default:6 in
    pad (Printf.sprintf "%.*f" p (parse_float_arg arg))
  | 'e' ->
    let p = Option.value conv.precision ~default:6 in
    pad (Printf.sprintf "%.*e" p (parse_float_arg arg))
  | 'E' ->
    let p = Option.value conv.precision ~default:6 in
    pad (String.uppercase_ascii (Printf.sprintf "%.*e" p (parse_float_arg arg)))
  | 'g' ->
    let p = Option.value conv.precision ~default:6 in
    pad (Printf.sprintf "%.*g" p (parse_float_arg arg))
  | 'G' ->
    let p = Option.value conv.precision ~default:6 in
    pad (String.uppercase_ascii (Printf.sprintf "%.*g" p (parse_float_arg arg)))
  | k -> failf "bad field specifier \"%c\"" k

let format_string spec args =
  let n = String.length spec in
  let buf = Buffer.create (n + 16) in
  let args = ref args in
  let next_arg () =
    match !args with
    | a :: rest ->
      args := rest;
      a
    | [] -> failf "not enough arguments for all format specifiers"
  in
  let rec go i =
    if i >= n then ()
    else if spec.[i] <> '%' then begin
      Buffer.add_char buf spec.[i];
      go (i + 1)
    end
    else if i + 1 < n && spec.[i + 1] = '%' then begin
      Buffer.add_char buf '%';
      go (i + 2)
    end
    else begin
      (* Parse flags, width, precision, conversion. *)
      let j = ref (i + 1) in
      let minus = ref false
      and zero = ref false
      and plus = ref false
      and space = ref false
      and alt = ref false in
      let flags_done = ref false in
      while (not !flags_done) && !j < n do
        match spec.[!j] with
        | '-' -> minus := true; incr j
        | '0' -> zero := true; incr j
        | '+' -> plus := true; incr j
        | ' ' -> space := true; incr j
        | '#' -> alt := true; incr j
        | _ -> flags_done := true
      done;
      let number () =
        if !j < n && spec.[!j] = '*' then begin
          incr j;
          Some (parse_int_arg (next_arg ()))
        end
        else begin
          let start = !j in
          while !j < n && Chars.is_digit spec.[!j] do
            incr j
          done;
          if !j > start then
            Some (int_of_string (String.sub spec start (!j - start)))
          else None
        end
      in
      let width = number () in
      let precision =
        if !j < n && spec.[!j] = '.' then begin
          incr j;
          Some (Option.value (number ()) ~default:0)
        end
        else None
      in
      (* Skip length modifiers (h, l). *)
      while !j < n && (spec.[!j] = 'h' || spec.[!j] = 'l') do
        incr j
      done;
      if !j >= n then failf "format string ended in middle of field specifier";
      let conv =
        {
          minus = !minus;
          zero = !zero;
          plus = !plus;
          space = !space;
          alt = !alt;
          width;
          precision;
          kind = spec.[!j];
        }
      in
      Buffer.add_string buf (render conv (next_arg ()));
      go (!j + 1)
    end
  in
  go 0;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* scan *)

let scan_string input fmt =
  let ni = String.length input and nf = String.length fmt in
  let results = ref [] in
  let rec skip_ws i =
    if i < ni && Chars.is_space input.[i] then skip_ws (i + 1) else i
  in
  (* Returns Ok () when the scan completes (or input runs out). *)
  let rec go i j =
    if j >= nf then Stdlib.Ok (List.rev !results)
    else if Chars.is_space fmt.[j] then go (skip_ws i) (j + 1)
    else if fmt.[j] = '%' && j + 1 < nf then begin
      let conv = fmt.[j + 1] in
      let i = if conv <> 'c' then skip_ws i else i in
      if i >= ni then Stdlib.Ok (List.rev !results)
      else
        match conv with
        | 'd' | 'x' | 'o' ->
          let stop = ref i in
          if !stop < ni && (input.[!stop] = '-' || input.[!stop] = '+') then
            incr stop;
          let is_digit_for c =
            match conv with
            | 'd' -> Chars.is_digit c
            | 'o' -> c >= '0' && c <= '7'
            | _ ->
              Chars.is_digit c
              || (c >= 'a' && c <= 'f')
              || (c >= 'A' && c <= 'F')
          in
          while !stop < ni && is_digit_for input.[!stop] do
            incr stop
          done;
          if !stop = i then Stdlib.Ok (List.rev !results)
          else begin
            let text = String.sub input i (!stop - i) in
            let value =
              match conv with
              | 'd' -> int_of_string_opt text
              | 'o' -> int_of_string_opt ("0o" ^ text)
              | _ -> int_of_string_opt ("0x" ^ text)
            in
            match value with
            | Some v ->
              results := string_of_int v :: !results;
              go !stop (j + 2)
            | None -> Stdlib.Ok (List.rev !results)
          end
        | 'f' | 'e' | 'g' ->
          let stop = ref i in
          let accept c =
            Chars.is_digit c || c = '.' || c = '-' || c = '+' || c = 'e'
            || c = 'E'
          in
          while !stop < ni && accept input.[!stop] do
            incr stop
          done;
          (match float_of_string_opt (String.sub input i (!stop - i)) with
          | Some f ->
            results := Expr.to_string (Expr.Float f) :: !results;
            go !stop (j + 2)
          | None -> Stdlib.Ok (List.rev !results))
        | 's' ->
          let stop = ref i in
          while !stop < ni && not (Chars.is_space input.[!stop]) do
            incr stop
          done;
          results := String.sub input i (!stop - i) :: !results;
          go !stop (j + 2)
        | 'c' ->
          results := String.make 1 input.[i] :: !results;
          go (i + 1) (j + 2)
        | '%' -> if input.[i] = '%' then go (i + 1) (j + 2) else Stdlib.Ok (List.rev !results)
        | c -> Stdlib.Error (Printf.sprintf "bad scan conversion character \"%c\"" c)
    end
    else if i < ni && input.[i] = fmt.[j] then go (i + 1) (j + 1)
    else Stdlib.Ok (List.rev !results)
  in
  go 0 0

(* ------------------------------------------------------------------ *)
(* The string ensemble *)

let trim_chars = " \t\n\r"

let trim_side ~left ~right chars s =
  let in_set c = String.contains chars c in
  let n = String.length s in
  let i = ref 0 and j = ref (n - 1) in
  if left then
    while !i < n && in_set s.[!i] do
      incr i
    done;
  if right then
    while !j >= !i && in_set s.[!j] do
      decr j
    done;
  if !j < !i then "" else String.sub s !i (!j - !i + 1)

let find_substring ~last haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  if nn = 0 || nn > nh then -1
  else begin
    let found = ref (-1) in
    for i = 0 to nh - nn do
      if String.sub haystack i nn = needle then
        if last then found := i
        else if !found < 0 then found := i
    done;
    !found
  end

let cmd_string _t words =
  match words with
  | _ :: "compare" :: [ a; b ] -> string_of_int (compare (String.compare a b) 0)
  | _ :: "match" :: [ pattern; s ] ->
    if Glob.matches ~pattern s then "1" else "0"
  | _ :: "length" :: [ s ] -> string_of_int (String.length s)
  | _ :: "index" :: [ s; i ] ->
    let i =
      match int_of_string_opt (String.trim i) with
      | Some v -> v
      | None ->
        if String.trim i = "end" then String.length s - 1
        else failf "bad index \"%s\"" i
    in
    if i < 0 || i >= String.length s then "" else String.make 1 s.[i]
  | _ :: "range" :: [ s; first; last ] ->
    let n = String.length s in
    let parse_i v =
      if String.trim v = "end" then n - 1
      else
        match int_of_string_opt (String.trim v) with
        | Some i -> i
        | None -> failf "bad index \"%s\"" v
    in
    let first = max 0 (parse_i first) in
    let last = min (n - 1) (parse_i last) in
    if first > last then "" else String.sub s first (last - first + 1)
  | _ :: "tolower" :: [ s ] -> String.lowercase_ascii s
  | _ :: "toupper" :: [ s ] -> String.uppercase_ascii s
  | _ :: "trim" :: [ s ] -> trim_side ~left:true ~right:true trim_chars s
  | _ :: "trim" :: [ s; chars ] -> trim_side ~left:true ~right:true chars s
  | _ :: "trimleft" :: [ s ] -> trim_side ~left:true ~right:false trim_chars s
  | _ :: "trimleft" :: [ s; chars ] -> trim_side ~left:true ~right:false chars s
  | _ :: "trimright" :: [ s ] -> trim_side ~left:false ~right:true trim_chars s
  | _ :: "trimright" :: [ s; chars ] -> trim_side ~left:false ~right:true chars s
  | _ :: "first" :: [ needle; haystack ] ->
    string_of_int (find_substring ~last:false haystack needle)
  | _ :: "last" :: [ needle; haystack ] ->
    string_of_int (find_substring ~last:true haystack needle)
  | _ -> raise Usage

let cmd_format _t = function
  | _ :: spec :: args -> format_string spec args
  | _ -> raise Usage

let cmd_scan t = function
  | _ :: input :: fmt :: (_ :: _ as vars) -> (
    match scan_string input fmt with
    | Stdlib.Error msg -> failf "%s" msg
    | Stdlib.Ok fields ->
      let count = ref 0 in
      List.iteri
        (fun i field ->
          match List.nth_opt vars i with
          | Some var ->
            set_var t var field;
            incr count
          | None -> ())
        fields;
      string_of_int !count)
  | _ -> raise Usage

let string_signature =
  signature "string" 2 ~usage:"string option arg ?arg ...?"
    ~subs:
      [
        subsig "compare" 2 ~max:2;
        subsig "first" 2 ~max:2;
        subsig "index" 2 ~max:2;
        subsig "last" 2 ~max:2;
        subsig "length" 1 ~max:1;
        subsig "match" 2 ~max:2;
        subsig "range" 3 ~max:3;
        subsig "tolower" 1 ~max:1;
        subsig "toupper" 1 ~max:1;
        subsig "trim" 1 ~max:2;
        subsig "trimleft" 1 ~max:2;
        subsig "trimright" 1 ~max:2;
      ]

let install t =
  register_value t string_signature cmd_string;
  register_value t
    (signature "format" 1 ~usage:"format formatString ?arg arg ...?")
    cmd_format;
  register_value t
    (signature "scan" 3 ~usage:"scan string format varName ?varName ...?")
    cmd_scan
