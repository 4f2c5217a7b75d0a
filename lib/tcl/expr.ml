type value = Int of int | Float of float | Str of string

type env = {
  get_var : string -> string;
  eval_cmd : string -> string;
}

exception Error of string

let error fmt = Format.kasprintf (fun msg -> raise (Error msg)) fmt

(* Tcl's %.12g default (with a round-trip fallback); see Tval. *)
let float_to_string = Tval.float_to_string

let to_string = function
  | Int i -> string_of_int i
  | Float f -> float_to_string f
  | Str s -> s

let number_of_string s =
  match Tval.parse_num s with
  | Tval.Nint i -> Some (Int i)
  | Tval.Ndbl f -> Some (Float f)
  | Tval.Nnone | Tval.Nmaybe -> None

let as_number v =
  match v with
  | Int _ | Float _ -> Some v
  | Str s -> number_of_string s

let require_number v =
  match as_number v with
  | Some n -> n
  | None -> error "expected number but got %S" (to_string v)

let as_int v =
  match require_number v with
  | Int i -> i
  | Float _ -> error "expected integer but got %S" (to_string v)
  | Str _ -> assert false

let truthy v =
  match as_number v with
  | Some (Int i) -> i <> 0
  | Some (Float f) -> f <> 0.0
  | Some (Str _) -> assert false
  | None -> (
    match String.lowercase_ascii (to_string v) with
    | "true" | "yes" | "on" -> true
    | "false" | "no" | "off" -> false
    | s -> error "expected boolean value but got %S" s)

(* ------------------------------------------------------------------ *)
(* Lexer *)

type token =
  | Num of value
  | Strval of string (* quoted or braced operand: compares as string *)
  | Ident of string (* math function name *)
  | Op of string
  | Lparen
  | Rparen
  | Comma
  | End

type lexer = {
  env : env;
  src : string;
  mutable pos : int;
  mutable tok : token;
  mutable skip : int;
      (* > 0 while parsing an operand that must not be evaluated: the
         unreached branch of &&, || or ?:. Substitutions are suppressed and
         operators return dummies, so side effects and spurious type errors
         (e.g. divide by zero in dead code) cannot occur. *)
}

let skipping lx = lx.skip > 0

let skipped lx thunk =
  lx.skip <- lx.skip + 1;
  Fun.protect ~finally:(fun () -> lx.skip <- lx.skip - 1) thunk

(* Read a $variable reference starting at the '$'; returns its value. *)
let read_variable lx =
  let s = lx.src and n = String.length lx.src in
  let start = lx.pos + 1 in
  let i = ref start in
  if !i < n && s.[!i] = '{' then begin
    let j = ref (!i + 1) in
    while !j < n && s.[!j] <> '}' do
      incr j
    done;
    if !j >= n then error "missing close-brace for variable name";
    let name = String.sub s (!i + 1) (!j - !i - 1) in
    lx.pos <- !j + 1;
    if skipping lx then "" else lx.env.get_var name
  end
  else begin
    while !i < n && Chars.is_var_char s.[!i] do
      incr i
    done;
    if !i = start then error "invalid character after $ in expression";
    let name_end = !i in
    if !i < n && s.[!i] = '(' then begin
      (* Array reference: scan to the matching ')'. *)
      let depth = ref 1 in
      incr i;
      while !i < n && !depth > 0 do
        (match s.[!i] with
        | '(' -> incr depth
        | ')' -> decr depth
        | _ -> ());
        incr i
      done;
      if !depth > 0 then error "missing close-paren in array reference";
      let name = String.sub s start (!i - start) in
      lx.pos <- !i;
      if skipping lx then "" else lx.env.get_var name
    end
    else begin
      let name = String.sub s start (name_end - start) in
      lx.pos <- name_end;
      if skipping lx then "" else lx.env.get_var name
    end
  end

(* Read a [command] substitution starting at the '['. *)
let read_command lx =
  let s = lx.src and n = String.length lx.src in
  let rec scan j depth =
    if j >= n then error "missing close-bracket in expression"
    else
      match s.[j] with
      | '\\' -> scan (j + 2) depth
      | '[' -> scan (j + 1) (depth + 1)
      | ']' -> if depth = 0 then j else scan (j + 1) (depth - 1)
      | _ -> scan (j + 1) depth
  in
  let close = scan (lx.pos + 1) 0 in
  let script = String.sub lx.src (lx.pos + 1) (close - lx.pos - 1) in
  lx.pos <- close + 1;
  if skipping lx then "" else lx.env.eval_cmd script

(* Read a "quoted string" operand, performing backslash, variable and
   command substitution inside. *)
let read_quoted lx =
  let s = lx.src and n = String.length lx.src in
  let buf = Buffer.create 16 in
  lx.pos <- lx.pos + 1;
  let rec go () =
    if lx.pos >= n then error "missing close quote in expression"
    else
      match s.[lx.pos] with
      | '"' ->
        lx.pos <- lx.pos + 1;
        Buffer.contents buf
      | '\\' ->
        let repl, j = Chars.backslash_subst s lx.pos in
        Buffer.add_string buf repl;
        lx.pos <- j;
        go ()
      | '$' ->
        Buffer.add_string buf (read_variable lx);
        go ()
      | '[' ->
        Buffer.add_string buf (read_command lx);
        go ()
      | c ->
        Buffer.add_char buf c;
        lx.pos <- lx.pos + 1;
        go ()
  in
  go ()

let read_braced lx =
  match Chars.find_matching_brace lx.src lx.pos with
  | None -> error "missing close brace in expression"
  | Some j ->
    let content = String.sub lx.src (lx.pos + 1) (j - lx.pos - 1) in
    lx.pos <- j + 1;
    content

let read_number lx =
  let s = lx.src and n = String.length lx.src in
  let start = lx.pos in
  let i = ref start in
  let is_num_char c =
    Chars.is_digit c || c = '.' || c = 'x' || c = 'X'
    || (c >= 'a' && c <= 'f')
    || (c >= 'A' && c <= 'F')
  in
  while !i < n && is_num_char s.[!i] do
    (* Accept exponent signs: "1e+5". *)
    if (s.[!i] = 'e' || s.[!i] = 'E')
       && !i + 1 < n
       && (s.[!i + 1] = '+' || s.[!i + 1] = '-')
       && not (String.length s > start + 1 && (s.[start + 1] = 'x' || s.[start + 1] = 'X'))
    then i := !i + 2
    else incr i
  done;
  let text = String.sub s start (!i - start) in
  lx.pos <- !i;
  match number_of_string text with
  | Some v -> v
  | None -> error "malformed number %S in expression" text

let rec next_token lx =
  let s = lx.src and n = String.length lx.src in
  while lx.pos < n && (Chars.is_space s.[lx.pos] || s.[lx.pos] = '\n') do
    lx.pos <- lx.pos + 1
  done;
  if lx.pos >= n then lx.tok <- End
  else
    let two op = lx.pos <- lx.pos + 2; lx.tok <- Op op in
    let one op = lx.pos <- lx.pos + 1; lx.tok <- Op op in
    let c = s.[lx.pos] in
    let c2 = if lx.pos + 1 < n then Some s.[lx.pos + 1] else None in
    match (c, c2) with
    | '(', _ -> lx.pos <- lx.pos + 1; lx.tok <- Lparen
    | ')', _ -> lx.pos <- lx.pos + 1; lx.tok <- Rparen
    | ',', _ -> lx.pos <- lx.pos + 1; lx.tok <- Comma
    | '$', _ -> lx.tok <- Strval (read_variable lx)
    | '[', _ -> lx.tok <- Strval (read_command lx)
    | '"', _ -> lx.tok <- Strval (read_quoted lx)
    | '{', _ -> lx.tok <- Strval (read_braced lx)
    | '\\', _ ->
      (* Backslash-newline continuation inside expressions. *)
      let repl, j = Chars.backslash_subst s lx.pos in
      if String.trim repl = "" then begin
        lx.pos <- j;
        next_token lx
      end
      else lx.tok <- Strval repl
    | '0' .. '9', _ -> lx.tok <- Num (read_number lx)
    | '.', Some d when Chars.is_digit d -> lx.tok <- Num (read_number lx)
    | '<', Some '<' -> two "<<"
    | '>', Some '>' -> two ">>"
    | '<', Some '=' -> two "<="
    | '>', Some '=' -> two ">="
    | '=', Some '=' -> two "=="
    | '!', Some '=' -> two "!="
    | '&', Some '&' -> two "&&"
    | '|', Some '|' -> two "||"
    | ('+' | '-' | '*' | '/' | '%' | '<' | '>' | '!' | '~' | '&' | '|' | '^' | '?' | ':'), _
      -> one (String.make 1 c)
    | ('a' .. 'z' | 'A' .. 'Z' | '_'), _ ->
      let i = ref lx.pos in
      while !i < n && Chars.is_var_char s.[!i] do
        incr i
      done;
      let name = String.sub s lx.pos (!i - lx.pos) in
      lx.pos <- !i;
      lx.tok <- Ident name
    | _ -> error "syntax error in expression near %C" c

(* ------------------------------------------------------------------ *)
(* Arithmetic on values *)

let arith name fi ff a b =
  match (require_number a, require_number b) with
  | Int x, Int y -> Int (fi x y)
  | (Int _ | Float _), (Int _ | Float _) ->
    let fx = match require_number a with Int x -> float_of_int x | Float f -> f | Str _ -> assert false in
    let fy = match require_number b with Int y -> float_of_int y | Float f -> f | Str _ -> assert false in
    (match ff with
    | Some f -> Float (f fx fy)
    | None -> error "can't use floating-point value as operand of %S" name)
  | _ -> assert false

let compare_values a b =
  match (as_number a, as_number b) with
  | Some (Int x), Some (Int y) -> compare x y
  | Some x, Some y ->
    let f = function Int i -> float_of_int i | Float f -> f | Str _ -> assert false in
    compare (f x) (f y)
  | _ -> String.compare (to_string a) (to_string b)

let int_div x y =
  if y = 0 then error "divide by zero"
  else
    (* Tcl division truncates toward negative infinity. *)
    let q = x / y and r = x mod y in
    if (r <> 0) && ((r < 0) <> (y < 0)) then q - 1 else q

let int_mod x y =
  if y = 0 then error "divide by zero"
  else
    let r = x mod y in
    if r <> 0 && (r < 0) <> (y < 0) then r + y else r

let bool_val b = Int (if b then 1 else 0)

(* ------------------------------------------------------------------ *)
(* Parser: precedence climbing *)

let rec parse_ternary lx =
  let cond = parse_binary lx 0 in
  match lx.tok with
  | Op "?" ->
    (* [next_token] performs substitution, so each branch's first token
       must be read under the right skip mode. *)
    let check_colon () =
      match lx.tok with
      | Op ":" -> ()
      | _ -> error "missing ':' in ternary expression"
    in
    if skipping lx then begin
      next_token lx;
      ignore (parse_ternary lx);
      check_colon ();
      next_token lx;
      ignore (parse_ternary lx);
      Int 0
    end
    else if truthy cond then begin
      next_token lx;
      let t = parse_ternary lx in
      check_colon ();
      skipped lx (fun () ->
          next_token lx;
          ignore (parse_ternary lx));
      t
    end
    else begin
      skipped lx (fun () ->
          next_token lx;
          ignore (parse_ternary lx));
      check_colon ();
      next_token lx;
      parse_ternary lx
    end
  | _ -> cond

and binary_level = function
  | "||" -> Some 1
  | "&&" -> Some 2
  | "|" -> Some 3
  | "^" -> Some 4
  | "&" -> Some 5
  | "==" | "!=" -> Some 6
  | "<" | ">" | "<=" | ">=" -> Some 7
  | "<<" | ">>" -> Some 8
  | "+" | "-" -> Some 9
  | "*" | "/" | "%" -> Some 10
  | _ -> None

and parse_binary lx min_level =
  let lhs = ref (parse_unary lx) in
  let continue_ = ref true in
  while !continue_ do
    match lx.tok with
    | Op op -> (
      match binary_level op with
      | Some level when level >= min_level ->
        (* Short-circuit for && and ||: the right side is parsed but not
           evaluated when the left side decides the result. The skip mode
           must be entered before [next_token] reads (and would otherwise
           substitute) the right side's first token. *)
        let parse_rhs_live () =
          next_token lx;
          parse_binary lx (level + 1)
        in
        let parse_rhs_skipped () =
          skipped lx (fun () ->
              next_token lx;
              ignore (parse_binary lx (level + 1)))
        in
        (match op with
        | ("&&" | "||") when skipping lx ->
          next_token lx;
          ignore (parse_binary lx (level + 1));
          lhs := Int 0
        | "&&" ->
          if truthy !lhs then lhs := bool_val (truthy (parse_rhs_live ()))
          else begin
            parse_rhs_skipped ();
            lhs := bool_val false
          end
        | "||" ->
          if truthy !lhs then begin
            parse_rhs_skipped ();
            lhs := bool_val true
          end
          else lhs := bool_val (truthy (parse_rhs_live ()))
        | _ ->
          let rhs = parse_rhs_live () in
          lhs := (if skipping lx then Int 0 else apply_binary op !lhs rhs))
      | _ -> continue_ := false)
    | _ -> continue_ := false
  done;
  !lhs

and apply_binary op a b =
  match op with
  | "+" -> arith "+" ( + ) (Some ( +. )) a b
  | "-" -> arith "-" ( - ) (Some ( -. )) a b
  | "*" -> arith "*" ( * ) (Some ( *. )) a b
  | "/" ->
    arith "/" int_div
      (Some
         (fun x y -> if y = 0.0 then error "divide by zero" else x /. y))
      a b
  | "%" -> Int (int_mod (as_int a) (as_int b))
  | "<<" -> Int (as_int a lsl as_int b)
  | ">>" -> Int (as_int a asr as_int b)
  | "&" -> Int (as_int a land as_int b)
  | "|" -> Int (as_int a lor as_int b)
  | "^" -> Int (as_int a lxor as_int b)
  | "==" -> bool_val (compare_values a b = 0)
  | "!=" -> bool_val (compare_values a b <> 0)
  | "<" -> bool_val (compare_values a b < 0)
  | ">" -> bool_val (compare_values a b > 0)
  | "<=" -> bool_val (compare_values a b <= 0)
  | ">=" -> bool_val (compare_values a b >= 0)
  | _ -> error "unknown operator %S" op

and apply_unary op v =
  match op with
  | "-" -> (
    match require_number v with
    | Int i -> Int (-i)
    | Float f -> Float (-.f)
    | Str _ -> assert false)
  | "+" -> require_number v
  | "!" -> bool_val (not (truthy v))
  | _ -> Int (lnot (as_int v))

and parse_unary lx =
  match lx.tok with
  | Op (("-" | "+" | "!" | "~") as op) ->
    next_token lx;
    let v = parse_unary lx in
    if skipping lx then Int 0 else apply_unary op v
  | _ -> parse_primary lx

and parse_primary lx =
  match lx.tok with
  | Num v ->
    next_token lx;
    v
  | Strval s ->
    next_token lx;
    (* A substituted operand is numeric if it looks numeric. *)
    (match number_of_string s with Some v -> v | None -> Str s)
  | Lparen ->
    next_token lx;
    let v = parse_ternary lx in
    (match lx.tok with
    | Rparen ->
      next_token lx;
      v
    | _ -> error "missing close paren in expression")
  | Ident name ->
    next_token lx;
    (match lx.tok with
    | Lparen ->
      next_token lx;
      let args = parse_args lx [] in
      if skipping lx then Int 0 else apply_function name args
    | _ -> (
      (* Bare words: accept booleans, else it is an error. *)
      match String.lowercase_ascii name with
      | "true" | "yes" | "on" -> Int 1
      | "false" | "no" | "off" -> Int 0
      | _ -> error "unknown operand %S in expression" name))
  | Op op -> error "unexpected operator %S in expression" op
  | Comma -> error "unexpected ',' in expression"
  | Rparen -> error "unexpected ')' in expression"
  | End -> error "premature end of expression"

and parse_args lx acc =
  match lx.tok with
  | Rparen ->
    next_token lx;
    List.rev acc
  | _ ->
    let v = parse_ternary lx in
    (match lx.tok with
    | Comma ->
      next_token lx;
      parse_args lx (v :: acc)
    | Rparen ->
      next_token lx;
      List.rev (v :: acc)
    | _ -> error "missing ')' in math function call")

and apply_function name args =
  let float1 f =
    match args with
    | [ a ] -> (
      match require_number a with
      | Int i -> Float (f (float_of_int i))
      | Float x -> Float (f x)
      | Str _ -> assert false)
    | _ -> error "math function %S takes one argument" name
  in
  let float2 f =
    match args with
    | [ a; b ] ->
      let fx = function Int i -> float_of_int i | Float x -> x | Str _ -> assert false in
      Float (f (fx (require_number a)) (fx (require_number b)))
    | _ -> error "math function %S takes two arguments" name
  in
  match name with
  | "abs" -> (
    match args with
    | [ a ] -> (
      match require_number a with
      | Int i -> Int (abs i)
      | Float f -> Float (Float.abs f)
      | Str _ -> assert false)
    | _ -> error "math function \"abs\" takes one argument")
  | "int" -> (
    match args with
    | [ a ] -> (
      match require_number a with
      | Int i -> Int i
      | Float f -> Int (int_of_float (Float.trunc f))
      | Str _ -> assert false)
    | _ -> error "math function \"int\" takes one argument")
  | "round" -> (
    match args with
    | [ a ] -> (
      match require_number a with
      | Int i -> Int i
      | Float f -> Int (int_of_float (Float.round f))
      | Str _ -> assert false)
    | _ -> error "math function \"round\" takes one argument")
  | "double" -> (
    match args with
    | [ a ] -> (
      match require_number a with
      | Int i -> Float (float_of_int i)
      | Float f -> Float f
      | Str _ -> assert false)
    | _ -> error "math function \"double\" takes one argument")
  | "sqrt" -> float1 sqrt
  | "sin" -> float1 sin
  | "cos" -> float1 cos
  | "tan" -> float1 tan
  | "asin" -> float1 asin
  | "acos" -> float1 acos
  | "atan" -> float1 atan
  | "exp" -> float1 exp
  | "log" -> float1 log
  | "log10" -> float1 log10
  | "floor" -> float1 Float.floor
  | "ceil" -> float1 Float.ceil
  | "pow" -> float2 ( ** )
  | "atan2" -> float2 atan2
  | "fmod" -> float2 Float.rem
  | "hypot" -> float2 Float.hypot
  | "min" -> float2 Float.min
  | "max" -> float2 Float.max
  | _ -> error "unknown math function %S" name

let eval env src =
  let lx = { env; src; pos = 0; tok = End; skip = 0 } in
  next_token lx;
  let v = parse_ternary lx in
  match lx.tok with
  | End -> v
  | _ -> error "extra tokens at end of expression %S" src

(* ------------------------------------------------------------------ *)
(* Parsed-AST entry point.

   The evaluator above interleaves lexing with substitution. The pure
   tokenizer below reads the same grammar without touching the
   environment, producing an AST that the bytecode VM lowers once and
   the static analyzer interprets abstractly. *)

type qpart = Q_lit of string | Q_var of string | Q_cmd of string

type ast =
  | A_const of value
  | A_var of string
  | A_cmd of string
  | A_quoted of qpart list
  | A_unop of string * ast
  | A_binop of string * ast * ast
  | A_ternary of ast * ast * ast
  | A_func of string * ast list

type ptok =
  | P_num of value
  | P_str of string (* braced or backslash operand *)
  | P_var of string
  | P_cmd of string
  | P_quoted of qpart list
  | P_ident of string
  | P_op of string
  | P_lparen
  | P_rparen
  | P_comma
  | P_end

type plexer = { psrc : string; mutable ppos : int; mutable ptok : ptok }

(* Mirrors [read_variable], but returns the name instead of the value.
   Array references keep their parenthesised index verbatim: the index is
   not substituted in expressions. *)
let scan_variable_name lx =
  let s = lx.psrc and n = String.length lx.psrc in
  let start = lx.ppos + 1 in
  let i = ref start in
  if !i < n && s.[!i] = '{' then begin
    let j = ref (!i + 1) in
    while !j < n && s.[!j] <> '}' do
      incr j
    done;
    if !j >= n then error "missing close-brace for variable name";
    let name = String.sub s (!i + 1) (!j - !i - 1) in
    lx.ppos <- !j + 1;
    name
  end
  else begin
    while !i < n && Chars.is_var_char s.[!i] do
      incr i
    done;
    if !i = start then error "invalid character after $ in expression";
    let name_end = !i in
    if !i < n && s.[!i] = '(' then begin
      let depth = ref 1 in
      incr i;
      while !i < n && !depth > 0 do
        (match s.[!i] with
        | '(' -> incr depth
        | ')' -> decr depth
        | _ -> ());
        incr i
      done;
      if !depth > 0 then error "missing close-paren in array reference";
      let name = String.sub s start (!i - start) in
      lx.ppos <- !i;
      name
    end
    else begin
      let name = String.sub s start (name_end - start) in
      lx.ppos <- name_end;
      name
    end
  end

(* Mirrors [read_command], returning the script text. *)
let scan_command lx =
  let s = lx.psrc and n = String.length lx.psrc in
  let rec scan j depth =
    if j >= n then error "missing close-bracket in expression"
    else
      match s.[j] with
      | '\\' -> scan (j + 2) depth
      | '[' -> scan (j + 1) (depth + 1)
      | ']' -> if depth = 0 then j else scan (j + 1) (depth - 1)
      | _ -> scan (j + 1) depth
  in
  let close = scan (lx.ppos + 1) 0 in
  let script = String.sub s (lx.ppos + 1) (close - lx.ppos - 1) in
  lx.ppos <- close + 1;
  script

(* Mirrors [read_quoted], collecting parts instead of substituting. *)
let scan_quoted lx =
  let s = lx.psrc and n = String.length lx.psrc in
  let parts = ref [] in
  let buf = Buffer.create 16 in
  let flush () =
    if Buffer.length buf > 0 then begin
      parts := Q_lit (Buffer.contents buf) :: !parts;
      Buffer.clear buf
    end
  in
  lx.ppos <- lx.ppos + 1;
  let rec go () =
    if lx.ppos >= n then error "missing close quote in expression"
    else
      match s.[lx.ppos] with
      | '"' ->
        lx.ppos <- lx.ppos + 1;
        flush ();
        List.rev !parts
      | '\\' ->
        let repl, j = Chars.backslash_subst s lx.ppos in
        Buffer.add_string buf repl;
        lx.ppos <- j;
        go ()
      | '$' ->
        let name = scan_variable_name lx in
        flush ();
        parts := Q_var name :: !parts;
        go ()
      | '[' ->
        let script = scan_command lx in
        flush ();
        parts := Q_cmd script :: !parts;
        go ()
      | c ->
        Buffer.add_char buf c;
        lx.ppos <- lx.ppos + 1;
        go ()
  in
  go ()

let scan_braced lx =
  match Chars.find_matching_brace lx.psrc lx.ppos with
  | None -> error "missing close brace in expression"
  | Some j ->
    let content = String.sub lx.psrc (lx.ppos + 1) (j - lx.ppos - 1) in
    lx.ppos <- j + 1;
    content

(* Mirrors [read_number]. *)
let scan_number lx =
  let s = lx.psrc and n = String.length lx.psrc in
  let start = lx.ppos in
  let i = ref start in
  let is_num_char c =
    Chars.is_digit c || c = '.' || c = 'x' || c = 'X'
    || (c >= 'a' && c <= 'f')
    || (c >= 'A' && c <= 'F')
  in
  while !i < n && is_num_char s.[!i] do
    if (s.[!i] = 'e' || s.[!i] = 'E')
       && !i + 1 < n
       && (s.[!i + 1] = '+' || s.[!i + 1] = '-')
       && not (String.length s > start + 1 && (s.[start + 1] = 'x' || s.[start + 1] = 'X'))
    then i := !i + 2
    else incr i
  done;
  let text = String.sub s start (!i - start) in
  lx.ppos <- !i;
  match number_of_string text with
  | Some v -> v
  | None -> error "malformed number %S in expression" text

(* Mirrors [next_token] exactly, including its quirk of not consuming a
   non-whitespace backslash operand (the reference then reports "extra
   tokens at end of expression", and so must we). *)
let rec pnext_token lx =
  let s = lx.psrc and n = String.length lx.psrc in
  while lx.ppos < n && (Chars.is_space s.[lx.ppos] || s.[lx.ppos] = '\n') do
    lx.ppos <- lx.ppos + 1
  done;
  if lx.ppos >= n then lx.ptok <- P_end
  else
    let two op = lx.ppos <- lx.ppos + 2; lx.ptok <- P_op op in
    let one op = lx.ppos <- lx.ppos + 1; lx.ptok <- P_op op in
    let c = s.[lx.ppos] in
    let c2 = if lx.ppos + 1 < n then Some s.[lx.ppos + 1] else None in
    match (c, c2) with
    | '(', _ -> lx.ppos <- lx.ppos + 1; lx.ptok <- P_lparen
    | ')', _ -> lx.ppos <- lx.ppos + 1; lx.ptok <- P_rparen
    | ',', _ -> lx.ppos <- lx.ppos + 1; lx.ptok <- P_comma
    | '$', _ -> lx.ptok <- P_var (scan_variable_name lx)
    | '[', _ -> lx.ptok <- P_cmd (scan_command lx)
    | '"', _ -> lx.ptok <- P_quoted (scan_quoted lx)
    | '{', _ -> lx.ptok <- P_str (scan_braced lx)
    | '\\', _ ->
      let repl, j = Chars.backslash_subst s lx.ppos in
      if String.trim repl = "" then begin
        lx.ppos <- j;
        pnext_token lx
      end
      else lx.ptok <- P_str repl
    | '0' .. '9', _ -> lx.ptok <- P_num (scan_number lx)
    | '.', Some d when Chars.is_digit d -> lx.ptok <- P_num (scan_number lx)
    | '<', Some '<' -> two "<<"
    | '>', Some '>' -> two ">>"
    | '<', Some '=' -> two "<="
    | '>', Some '=' -> two ">="
    | '=', Some '=' -> two "=="
    | '!', Some '=' -> two "!="
    | '&', Some '&' -> two "&&"
    | '|', Some '|' -> two "||"
    | ('+' | '-' | '*' | '/' | '%' | '<' | '>' | '!' | '~' | '&' | '|' | '^' | '?' | ':'), _
      -> one (String.make 1 c)
    | ('a' .. 'z' | 'A' .. 'Z' | '_'), _ ->
      let i = ref lx.ppos in
      while !i < n && Chars.is_var_char s.[!i] do
        incr i
      done;
      let name = String.sub s lx.ppos (!i - lx.ppos) in
      lx.ppos <- !i;
      lx.ptok <- P_ident name
    | _ -> error "syntax error in expression near %C" c

let operand_value s =
  match number_of_string s with Some v -> v | None -> Str s

let rec p_ternary lx =
  let cond = p_binary lx 0 in
  match lx.ptok with
  | P_op "?" ->
    pnext_token lx;
    let t = p_ternary lx in
    (match lx.ptok with
    | P_op ":" ->
      pnext_token lx;
      let f = p_ternary lx in
      A_ternary (cond, t, f)
    | _ -> error "missing ':' in ternary expression")
  | _ -> cond

and p_binary lx min_level =
  let lhs = ref (p_unary lx) in
  let continue_ = ref true in
  while !continue_ do
    match lx.ptok with
    | P_op op -> (
      match binary_level op with
      | Some level when level >= min_level ->
        pnext_token lx;
        let rhs = p_binary lx (level + 1) in
        lhs := A_binop (op, !lhs, rhs)
      | _ -> continue_ := false)
    | _ -> continue_ := false
  done;
  !lhs

and p_unary lx =
  match lx.ptok with
  | P_op (("-" | "+" | "!" | "~") as op) ->
    pnext_token lx;
    A_unop (op, p_unary lx)
  | _ -> p_primary lx

and p_primary lx =
  match lx.ptok with
  | P_num v ->
    pnext_token lx;
    A_const v
  | P_str s ->
    pnext_token lx;
    A_const (operand_value s)
  | P_var name ->
    pnext_token lx;
    A_var name
  | P_cmd script ->
    pnext_token lx;
    A_cmd script
  | P_quoted parts ->
    pnext_token lx;
    (match parts with
    | [] -> A_const (operand_value "")
    | [ Q_lit s ] -> A_const (operand_value s)
    | _ -> A_quoted parts)
  | P_lparen ->
    pnext_token lx;
    let v = p_ternary lx in
    (match lx.ptok with
    | P_rparen ->
      pnext_token lx;
      v
    | _ -> error "missing close paren in expression")
  | P_ident name ->
    pnext_token lx;
    (match lx.ptok with
    | P_lparen ->
      pnext_token lx;
      A_func (name, p_args lx [])
    | _ -> (
      match String.lowercase_ascii name with
      | "true" | "yes" | "on" -> A_const (Int 1)
      | "false" | "no" | "off" -> A_const (Int 0)
      | _ -> error "unknown operand %S in expression" name))
  | P_op op -> error "unexpected operator %S in expression" op
  | P_comma -> error "unexpected ',' in expression"
  | P_rparen -> error "unexpected ')' in expression"
  | P_end -> error "premature end of expression"

and p_args lx acc =
  match lx.ptok with
  | P_rparen ->
    pnext_token lx;
    List.rev acc
  | _ ->
    let v = p_ternary lx in
    (match lx.ptok with
    | P_comma ->
      pnext_token lx;
      p_args lx (v :: acc)
    | P_rparen ->
      pnext_token lx;
      List.rev (v :: acc)
    | _ -> error "missing ')' in math function call")

let parse src =
  match
    let lx = { psrc = src; ppos = 0; ptok = P_end } in
    pnext_token lx;
    let a = p_ternary lx in
    match lx.ptok with
    | P_end -> a
    | _ -> error "extra tokens at end of expression %S" src
  with
  | a -> Stdlib.Ok a
  | exception Error msg -> Stdlib.Error msg
