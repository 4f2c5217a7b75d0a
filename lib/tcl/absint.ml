(* Abstract interpretation of Tcl expressions over a value-kind lattice.

   The static analyzer (Lint) walks compiled programs; wherever a
   braced condition or a literal [expr] argument appears, it parses the
   expression once (Expr.parse — the same parser the VM lowers through)
   and evaluates it abstractly here.  The domain is the value-kind
   lattice

       Vbot < Vconst s < {Vint, Vfloat, Vlist} < Vnum < Vtop

   (booleans are Tcl integers, so Vint covers them; strings that are
   none of the above go straight to Vtop).  A fully constant expression
   folds to its exact value via Expr's own apply functions, so any
   error raised — divide by zero, a float fed to an integer operator,
   a non-numeric operand — is *guaranteed* to occur at run time and
   carries the runtime's byte-identical message ({!Guaranteed}).
   Partial information still catches division/mod by a constant zero
   under an unknown dividend.

   Short-circuiting mirrors the runtime exactly: a branch the runtime
   would skip (the dead arm of [&&]/[||]/[?:] under a known condition)
   is not traversed at all, and a branch that only *may* run is
   evaluated protected — its failures are possibilities, not
   guarantees, so they are swallowed and its variable reads reported
   softly. *)

type v =
  | Vbot  (** no value seen yet (the identity of [join]) *)
  | Vconst of string  (** exact value known *)
  | Vint  (** always an integer (Tcl booleans included) *)
  | Vfloat  (** always a float *)
  | Vnum  (** integer or float, unknown which *)
  | Vlist  (** a well-formed list (two or more elements) *)
  | Vtop

exception Guaranteed of string
(** Evaluating the expression always fails at run time with this
    (runtime-identical) message. *)

(* Classify a constant by what the runtime would parse it as. *)
let widen = function
  | Vconst c -> (
    match Expr.number_of_string c with
    | Some (Expr.Int _) -> Vint
    | Some (Expr.Float _) -> Vfloat
    | Some (Expr.Str _) | None -> (
      match Tcl_list.parse c with
      | Ok l when List.length l >= 2 -> Vlist
      | _ -> Vtop))
  | v -> v

let join a b =
  if a = b then a
  else
    match (a, b) with
    | Vbot, x | x, Vbot -> x
    | _ -> (
      match (widen a, widen b) with
      | x, y when x = y -> x
      | (Vint | Vfloat | Vnum), (Vint | Vfloat | Vnum) -> Vnum
      | _ -> Vtop)

let truthy v =
  match v with
  | Vconst c -> (
    match Expr.truthy (Expr.operand_value c) with
    | b -> Some b
    | exception Expr.Error msg -> raise (Guaranteed msg))
  | _ -> None

(* Hooks back into the walker: variable kinds, use recording (soft in
   maybe-skipped branches), and nested [command] substitutions (walked
   by the caller; their value is unknowable). *)
type hooks = {
  lookup : string -> v;
  note_use : soft:bool -> string -> unit;
  eval_cmd : soft:bool -> string -> unit;
}

let is_zero c =
  match Expr.number_of_string c with
  | Some (Expr.Int 0) -> true
  | Some (Expr.Float f) -> f = 0.0
  | _ -> false

let apply_binary op a b =
  match Expr.apply_binary op a b with
  | value -> Vconst (Expr.to_string value)
  | exception Expr.Error msg -> raise (Guaranteed msg)

let int_kinded v = match widen v with Vint -> true | _ -> false

let float_kinded v = match widen v with Vfloat -> true | _ -> false

let numeric_kinded v =
  match widen v with Vint | Vfloat | Vnum -> true | _ -> false

(* Result kind of a binary operator over non-constant operands. *)
let binop_kind op a b =
  match op with
  | "<" | ">" | "<=" | ">=" | "==" | "!=" | "&&" | "||" -> Vint
  | "%" | "<<" | ">>" | "&" | "|" | "^" -> Vint
  | "+" | "-" | "*" | "/" ->
    if int_kinded a && int_kinded b then Vint
    else if
      (float_kinded a && numeric_kinded b)
      || (float_kinded b && numeric_kinded a)
    then Vfloat
    else Vnum
  | _ -> Vtop

let func_kind = function
  | "int" | "round" -> Vint
  | "double" | "sin" | "cos" | "tan" | "asin" | "acos" | "atan" | "atan2"
  | "sqrt" | "exp" | "log" | "log10" | "pow" | "sinh" | "cosh" | "tanh"
  | "floor" | "ceil" | "fmod" | "hypot" ->
    Vfloat
  | "abs" -> Vnum
  | _ -> Vtop

let rec eval hooks ~soft (a : Expr.ast) =
  match a with
  | Expr.A_const value -> Vconst (Expr.to_string value)
  | Expr.A_var name ->
    hooks.note_use ~soft name;
    hooks.lookup name
  | Expr.A_cmd script ->
    hooks.eval_cmd ~soft script;
    Vtop
  | Expr.A_quoted parts ->
    let all_lit =
      List.for_all (function Expr.Q_lit _ -> true | _ -> false) parts
    in
    if all_lit then
      Vconst
        (String.concat ""
           (List.map (function Expr.Q_lit s -> s | _ -> "") parts))
    else begin
      List.iter
        (function
          | Expr.Q_lit _ -> ()
          | Expr.Q_var n -> hooks.note_use ~soft n
          | Expr.Q_cmd s -> hooks.eval_cmd ~soft s)
        parts;
      Vtop
    end
  | Expr.A_unop (op, x) -> (
    match eval hooks ~soft x with
    | Vconst c -> (
      match Expr.apply_unary op (Expr.operand_value c) with
      | value -> Vconst (Expr.to_string value)
      | exception Expr.Error msg -> raise (Guaranteed msg))
    | Vbot -> Vbot
    | vx -> (
      match op with
      | "!" | "~" -> Vint
      | "-" | "+" -> if numeric_kinded vx then widen vx else Vnum
      | _ -> Vtop))
  | Expr.A_binop (("&&" | "||") as op, x, y) -> (
    let vx = eval hooks ~soft x in
    match truthy vx with
    | Some b ->
      let decided = if op = "&&" then not b else b in
      if decided then Vconst (if op = "&&" then "0" else "1")
        (* the other operand is skipped entirely, like the runtime *)
      else begin
        match truthy (eval hooks ~soft y) with
        | Some byv -> Vconst (if byv then "1" else "0")
        | None -> Vint
        | exception Guaranteed msg -> raise (Guaranteed msg)
      end
    | None ->
      (* Either operand may decide; the right side only *may* run. *)
      ignore (protect hooks y);
      Vint)
  | Expr.A_binop (op, x, y) -> (
    let vx = eval hooks ~soft x in
    let vy = eval hooks ~soft y in
    match (vx, vy) with
    | Vconst a, Vconst b ->
      apply_binary op (Expr.operand_value a) (Expr.operand_value b)
    | Vbot, _ | _, Vbot -> Vbot
    | _, Vconst b when (op = "/" || op = "%") && is_zero b ->
      raise (Guaranteed "divide by zero")
    | _ -> binop_kind op vx vy)
  | Expr.A_ternary (c, x, y) -> (
    match truthy (eval hooks ~soft c) with
    | Some true -> eval hooks ~soft x
    | Some false -> eval hooks ~soft y
    | None ->
      let vx = protect hooks x in
      let vy = protect hooks y in
      join vx vy)
  | Expr.A_func (name, args) -> (
    let vs = List.map (eval hooks ~soft) args in
    let consts =
      List.filter_map (function Vconst c -> Some c | _ -> None) vs
    in
    if List.length consts = List.length vs then
      match
        Expr.apply_function name (List.map Expr.operand_value consts)
      with
      | value -> Vconst (Expr.to_string value)
      | exception Expr.Error msg -> raise (Guaranteed msg)
    else if List.mem Vbot vs then Vbot
    else func_kind name)

(* A subexpression that only may run: failures are possibilities (not
   guarantees) and reads are soft. *)
and protect hooks x =
  match eval hooks ~soft:true x with
  | v -> v
  | exception Guaranteed _ -> Vtop

(* ------------------------------------------------------------------ *)
(* Entry points for the walker *)

let eval_ast hooks ast = eval hooks ~soft:false ast

let quiet_hooks lookup =
  { lookup; note_use = (fun ~soft:_ _ -> ()); eval_cmd = (fun ~soft:_ _ -> ()) }

let eval_quiet lookup ast =
  match eval (quiet_hooks lookup) ~soft:false ast with
  | v -> v
  | exception Guaranteed _ -> Vtop
