(* Dual-ported Tcl values, after Tcl 8.0's "shimmering" design: every
   value has a canonical string representation plus a lazily-computed
   cached numeric representation (integer/float).  Reading a rep
   computes and caches it; writing through any setter invalidates the
   others.  The string rep itself is rendered lazily so hot numeric
   paths (incr/expr in the VM) never touch strings until someone asks. *)

type num = Nnone | Nmaybe | Nint of int | Ndbl of float

type t = {
  mutable s : string; (* canonical string; [unrendered] until rendered *)
  mutable n : num; (* cached numeric rep; Nmaybe = not yet parsed *)
}

(* A numeric value's string before it is rendered.  It is made at run
   time, so no other string is physically equal to it, and it never
   leaves this module: [t] is abstract and [to_string] renders first.
   With it in place of [None] the field holds a string unboxed, with no
   [Some] per value. *)
let unrendered = String.make 1 '?'

(* Tcl's default float formatting is %.12g (tcl_precision 12); %g's six
   significant digits lose bits, so [expr 1.0/3] would not round-trip
   through its string rep.  Integer-valued floats keep the trailing
   ".0" so they stay floats when re-parsed.  If 12 digits don't
   round-trip (rare), fall back to 17, which always does. *)
let float_to_string f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else
    let s = Printf.sprintf "%.12g" f in
    match float_of_string_opt s with
    | Some g when g = f -> s
    | _ -> Printf.sprintf "%.17g" f

let of_string s = { s; n = Nmaybe }

(* Value-semantics duplicate: the reps are immutable, so sharing them is
   safe; only the containing record must be fresh (a bound variable cell
   is mutated in place by set/incr). *)
let copy t = { s = t.s; n = t.n }
let of_int i = { s = unrendered; n = Nint i }
let of_float f = { s = unrendered; n = Ndbl f }

let to_string t =
  if t.s != unrendered then t.s
  else
    let s =
      match t.n with
      | Nint i -> string_of_int i
      | Ndbl f -> float_to_string f
      | Nnone | Nmaybe -> "" (* unreachable: unrendered implies numeric *)
    in
    t.s <- s;
    s

(* Characters the quick test below leaves to the full parse:
   float_of_string drops every '_' before strtod sees the rest, and strtod
   skips a leading vertical tab (String.trim keeps it), so "_1" and
   "\0111.5" are floats; other bytes outside printable ASCII are left
   alone too.  Past an unsure character the test answers yes, as
   positions no longer line up with what the parser sees. *)
let unsure c = c = '_' || c < '!' || c > '~'

(* Whether [s] from [i] spells [w] from [k] on, in either case. *)
let rec spells s i w k =
  k = String.length w
  || i < String.length s
     && (unsure s.[i]
        || (Char.lowercase_ascii s.[i] = w.[k] && spells s (i + 1) w (k + 1)))

(* Whether a mantissa can start at [i]: a digit, '.' and a digit, or
   "inf" or "nan" in any case. *)
let rec mantissa_at s i ~after_dot =
  i < String.length s
  &&
  match s.[i] with
  | '0' .. '9' -> true
  | '.' when not after_dot -> mantissa_at s (i + 1) ~after_dot:true
  | ('i' | 'I') when not after_dot -> spells s (i + 1) "inf" 1
  | ('n' | 'N') when not after_dot -> spells s (i + 1) "nan" 1
  | c -> unsure c

(* Whether a trimmed, non-empty string can start a number for
   int_of_string or float_of_string.  Both take an optional sign and then
   a digit; float_of_string also takes ".5", "inf" and "nan" in any case.
   False means both parses would fail. *)
let may_start_number s =
  match s.[0] with
  | '+' | '-' -> mantissa_at s 1 ~after_dot:false
  | _ -> mantissa_at s 0 ~after_dot:false

(* Trim, try int, then float; Expr.number_of_string is this.  Words that
   cannot start a number ("create", ".c", "-fill") are turned away before
   either parse, as each failed parse raises and catches an exception. *)
let parse_num s =
  let s' = String.trim s in
  if s' = "" || not (may_start_number s') then Nnone
  else
    match int_of_string_opt s' with
    | Some i -> Nint i
    | None -> (
      match float_of_string_opt s' with
      | Some f -> Ndbl f
      | None -> Nnone)

let num t =
  match t.n with
  | Nmaybe ->
    let n = parse_num (to_string t) in
    t.n <- n;
    n
  | n -> n

let set_string t s =
  t.s <- s;
  t.n <- Nmaybe

let set_int t i =
  t.s <- unrendered;
  t.n <- Nint i
