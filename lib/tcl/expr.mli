(** Tcl arithmetic expressions, as used by the [expr] command and the
    conditions of [if], [while] and [for].

    The evaluator performs its own [$]-variable and [\[...\]]-command
    substitution (so braced conditions like [{$i < 10}] work), delegating to
    the callbacks in {!env}. Operands are integers, floats or strings, with
    Tcl's coercion rules: an operator computes numerically when both
    operands parse as numbers, and string comparison otherwise (ordering and
    (in)equality only). *)

type value = Int of int | Float of float | Str of string

type env = {
  get_var : string -> string;
      (** Resolve [$name] (or [$name(index)]); raise {!Error} if unset. *)
  eval_cmd : string -> string;
      (** Evaluate a bracketed command substitution; raise {!Error} on
          script error. *)
}

exception Error of string

val eval : env -> string -> value
(** Evaluate an expression. @raise Error on syntax or type errors. *)

val to_string : value -> string

val truthy : value -> bool
(** Interpret a value as a condition (numbers against zero, the words
    true/false/yes/no/on/off). @raise Error otherwise. *)

val number_of_string : string -> value option
(** Parse a string as [Int] or [Float] if possible ([None] otherwise),
    by {!Tval.parse_num}. Exposed for the [lsort -integer] style
    commands. *)

(** {2 Evaluation primitives}

    The building blocks {!eval} is made of, exposed so the bytecode
    VM ({!Vm}) can evaluate its typed expression IR with exactly the
    same coercions, short-circuiting and error messages. *)

val operand_value : string -> value
(** A substituted operand: numeric if it parses as a number, else [Str]. *)

val bool_val : bool -> value
(** [Int 1] / [Int 0], the result form of comparisons and [&&]/[||]. *)

val apply_binary : string -> value -> value -> value
(** Apply a (non-short-circuit) binary operator. @raise Error on type
    errors, divide by zero, or unknown operators. *)

val apply_unary : string -> value -> value

val apply_function : string -> value list -> value
(** Apply a math function ([sin], [abs], [pow], ...) to its argument
    values. @raise Error on arity or type errors. *)

(** {2 Parsed-AST entry point}

    {!parse} tokenizes an expression once, without performing any
    substitution; the bytecode VM ({!Vm}) lowers the result and the
    static analyzer ({!Absint}) interprets it. An evaluator of the AST
    must match {!eval} on the same text: same values, same errors, same
    substitution order and short-circuiting. When [parse] fails, fall
    back to {!eval} — the interleaved reference evaluator may run
    substitutions (with side effects) before reporting the same syntax
    error, and only it reproduces that faithfully. *)

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

val parse : string -> (ast, string) result
(** Parse without evaluating. [Error msg] carries the syntax error the
    reference evaluator would (eventually) raise. *)
