(** Abstract interpretation of Tcl expressions over a value-kind
    lattice, used by the whole-program analysis tier ({!Lint}).

    The domain is [Vbot < Vconst < {Vint, Vfloat, Vlist} < Vnum < Vtop]
    (Tcl booleans are integers, so [Vint] covers them; anything else is
    [Vtop]).  A fully constant expression folds to its exact value
    through {!Expr}'s own apply functions, so a raised {!Guaranteed}
    carries the byte-identical message the runtime would produce
    (divide by zero, float into an integer operator, non-numeric
    operand, non-boolean condition).  Short-circuiting mirrors the
    runtime: operands the runtime would skip are not traversed, and
    operands that only {e may} run are evaluated protected (failures
    swallowed, reads reported softly). *)

type v = Vbot | Vconst of string | Vint | Vfloat | Vnum | Vlist | Vtop

exception Guaranteed of string
(** The expression always fails at run time with this message. *)

val join : v -> v -> v
(** Least upper bound. *)

val truthy : v -> bool option
(** The boolean a condition of this kind always takes, if known.
    @raise Guaranteed when a constant is not a valid condition. *)

(** Callbacks into the walker: variable kinds, use recording ([soft]
    inside maybe-skipped branches), nested [\[command\]] substitutions
    (the walker lints their script; the value is unknowable). *)
type hooks = {
  lookup : string -> v;
  note_use : soft:bool -> string -> unit;
  eval_cmd : soft:bool -> string -> unit;
}

val eval_ast : hooks -> Expr.ast -> v
(** Abstractly evaluate a parsed expression.
    @raise Guaranteed on a proven runtime failure. *)

val eval_quiet : (string -> v) -> Expr.ast -> v
(** {!eval_ast} with silent hooks and failures widened to [Vtop]. *)
