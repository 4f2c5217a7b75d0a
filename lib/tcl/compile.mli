(** Parse-once compilation of Tcl scripts.

    {!compile} tokenizes a script string exactly once into a program the
    interpreter can execute repeatedly without re-scanning the text: a
    sequence of commands, each a list of word templates (static text,
    variable references, and nested command substitutions as compiled
    sub-programs).

    Compilation is purely syntactic: it reads no variables, runs no
    commands, and consults no command table, so a compiled program never
    goes stale and may be cached keyed by the script string alone.
    Executing it (see [Interp]) is byte-identical to the reference
    character-at-a-time evaluator — including error messages, errorInfo
    traces, and the order of substitution side effects.  In particular a
    syntax error does not fail compilation: the reference evaluator only
    reports it when execution reaches it, so it is embedded as a
    {!word.W_fail} marker that replays the preceding substitutions and
    then raises the parser's message. *)

type part =
  | Lit of string  (** static text, backslash sequences already applied *)
  | Var of string  (** [$name] / [${name}] *)
  | Var_idx of string * part list
      (** [$base(index)] with a substituted index *)
  | Cmd of program  (** [\[script\]] command substitution *)

and word =
  | W_lit of string  (** fully static word *)
  | W_parts of part list
  | W_fail of part list * string
      (** run the parts for their side effects, then fail *)

and command = {
  words : word list;
  pos : int;  (** offset of the command's first word within the source *)
  stop : int;
      (** offset just past the command's text, its terminator included:
          the errorInfo trace quotes the source's [\[pos, stop)] *)
  wpos : int list;  (** offset of each word's start, parallel to [words] *)
}

and program = command list

val fold : ('a -> command -> 'a) -> 'a -> string -> 'a
(** [fold f init src] scans [src] once and hands each top-level command
    to [f] as soon as it is compiled, in source order: a consumer that
    keeps only what it makes of each command never holds the compiled
    form of the whole script. Never raises: structural errors are
    embedded as [W_fail] words at the position execution would discover
    them, and the scan stops after the command that holds one. *)

val compile : string -> program
(** Compile a whole script: {!fold} building the list of its commands. *)
