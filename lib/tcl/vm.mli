(** Register/slot bytecode lowered from {!Compile} programs — the
    interpreter's one compiled execution tier.

    {!lower} (whole scripts) and {!lower_proc} (procedure bodies, with
    formal parameters pre-allocated to local slots) translate a
    compiled program into an instruction array with resolved variable
    references and typed expressions. Lowering is purely syntactic —
    it reads no variables and consults no command table — so lowered
    code can be cached keyed by its source text and never goes
    stale; whether the inlined structural opcodes may bypass command
    dispatch is decided at execution time by the interpreter. When
    [set]/[if]/[while]/... have been redefined, renamed or hidden, an
    inlined opcode deopts: it dispatches its command like an [Ivk].

    Lowered code points into its source rather than copying from it.
    Each {!code} holds the string it was lowered from, and each
    instruction only the {!span} of its command in that string. The
    command's text is cut out of the source when it is needed: when an
    error trace or a guard refusal quotes it, and when an opcode first
    deopts in a code, which compiles it again to get the command's words
    (literals, plus the value of the one word the opcode substitutes
    itself) and keeps them on the code.

    All types are parametric over the frame representation ['f]: the
    executor lives in {!Interp}, which instantiates ['f] with its
    frame type. *)

type 'f cache = ('f * int * Tval.t) option ref
(** One-entry inline cache: frame, frame generation, value cell. *)

type 'f vref =
  | Rslot of int * string  (** procedure local: slot index + name *)
  | Rname of string * 'f cache  (** by-name lookup with inline cache *)

type span = private int
(** Where a command's text lies in its code's source: its offset and
    length, packed into one immediate int. *)

val text : string -> span -> string
(** [text src span] cuts the command's text, terminator included, out
    of [src]: what the errorInfo trace quotes and what a deopt compiles
    again. *)

type 'f code = {
  insns : 'f insn array;
  src : string;
      (** the source every instruction's span points into: for a
          top-level script the script itself (the cache's key), for a
          procedure its body, for a loop or branch its braced body; a
          bracketed script shares its enclosing code's *)
  mutable deopted : (span * string option list) list;
      (** what {!deopt_words} has compiled for this code: [[]] until one
          of its opcodes deopts *)
}

and 'f insn =
  | Ivk of { vwords : 'f vword array; span : span }
      (** generic invoke: substitute the words, dispatch the command *)
  | Iset of { dst : 'f vref; value : 'f vword option; span : span }
  | Iincr of { dst : 'f vref; by : 'f amount; span : span }
  | Iexpr of { e : 'f vexpr; span : span }
  | Iif of {
      arms : ('f vexpr * 'f code) list;
      els : 'f code option;
      span : span;
    }
  | Iwhile of { cond : 'f vexpr; body : 'f code; span : span }
  | Ifor of {
      init : 'f code;
      cond : 'f vexpr;
      next : 'f code;
      body : 'f code;
      span : span;
    }
  | Iforeach of {
      dst : 'f vref;
      items : 'f items;
      body : 'f code;
      span : span;
    }
  | Ireturn of { value : 'f vword option; span : span }
  | Ibreak of { span : span }
  | Icontinue of { span : span }

and 'f amount = Aconst of int | Aword of 'f vword

and 'f items = Lconst of string list | Lword of 'f vword

and 'f vword =
  | Wlit of Tval.t
      (** literal word as a shared dual-ported value (numeric rep
          parsed once, persists across executions). One lowering makes
          one [Wlit] per distinct literal string and every word that
          spells it shares it: the executor never writes a literal
          value, only fills its rep caches, and binds a copy *)
  | Wvar of 'f vref
  | Wvcmd of 'f code
  | Wexpr of { e : 'f vexpr; code : 'f code; span : span }
      (** whole-word [\[expr ...\]] with a single canonical expr
          command, at [span] in [code]'s source: evaluated typed,
          deopting to [code] *)
  | Wcat of 'f wpart list  (** multi-part word: concatenated parts *)
  | Wfail of 'f wpart list * string
      (** syntax error mid-word: run the parts, then fail with the
          parser's message *)

and 'f wpart =
  | Plit of string
  | Pvar of 'f vref  (** slot or by-name variable *)
  | Pidx of string * 'f wpart list  (** [$base(index)], index substituted *)
  | Pcmd of 'f code  (** [\[script\]] substitution *)

and 'f qpart = Ql of string | Qv of string | Qc of 'f code

and 'f vexpr =
  | Xconst of Expr.value
  | Xvar of 'f vref
  | Xcmd of 'f code
  | Xquoted of 'f qpart list
  | Xunop of string * 'f vexpr
  | Xbinop of string * 'f vexpr * 'f vexpr
  | Xternary of 'f vexpr * 'f vexpr * 'f vexpr
  | Xfunc of string * 'f vexpr list

val lower : on_pass:(unit -> unit) -> string -> 'f code
(** Compile and lower a top-level script; the code's [src] is the
    script. All variable references resolve by name (with inline
    caches). Each command is lowered as soon as
    {!Compile.fold} has compiled it, so the compiled form of the whole
    script is never live. [on_pass] is called once per parse pass: for
    the script, and for each braced loop/condition body and each
    bracketed script inside an expression. Raises [Invalid_argument]
    for a script of 2{^31} bytes or more, whose spans would not fit. *)

val lower_proc :
  on_pass:(unit -> unit) ->
  formals:string list ->
  string ->
  'f code * string array
(** Compile and lower a procedure body, as {!lower}, with the names of
    its frame's local slots. Formals claim the first slots, and literal
    [set]/[incr]/[foreach] targets (and [$x] reads, including those
    inside multi-part words) claim further ones as they appear, up to a
    small bound; the executor builds the call frame from the names. *)

val deopt_words :
  compile:(string -> Compile.program) ->
  'f code ->
  span ->
  string option list
(** The words of the command at [span] in the code's source, for an
    opcode that deopts: [Some] a literal word, [None] the one word the
    opcode substitutes itself. The command's text is compiled with
    [compile] at its first deopt in this code and kept on the code, so
    an opcode that deopts on every run compiles once. *)
