(* Register/slot bytecode for the Tcl compile layer.

   [lower] translates each command of a script, as {!Compile.fold}
   hands it over, into an instruction with resolved variable
   references, so no script's whole compiled form is ever live:
   procedure locals become slot indices into the frame's cell array,
   other names carry a one-entry inline cache validated by the owning
   frame's generation counter.
   The structural commands (set, incr, expr, if, while, for, foreach,
   return, break, continue) are recognized *syntactically* — literal
   command name at the exact arity, braced bodies, parseable
   conditions — and lowered to dedicated opcodes; everything else (and
   every irregular form) stays an [Ivk] that substitutes its words and
   goes through ordinary command dispatch.

   Lowering never consults the command table, so the result can be
   cached like compiled programs; whether the inlined opcodes may
   actually bypass dispatch is the *executor's* decision (the
   interpreter tracks whether the ten structural builtins are still
   canonical, and otherwise dispatches the opcode's command like an
   [Ivk]).  Multi-part words lower too, so the VM is the one compiled
   tier: nothing in a lowered program falls back to interpreting
   [Compile] words.

   Lowered code points into its source instead of copying from it: a
   [code] holds the string it was lowered from once, and an instruction
   only its command's {!span} in that string.  The command's text is cut
   out when an error trace or a guard refusal quotes it, and an opcode's
   first deopt in a code compiles that text again for the command's words
   and keeps them on the code (Tcl 8 likewise recompiles bytecode once
   when a compiled builtin is redefined).  Neither is on the path a
   running program takes: the text is read only when a command fails,
   and a deopt happens only after a structural builtin is redefined.
   The executor lives in {!Interp}; the types are parametric over the
   frame representation ['f] to keep this module free of interpreter
   internals. *)

type 'f cache = ('f * int * Tval.t) option ref
(** One-entry inline cache for a by-name variable reference: the frame
    it resolved in, that frame's generation at resolution time, and the
    value cell. Stale as soon as the generation moves. *)

type 'f vref =
  | Rslot of int * string  (** procedure local: slot index + name *)
  | Rname of string * 'f cache  (** by-name with inline cache *)

(* A command's offset and length in its code's source, packed into one
   immediate int (the offset above bit 31, the length below), so an
   instruction spends one word on where its command is. *)
type span = int

let span_bits = 31

let span_mask = (1 lsl span_bits) - 1

let text src span = String.sub src (span lsr span_bits) (span land span_mask)

type 'f code = {
  insns : 'f insn array;
  src : string;
      (** the source the instructions' spans point into: the script
          text (a cache key), a procedure body or a braced body; a
          bracketed script shares its enclosing code's *)
  mutable deopted : (span * string option list) list;
      (** the words of each command here that has deopted, compiled
          again from its text at its first deopt (see {!deopt_words}) *)
}

and 'f insn =
  | Ivk of { vwords : 'f vword array; span : span }
      (** substitute the words, dispatch normally *)
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
      (** literal word as a shared dual-ported value: its numeric/list
          reps, parsed once at first use, persist across executions.
          One lowering makes one per distinct literal string *)
  | Wvar of 'f vref
  | Wvcmd of 'f code  (** a whole-word [\[...\]] substitution *)
  | Wexpr of { e : 'f vexpr; code : 'f code; span : span }
      (** a whole-word [\[expr ...\]] whose script is a single canonical
          expr command, at [span] in [code]'s source: the executor may
          evaluate [e] directly (typed, no string round-trip), falling
          back to [code] on deopt *)
  | Wcat of 'f wpart list  (** multi-part word: concatenated parts *)
  | Wfail of 'f wpart list * string
      (** syntax error mid-word: run the parts for their side effects,
          then fail with the parser's message *)

(* The parts of a multi-part word, mirroring Compile.part with variables
   resolved and bracketed scripts lowered. *)
and 'f wpart =
  | Plit of string
  | Pvar of 'f vref
  | Pidx of string * 'f wpart list  (** [$base(index)], index substituted *)
  | Pcmd of 'f code

and 'f qpart = Ql of string | Qv of string | Qc of 'f code

(* Typed expression IR, mirroring Expr.ast one constructor for one so
   evaluation can reuse Expr's apply functions byte-identically. *)
and 'f vexpr =
  | Xconst of Expr.value
  | Xvar of 'f vref
  | Xcmd of 'f code
  | Xquoted of 'f qpart list
  | Xunop of string * 'f vexpr
  | Xbinop of string * 'f vexpr * 'f vexpr
  | Xternary of 'f vexpr * 'f vexpr * 'f vexpr
  | Xfunc of string * 'f vexpr list

(* ------------------------------------------------------------------ *)
(* Lowering *)

type 'f lstate = {
  on_pass : unit -> unit;
      (* called once per parse pass (the script, each braced body and
         each bracketed script inside an expression), so the pass shows
         up in tcl.compile.* like any other compilation *)
  alloc : bool;  (* procedure context: new names may claim slots *)
  mutable names : string list;  (* allocated slot names, reversed *)
  mutable count : int;
  lits : (string, 'f vword) Hashtbl.t;
      (* one [Wlit] per distinct literal string, shared by every word of
         this lowering that spells it (Tcl's literal table): a literal
         value is never written, only its rep caches are filled, and a
         word bound into a variable is a copy *)
}

(* Slots are scanned linearly by name on the slow path; keep the table
   small enough that the scan stays cheap. *)
let max_slots = 32

(* The slot already given to [name]: [names] lists slots [count - 1]
   down to 0. *)
let find_slot st name =
  let rec go i = function
    | [] -> None
    | n :: rest -> if String.equal n name then Some i else go (i - 1) rest
  in
  go (st.count - 1) st.names

let add_slot st name =
  let i = st.count in
  st.count <- i + 1;
  st.names <- name :: st.names;
  i

let ref_of st name =
  (* Array references (and any name that could be one) resolve by name:
     arrays always live in the frame hashtable. *)
  if String.contains name '(' then Rname (name, ref None)
  else
    match find_slot st name with
    | Some i -> Rslot (i, name)
    | None ->
      if st.alloc && st.count < max_slots then Rslot (add_slot st name, name)
      else Rname (name, ref None)

let lit = function Compile.W_lit s -> Some s | _ -> None

let all_lits words =
  let rec go acc = function
    | [] -> Some (List.rev acc)
    | Compile.W_lit s :: rest -> go (s :: acc) rest
    | _ -> None
  in
  go [] words

let span_of (c : Compile.command) = (c.pos lsl span_bits) lor (c.stop - c.pos)

let code_of src insns = { insns; src; deopted = [] }

(* The array of a list built in reverse. *)
let array_of_rev = function
  | [] -> [||]
  | last :: _ as rev ->
    let n = List.length rev in
    let a = Array.make n last in
    List.iteri (fun i x -> a.(n - 1 - i) <- x) rev;
    a

(* [src] is the source the words' command was compiled from: a bracketed
   script inside a word is lowered into code that shares it. *)
let rec lower_word st src (w : Compile.word) =
  match w with
  | Compile.W_lit s -> (
    match Hashtbl.find_opt st.lits s with
    | Some w -> w
    | None ->
      (* Prime the numeric rep now: every copy bound from this literal
         then carries it, so "fib 28" never re-parses the 28. *)
      let tv = Tval.of_string s in
      ignore (Tval.num tv);
      let w = Wlit tv in
      Hashtbl.add st.lits s w;
      w)
  | Compile.W_parts [ Compile.Var name ] -> Wvar (ref_of st name)
  | Compile.W_parts [ Compile.Cmd prog ] -> (
    let code = lower_prog st src prog in
    match code.insns with
    | [| Iexpr { e; span } |] -> Wexpr { e; code; span }
    | _ -> Wvcmd code)
  | Compile.W_parts parts -> Wcat (List.map (lower_part st src) parts)
  | Compile.W_fail (parts, msg) ->
    Wfail (List.map (lower_part st src) parts, msg)

and lower_part st src (p : Compile.part) =
  match p with
  | Compile.Lit s -> Plit s
  | Compile.Var name -> Pvar (ref_of st name)
  | Compile.Var_idx (base, idx) ->
    Pidx (base, List.map (lower_part st src) idx)
  | Compile.Cmd prog -> Pcmd (lower_prog st src prog)

(* A bracketed script inside a word: compiled with its command. *)
and lower_prog st src (prog : Compile.program) =
  code_of src (Array.of_list (List.map (lower_command st src) prog))

(* A script, body or expression script of its own: each command is
   lowered as soon as it is compiled and then dropped, so the compiled
   form of the whole source is never live. *)
and lower_source st src =
  st.on_pass ();
  let rev = Compile.fold (fun acc c -> lower_command st src c :: acc) [] src in
  code_of src (array_of_rev rev)

and lower_command st src (c : Compile.command) =
  match c.words with
  | Compile.W_lit name :: rest -> lower_named st src c name rest
  | _ -> lower_ivk st src c

and lower_ivk st src (c : Compile.command) =
  Ivk
    {
      vwords = Array.of_list (List.map (lower_word st src) c.words);
      span = span_of c;
    }

and lower_named st src c name rest =
  let ivk () = lower_ivk st src c in
  let span = span_of c in
  match (name, rest) with
  | "set", [ n ] -> (
    match lit n with
    | Some n -> Iset { dst = ref_of st n; value = None; span }
    | None -> ivk ())
  | "set", [ n; v ] -> (
    match lit n with
    | Some n ->
      Iset { dst = ref_of st n; value = Some (lower_word st src v); span }
    | None -> ivk ())
  | "incr", [ n ] -> (
    match lit n with
    | Some n -> Iincr { dst = ref_of st n; by = Aconst 1; span }
    | None -> ivk ())
  | "incr", [ n; b ] -> (
    match lit n with
    | None -> ivk ()
    | Some n ->
      let by =
        match lit b with
        | Some s -> (
          (* A malformed literal increment keeps the word form so the
             executor reports the runtime parse error verbatim. *)
          match int_of_string_opt (String.trim s) with
          | Some i -> Aconst i
          | None -> Aword (lower_word st src b))
        | None -> Aword (lower_word st src b)
      in
      Iincr { dst = ref_of st n; by; span })
  | "expr", _ :: _ -> (
    match all_lits rest with
    | Some args -> (
      match Expr.parse (String.concat " " args) with
      | Stdlib.Ok ast -> Iexpr { e = lower_ast st ast; span }
      | Stdlib.Error _ -> ivk ())
    | None -> ivk ())
  | "if", _ -> (
    match all_lits rest with
    | Some ws -> lower_if st span ws ivk
    | None -> ivk ())
  | "while", [ cond; body ] -> (
    match (lit cond, lit body) with
    | Some cond, Some body -> (
      match Expr.parse cond with
      | Stdlib.Ok ast ->
        Iwhile { cond = lower_ast st ast; body = lower_source st body; span }
      | Stdlib.Error _ -> ivk ())
    | _ -> ivk ())
  | "for", [ init; cond; next; body ] -> (
    match (lit init, lit cond, lit next, lit body) with
    | Some init, Some cond, Some next, Some body -> (
      match Expr.parse cond with
      | Stdlib.Ok ast ->
        Ifor
          {
            init = lower_source st init;
            cond = lower_ast st ast;
            next = lower_source st next;
            body = lower_source st body;
            span;
          }
      | Stdlib.Error _ -> ivk ())
    | _ -> ivk ())
  | "foreach", [ var; lst; body ] -> (
    match (lit var, lit body) with
    | Some var, Some body -> (
      let items =
        match lit lst with
        | Some s -> (
          (* Pre-parse literal lists; malformed ones keep the reference
             path so the runtime error and trace match exactly. *)
          match Tcl_list.parse s with
          | Stdlib.Ok l -> Some (Lconst l)
          | Stdlib.Error _ -> None)
        | None -> Some (Lword (lower_word st src lst))
      in
      match items with
      | Some items ->
        Iforeach
          { dst = ref_of st var; items; body = lower_source st body; span }
      | None -> ivk ())
    | _ -> ivk ())
  | "return", [] -> Ireturn { value = None; span }
  | "return", [ v ] -> Ireturn { value = Some (lower_word st src v); span }
  | "break", [] -> Ibreak { span }
  | "continue", [] -> Icontinue { span }
  | _ -> ivk ()

(* Mirror cmd_if's clause/tail grammar statically; any irregularity
   (missing body, unparseable condition, trailing words) falls back to
   the dispatched command, which reproduces the runtime error. *)
and lower_if st span ws ivk =
  let rec clause ws acc =
    match ws with
    | cond :: rest -> (
      let rest = match rest with "then" :: r -> r | r -> r in
      match rest with
      | body :: rest -> (
        match Expr.parse cond with
        | Stdlib.Error _ -> None
        | Stdlib.Ok ast ->
          tail ((lower_ast st ast, lower_source st body) :: acc) rest)
      | [] -> None)
    | [] -> None
  and tail acc = function
    | [] -> Some (List.rev acc, None)
    | "elseif" :: rest -> clause rest acc
    | "else" :: [ body ] -> Some (List.rev acc, Some (lower_source st body))
    | [ body ] -> Some (List.rev acc, Some (lower_source st body))
    | _ -> None
  in
  match clause ws [] with
  | Some (arms, els) -> Iif { arms; els; span }
  | None -> ivk ()

and lower_ast st (a : Expr.ast) =
  match a with
  | Expr.A_const v -> Xconst v
  | Expr.A_var name -> Xvar (ref_of st name)
  | Expr.A_cmd script -> Xcmd (lower_source st script)
  | Expr.A_quoted parts ->
    Xquoted
      (List.map
         (function
           | Expr.Q_lit s -> Ql s
           | Expr.Q_var n -> Qv n
           | Expr.Q_cmd s -> Qc (lower_source st s))
         parts)
  | Expr.A_unop (op, x) -> Xunop (op, lower_ast st x)
  | Expr.A_binop (op, x, y) -> Xbinop (op, lower_ast st x, lower_ast st y)
  | Expr.A_ternary (c, a, b) ->
    Xternary (lower_ast st c, lower_ast st a, lower_ast st b)
  | Expr.A_func (name, args) -> Xfunc (name, List.map (lower_ast st) args)

(* The literal table lives as long as one lowering. *)
let lstate ~on_pass ~alloc =
  { on_pass; alloc; names = []; count = 0; lits = Hashtbl.create 16 }

(* Every span fits when the outermost source does: the sources nested in
   it (braced bodies, expression scripts) are no longer than their
   command.  Tcl 8 caps a value at the same 2^31 - 1 bytes. *)
let check_length src =
  if String.length src > span_mask then
    invalid_arg "Vm.lower: source longer than 2^31 - 1 bytes"

let lower ~on_pass src =
  check_length src;
  lower_source (lstate ~on_pass ~alloc:false) src

let lower_proc ~on_pass ~formals body =
  check_length body;
  let st = lstate ~on_pass ~alloc:true in
  List.iter
    (fun f ->
      if
        (not (String.contains f '('))
        && find_slot st f = None
        && st.count < max_slots
      then ignore (add_slot st f))
    formals;
  let code = lower_source st body in
  (code, Array.of_list (List.rev st.names))

let deopt_words ~compile code span =
  match List.assoc_opt span code.deopted with
  | Some ws -> ws
  | None ->
    (* The text is one whole command, so it compiles to that command. *)
    let cmd = List.hd (compile (text code.src span)) in
    let ws =
      List.map
        (function Compile.W_lit s -> Some s | _ -> None)
        cmd.Compile.words
    in
    code.deopted <- (span, ws) :: code.deopted;
    ws
