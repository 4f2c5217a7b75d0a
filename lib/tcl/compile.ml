(* Parse-once compilation of Tcl scripts.

   The interpreter's reference evaluator (Interp.eval_in) re-scans the
   script text character by character on every execution, interleaving
   parsing with substitution.  This module performs the *syntactic* half
   of that work exactly once, producing a program the interpreter can
   execute repeatedly: a sequence of commands, each a list of word
   templates made of static text, variable references and nested
   command-substitution sub-programs.

   Compilation is purely lexical — it never reads variables, never runs
   commands and never depends on the command table — so a compiled
   program is valid for the lifetime of the interpreter and can be
   cached keyed by the script string alone.

   Semantic fidelity is the contract: executing the compiled form must
   be byte-identical to the reference evaluator, including error
   messages, errorInfo traces, break/continue/return propagation out of
   substitutions, and the *order* of side effects.  Two consequences
   shape the representation:

   - The reference evaluator only discovers a syntax error when
     execution reaches it, after every earlier command (and every
     earlier substitution in the same command) has already run.  A
     structural error therefore does not fail compilation; it is
     embedded as a [W_fail] word that first performs the substitutions
     scanned before the error (for their side effects) and then raises
     the same failure.  Compilation of the surrounding program stops at
     that point, exactly as the reference parse aborts there.

   - The errorInfo trace quotes the command's source text verbatim
     (including a trailing semicolon, which [String.trim] preserves), so
     each compiled command records where that text starts and ends; the
     text itself is cut from the source only when an error is traced. *)

type part =
  | Lit of string  (** static text, backslash sequences already applied *)
  | Var of string  (** [$name] / [${name}]: name fixed at compile time *)
  | Var_idx of string * part list
      (** [$base(index)]: the index itself undergoes substitution *)
  | Cmd of program  (** [\[script\]] command substitution, compiled *)

and word =
  | W_lit of string  (** fully static word (braced, or no substitutions) *)
  | W_parts of part list  (** concatenation of substituted parts *)
  | W_fail of part list * string
      (** structural error discovered mid-word: run the parts for their
          side effects, then fail with the parser's message *)

and command = {
  words : word list;  (** empty for a blank command (resets the result) *)
  pos : int;  (** offset of the command's first word within the source *)
  stop : int;
      (** offset just past the command's text: [\[pos, stop)] is what the
          errorInfo trace quotes, terminator included *)
  wpos : int list;  (** offset of each word's start, parallel to [words] *)
}

and program = command list

(* Outcome of scanning one substitution-bearing sequence (the inside of a
   quoted word, a bare word, or an array index). *)
type seq_result =
  | Seq_ok of part list * int  (** parts and the position just after *)
  | Seq_fail of part list * string
      (** structural error: the parts scanned before it still run *)
  | Seq_abort of part list
      (** ends with a [Cmd] whose program contains a failure; reaching it
          at run time aborts via the nested program's own error *)

type var_result =
  | V_ok of part * int
  | V_fail of part list * string
  | V_abort of part list

type word_result =
  | W_done of word * int
  | W_stop of word  (** compilation cannot continue past this word *)

let mk_word = function
  | [] -> W_lit ""
  | [ Lit s ] -> W_lit s
  | parts -> W_parts parts

(* A part accumulator: coalesces adjacent literal text.  [add_run] adds
   the source characters [i, j) without copying them first. *)
let accum src =
  let acc = ref [] in
  let lit = Buffer.create 16 in
  let flush () =
    if Buffer.length lit > 0 then begin
      acc := Lit (Buffer.contents lit) :: !acc;
      Buffer.clear lit
    end
  in
  let add_lit s = Buffer.add_string lit s in
  let add_run i j = if j > i then Buffer.add_substring lit src i (j - i) in
  let add_part = function
    | Lit s -> add_lit s
    | p ->
      flush ();
      acc := p :: !acc
  in
  let all () =
    flush ();
    List.rev !acc
  in
  (add_lit, add_run, add_part, all)

(* '$', '[' and '\\' start a substitution wherever they appear. *)
let is_subst c = c = '$' || c = '[' || c = '\\'

(* End of the run of characters from [pos] that stand for themselves in a
   bare word ([stop_quote] false) or inside a quoted word: the run stops
   at a substitution or at what ends the word. *)
let rec plain_end src n pos ~stop_quote ~bracket =
  if pos >= n then pos
  else
    let c = src.[pos] in
    let ends =
      if stop_quote then c = '"'
      else Chars.is_space c || c = '\n' || c = ';' || (bracket && c = ']')
    in
    if is_subst c || ends then pos
    else plain_end src n (pos + 1) ~stop_quote ~bracket

(* The same for an array index, which ends at ')'. *)
let rec index_end src n pos =
  if pos >= n || is_subst src.[pos] || src.[pos] = ')' then pos
  else index_end src n (pos + 1)

(* A backslash-newline at [i] separates words. *)
let backslash_newline src n i =
  i + 1 < n && src.[i] = '\\' && src.[i + 1] = '\n'

(* Skip word separators; a backslash-newline counts as one. *)
let rec skip_word_separators src n p =
  if p < n && Chars.is_space src.[p] then skip_word_separators src n (p + 1)
  else if backslash_newline src n p then
    skip_word_separators src n (snd (Chars.backslash_subst src p))
  else p

(* Mirrors Interp.substitute_until: scan a bare word or the inside of a
   quoted word, collecting parts instead of substituting.  Each run of
   ordinary characters enters the accumulator as one substring, so a
   literal costs one copy whatever its length. *)
let rec compile_parts src n pos0 ~stop_quote ~bracket =
  let add_lit, add_run, add_part, all = accum src in
  let rec go pos =
    let j = plain_end src n pos ~stop_quote ~bracket in
    add_run pos j;
    if j >= n then
      if stop_quote then Seq_fail (all (), "missing close quote")
      else Seq_ok (all (), j)
    else
      match src.[j] with
      | '"' when stop_quote -> Seq_ok (all (), j + 1)
      | '\\' when (not stop_quote) && backslash_newline src n j ->
        (* Backslash-newline terminates a bare word (word separator). *)
        Seq_ok (all (), j)
      | '\\' ->
        let repl, k = Chars.backslash_subst src j in
        add_lit repl;
        go k
      | '$' -> (
        match compile_variable src n j ~bracket with
        | V_ok (p, k) ->
          add_part p;
          go k
        | V_fail (ps, msg) -> Seq_fail (all () @ ps, msg)
        | V_abort ps -> Seq_abort (all () @ ps))
      | '[' -> (
        let prog, k, failed = compile_block src n (j + 1) in
        add_part (Cmd prog);
        if failed then Seq_abort (all ()) else go k)
      | _ ->
        (* What ends a bare word: a separator, a terminator, or ']'. *)
        Seq_ok (all (), j)
  in
  go pos0

(* Mirrors Interp.substitute_variable. *)
and compile_variable src n pos ~bracket =
  let start = pos + 1 in
  if start < n && src.[start] = '{' then begin
    match String.index_from_opt src start '}' with
    | None -> V_fail ([], "missing close-brace for variable name")
    | Some j -> V_ok (Var (String.sub src (start + 1) (j - start - 1)), j + 1)
  end
  else begin
    let i = ref start in
    while !i < n && Chars.is_var_char src.[!i] do
      incr i
    done;
    if !i = start then
      (* A lone '$' is literal. *)
      V_ok (Lit "$", start)
    else if !i < n && src.[!i] = '(' then begin
      let base = String.sub src start (!i - start) in
      match compile_index src n (!i + 1) ~bracket with
      | Seq_ok (idx, j) -> V_ok (Var_idx (base, idx), j)
      | Seq_fail (idx, msg) ->
        (* The index parts already scanned still run for their side
           effects; their values are discarded when the failure fires, so
           they may be flattened into the word. *)
        V_fail (idx, msg)
      | Seq_abort idx -> V_abort idx
    end
    else V_ok (Var (String.sub src start (!i - start)), !i)
  end

(* Mirrors Interp.substitute_index. *)
and compile_index src n pos0 ~bracket =
  let add_lit, add_run, add_part, all = accum src in
  let rec go pos =
    let j = index_end src n pos in
    add_run pos j;
    if j >= n then Seq_fail (all (), "missing )")
    else
      match src.[j] with
      | ')' -> Seq_ok (all (), j + 1)
      | '\\' ->
        let repl, k = Chars.backslash_subst src j in
        add_lit repl;
        go k
      | '$' -> (
        match compile_variable src n j ~bracket with
        | V_ok (p, k) ->
          add_part p;
          go k
        | V_fail (ps, msg) -> Seq_fail (all () @ ps, msg)
        | V_abort ps -> Seq_abort (all () @ ps))
      | _ (* '[' *) -> (
        let prog, k, failed = compile_block src n (j + 1) in
        add_part (Cmd prog);
        if failed then Seq_abort (all ()) else go k)
  in
  go pos0

(* Mirrors Interp.parse_word. *)
and compile_word src n pos ~bracket =
  if src.[pos] = '{' then begin
    match Chars.find_matching_brace src pos with
    | None -> W_stop (W_fail ([], "missing close-brace"))
    | Some j ->
      if Chars.word_end_ok src n (j + 1) ~bracket then
        W_done (W_lit (Chars.braced_content src pos j), j + 1)
      else
        W_stop
          (W_fail ([], "extra characters after close-brace or close-quote"))
  end
  else if src.[pos] = '"' then begin
    match compile_parts src n (pos + 1) ~stop_quote:true ~bracket with
    | Seq_ok (parts, j) ->
      if Chars.word_end_ok src n j ~bracket then W_done (mk_word parts, j)
      else
        W_stop
          (W_fail (parts, "extra characters after close-brace or close-quote"))
    | Seq_fail (parts, msg) -> W_stop (W_fail (parts, msg))
    | Seq_abort parts -> W_stop (W_parts parts)
  end
  else begin
    let j = plain_end src n pos ~stop_quote:false ~bracket in
    if j >= n || (not (is_subst src.[j])) || backslash_newline src n j
    then
      (* Nothing to substitute: the word is its own source text. *)
      W_done (W_lit (String.sub src pos (j - pos)), j)
    else
      match compile_parts src n pos ~stop_quote:false ~bracket with
      | Seq_ok (parts, j) -> W_done (mk_word parts, j)
      | Seq_fail (parts, msg) -> W_stop (W_fail (parts, msg))
      | Seq_abort parts -> W_stop (W_parts parts)
  end

(* Mirrors Interp.parse_words: one command's words up to its terminator.
   Returns the command, the position after it, and whether compilation of
   the enclosing program must stop here. *)
and compile_command src n pos0 ~bracket =
  let rec words pos acc pacc =
    let p = skip_word_separators src n pos in
    if p >= n || src.[p] = '\n' || src.[p] = ';' || (bracket && src.[p] = ']')
    then
      let next =
        if p < n && (src.[p] = '\n' || src.[p] = ';') then p + 1 else p
      in
      (List.rev acc, List.rev pacc, next, false)
    else
      match compile_word src n p ~bracket with
      | W_done (w, j) -> words j (w :: acc) (p :: pacc)
      | W_stop w -> (List.rev (w :: acc), List.rev (p :: pacc), n, true)
  in
  let ws, wps, next, failed = words pos0 [] [] in
  ({ words = ws; pos = pos0; stop = min next n; wpos = wps }, next, failed)

(* Mirrors Interp.eval_loop's scan over commands: the one scanner.  It
   hands each command to [f] as soon as the command is compiled, so a
   consumer that keeps only what it makes of a command never holds the
   compiled form of more than one. *)
and scan :
      'a. string -> int -> int -> bracket:bool -> ('a -> command -> 'a) ->
      'a -> 'a * int * bool =
 fun src n pos ~bracket f acc ->
  let pos = Chars.skip_separators src n pos in
  if pos >= n then (acc, pos, false)
  else if bracket && src.[pos] = ']' then (acc, pos + 1, false)
  else if src.[pos] = '#' then
    scan src n (Chars.skip_comment src n pos) ~bracket f acc
  else
    let cmd, next, failed = compile_command src n pos ~bracket in
    let acc = f acc cmd in
    if failed then (acc, n, true) else scan src n next ~bracket f acc

(* A bracketed sub-program: commands up to the unmatched ']'. *)
and compile_block src n pos =
  let rev, next, failed =
    scan src n pos ~bracket:true (fun acc c -> c :: acc) []
  in
  (List.rev rev, next, failed)

let fold f init src =
  let acc, _, _ = scan src (String.length src) 0 ~bracket:false f init in
  acc

let compile src = List.rev (fold (fun acc c -> c :: acc) [] src)
