(** Character classification and backslash processing shared by the Tcl
    parser, the expression evaluator and the list parser. *)

val is_space : char -> bool
(** Horizontal whitespace (space, tab, CR, FF, VT) — separates words. *)

val is_var_char : char -> bool
(** Characters allowed in a variable name after [$]: letters, digits, [_]. *)

val is_digit : char -> bool

val backslash_subst : string -> int -> string * int
(** [backslash_subst s i] interprets the backslash sequence starting at the
    backslash [s.[i]]. Returns the replacement text and the index of the
    first character after the sequence. Handles the standard Tcl escapes
    ([\n], [\t], [\r], [\b], [\f], [\v], [\e]), backslash-newline (which
    becomes a single space, also consuming leading whitespace of the next
    line), [\xHH] hexadecimal and [\ooo] octal escapes; any other character
    is passed through unchanged. *)

val skip_separators : string -> int -> int -> int
(** [skip_separators src n pos] skips whitespace, newlines and semicolons —
    everything that may separate two commands in a script. *)

val skip_comment : string -> int -> int -> int
(** [skip_comment src n pos] with [src.[pos] = '#'] skips to just past the
    first unescaped newline (or to [n]). *)

val braced_content : string -> int -> int -> string
(** [braced_content src open_idx close_idx] is the literal content of a
    braced word, with backslash-newline collapsed to a space as in Tcl. *)

val word_end_ok : string -> int -> int -> bracket:bool -> bool
(** Whether position [pos] may legally follow a braced or quoted word:
    end of script, whitespace, newline, semicolon — or [']'] when parsing
    inside a command substitution. *)

val find_matching_brace : string -> int -> int option
(** [find_matching_brace s i] with [s.[i] = '{'] returns the index of the
    matching ['}'], honouring nested braces and backslash escapes. *)
