(** A regular-expression engine for the [regexp] and [regsub] commands
    (present in Tcl since the 1989 distributions).

    Supported syntax — the egrep subset Tcl 6 documented:
    [.], [*], [+], [?], [^], [$], character classes [\[a-z\]] (with ranges
    and [^] negation), grouping [( )], alternation [|], and backslash to
    quote a metacharacter. Groups capture for use in [regsub]'s
    [\1]..[\9] and [regexp]'s match variables. *)

type t

val compile : nocase:bool -> string -> (t, string) result
(** Compile a pattern; errors mirror Tcl's (unmatched parenthesis, bad
    bracket expression, dangling repetition).  With [nocase], pattern
    and subjects are matched in lower case; the offsets {!find} returns
    and the text {!replace} copies are the original subject's. *)

val find : t -> string -> (int * int) array option
(** [find re s] searches for the leftmost match. On success returns an
    array of [(start, stop)] byte offsets (end exclusive): slot 0 is the
    whole match, slots 1.. are capture groups ([(-1, -1)] for groups that
    did not participate). *)

val matches : t -> string -> bool

val replace : t -> string -> template:string -> all:bool -> string * int
(** [replace re s ~template ~all] implements [regsub]: replaces the first
    (or every, with [all]) match by [template], in which [&] and [\0]
    denote the whole match and [\1]..[\9] the capture groups. Each
    search after a match continues in the same subject, so [^] anchors
    only at its start. Returns the new string and the number of
    substitutions made. *)
