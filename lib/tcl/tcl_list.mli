(** Tcl lists: strings whose elements are separated by whitespace, with
    braces, double quotes and backslashes providing grouping and quoting.

    Every Tcl value is a string; these functions convert between the string
    form of a list and its elements, preserving the invariant that
    [parse (format l) = Ok l] for any element list [l]. *)

val parse : string -> (string list, string) result
(** Split a string into list elements. Errors on unbalanced braces or
    unmatched quotes, mirroring Tcl's "unmatched open brace in list". *)

val parse_exn : string -> string list
(** Like {!parse} but raises [Failure]. *)

val quote_element : string -> string
(** Quote a single element so it can be embedded in a list string. Uses the
    bare form when possible, brace-quoting for strings containing special
    characters, and backslash-quoting when braces are unbalanced. *)

val format : string list -> string
(** Build the string form of a list from its elements. *)

val parse_index : len:int -> string -> (int, string) result
(** Parse a list index: an integer, ["end"], or ["end-N"] (N a plain
    non-negative integer) relative to a list of [len] elements.
    Malformed indices — including ["end-"] and ["end--1"] — yield
    [Error "bad index ..."]. The result may be out of range; callers
    clamp or reject according to each command's semantics. *)
