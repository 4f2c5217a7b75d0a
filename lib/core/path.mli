(** Window path names (paper §3.1): ["."] is the application's main window
    and [".a.b.c"] names window [c] inside [b] inside [a] inside the main
    window. *)

val is_valid : string -> bool
(** A syntactically valid path: ["."] or dot-separated non-empty components
    that don't contain dots or start with an upper-case letter (upper-case
    leading letters are reserved for classes in the option database). *)

val parent : string -> string option
(** [".a.b" -> Some ".a"], [".a" -> Some "."], ["." -> None]. *)

val basename : string -> string
(** The last component: [".a.b" -> "b"]; ["." -> "."]. *)

val join : string -> string -> string
(** [join "." "a" = ".a"], [join ".a" "b" = ".a.b"]. *)

val is_ancestor : ancestor:string -> string -> bool
(** Is [ancestor] a proper ancestor of the path (or equal to it)? Used for
    recursive destroy. *)
