(** Interned atoms: the X server's global string table. Property names,
    types and selection names are atoms. *)

type t = int

type table

val table : unit -> table
(** A fresh table with the predefined atoms already interned. *)

val intern : table -> string -> t
(** Get (or create) the atom for a name — [XInternAtom]. *)

val name : table -> t -> string option
(** Reverse lookup — [XGetAtomName]. *)

(** Predefined atoms (a subset of the X11 list plus the ones Tk uses). *)

val primary : t
val string : t
val wm_name : t
