(** Dual-ported Tcl values (Tcl 8.0 "shimmering").

    A value carries its canonical string representation plus a cached
    numeric representation, computed lazily on first read and
    invalidated by any write.  The bytecode VM stores these in
    variable cells so hot loops ([incr i], [expr {$i < $n}]) never
    re-parse — and never even render — the string rep. *)

type num = Nnone | Nmaybe | Nint of int | Ndbl of float

type t
(** A mutable value cell: its string rep, kept unboxed once rendered,
    and its cached numeric rep. *)

val of_string : string -> t
val of_int : int -> t
val of_float : float -> t

val copy : t -> t
(** Fresh cell with the same (immutable) reps: value-semantics binding
    of an existing value into a mutable variable cell. *)

val to_string : t -> string
(** The canonical string rep, rendered and cached on first use. *)

val num : t -> num
(** The numeric rep; parses and caches on first use. Never [Nmaybe]. *)

val set_string : t -> string -> unit
val set_int : t -> int -> unit

val float_to_string : float -> string
(** Tcl's float formatting: %.12g with a %.17g round-trip fallback, and
    integer-valued floats rendered with a trailing ".0". *)

val parse_num : string -> num
(** Parse a string as a number the way [expr] operands do (trim, int
    first, then float). A string that cannot start a number is
    [Nnone] without either parse being tried. Never returns [Nmaybe]. *)
