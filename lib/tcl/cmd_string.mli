(** String built-ins: the [string] ensemble (compare, match, length, index,
    range, tolower, toupper, trim*, first, last), printf-style [format] and
    its inverse [scan]. *)

val install : Interp.t -> unit
