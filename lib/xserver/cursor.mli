(** The server's cursor font: the standard X11 cursor names (the paper's
    example is [coffee_mug]). Opening a cursor is a server request, so Tk
    caches them by name. *)

type t = { name : string; glyph : int }

val parse : string -> t option

val fallback : t
(** The default pointer ([left_ptr]); what a degraded cursor lookup
    yields when the server request fails. *)
