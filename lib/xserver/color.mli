(** The server's color database: named colors (a subset of X11's rgb.txt,
    including the paper's MediumSeaGreen) and [#rgb]/[#rrggbb] hex forms.
    Color lookup is a server request in real X; Tk's resource cache exists
    to avoid repeating it. *)

type t = { red : int; green : int; blue : int }
(** Channels are 8-bit (0–255). *)

val parse : string -> t option
(** Resolve a color specification: a (case-insensitive) name from the
    database, or [#rgb] / [#rrggbb] / [#rrrrggggbbbb] hexadecimal. *)

val to_hex : t -> string
(** Canonical [#rrggbb] form. *)

val luminance : t -> float
(** Perceptual luminance in [0, 1]; the rasterizer uses it to pick shading
    characters. *)

val black : t
val white : t
