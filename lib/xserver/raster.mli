(** A software renderer: draws the window tree (backgrounds, borders,
    retained display lists) into a character-cell framebuffer, producing
    the ASCII analogue of Figure 10's screen dump.

    Pixels map to character cells at a fixed scale ({!scale_x} horizontal
    pixels per column, {!scale_y} vertical pixels per row). *)

val scale_x : int
val scale_y : int

val render : Server.t -> ?window:Xid.t -> unit -> string
(** Render the given window (default: the whole root window) and its
    viewable descendants; returns the framebuffer as newline-separated
    rows. *)
