(** Shared helpers for widget implementations: text metrics, standard
    drawing (background, relief, anchored text) and the widget-creation
    command plumbing. *)

open Xsim

val widget_font : Tk.Core.widget -> Font.t
(** The widget's [-font], through the resource cache. *)

val draw_background : Tk.Core.widget -> ?color:string -> unit -> unit
(** Fill the window with [-background] (or the named option/color). *)

val draw_relief_border : Tk.Core.widget -> ?relief:Tk.Core.relief -> unit -> unit
(** Draw the 3-D border per [-relief] and [-borderwidth]. *)

val draw_anchored_text :
  Tk.Core.widget ->
  ?fg:string ->
  ?font:string ->
  ?dx:int ->
  text:string ->
  anchor:Tk.Core.anchor ->
  unit ->
  unit
(** Draw a (possibly multi-line) string positioned by the anchor within the
    widget's interior, inset by [-borderwidth] plus padding. [dx] shifts
    the text area right (for check/radio indicators). *)

val text_block_size : Font.t -> string -> int * int
(** Width/height in pixels of a multi-line string. *)

val standard_creator :
  Tk.Core.app ->
  command:string ->
  make:(unit -> Tk.Core.wclass) ->
  ?data:(unit -> Tk.Core.wdata) ->
  ?post_create:(Tk.Core.widget -> unit) ->
  unit ->
  unit
(** Register a widget-creation Tcl command (paper §4): [command .path
    ?-option value ...?] creates the widget and returns its path name.
    [data] builds the fresh widget-private state installed before the
    initial configuration runs. The command is registered with
    {!declare_widget}'s signature, so the class is visible to the
    static analyzer. *)

val invoke_widget_script : Tk.Core.widget -> string -> unit
(** Run a widget action script (e.g. a button's [-command]) through the
    application's error reporting. *)

val inside : Tk.Core.widget -> x:int -> y:int -> bool
(** Is a window-relative point inside the widget? (Used for
    press-then-release-outside behaviour.) *)
