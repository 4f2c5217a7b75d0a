(** Entry widgets: one-line editable text (paper §7 lists entries among the
    widgets under construction; §5 uses one for the Control-w
    backspace-over-word example).

    Built-in behaviour: printable keys insert at the cursor, BackSpace
    deletes backwards, Left/Right move the cursor, and clicking positions
    the cursor and takes the keyboard focus. Widget commands: [get],
    [insert index string], [delete first ?last?], [icursor index],
    [index]. *)

val install : Tk.Core.app -> unit

val contents : Tk.Core.widget -> string
