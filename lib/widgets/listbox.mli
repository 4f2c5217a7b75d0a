(** Listboxes (paper §4 and the Figure 9 browser): a scrollable list of
    text items. The [-scroll] option gives a command prefix (typically
    [".scroll set"]) that the listbox invokes — with total/window/first/
    last appended — whenever its view changes, and the [view] widget
    command scrolls so a given item is at the top (the scrollbar issues
    [".list view 40"]).

    Clicking selects an item (dragging extends the selection); the widget
    claims the X PRIMARY selection so [selection get] — in this or any
    other application — retrieves the selected lines. *)

val install : Tk.Core.app -> unit

val top_index : Tk.Core.widget -> int
(** Index of the first visible item. *)
