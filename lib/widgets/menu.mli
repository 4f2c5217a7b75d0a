(** Menus and menubuttons (the two widgets paper §7 says were still to be
    implemented — included here for completeness).

    A menu is an initially-unmapped window holding command entries and
    separators; [post x y] places it (coordinates relative to the main
    window) and maps it above its siblings, [unpost] hides it. Clicking an
    entry (or [invoke index]) runs the entry's command and unposts. A
    menubutton posts its [-menu] when pressed. *)

val install : Tk.Core.app -> unit
(** Register the [menu] and [menubutton] creation commands. *)
