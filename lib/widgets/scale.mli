(** Scales (sliders), one of the paper §7 Motif-compatible widgets: an
    integer value in [-from .. -to] adjusted by dragging; every change
    invokes the [-command] script with the value appended. Widget
    commands: [set value], [get]. *)

val install : Tk.Core.app -> unit
