(** Core built-in commands: variables ([set], [unset], [incr], [append],
    [global], [upvar], [uplevel]), control flow ([if], [while], [for],
    [foreach], [break], [continue]), procedures ([proc], [return]),
    evaluation ([eval], [catch], [error], [expr], [source], [time]),
    command management ([rename]) and output ([print]; [puts] is
    {!Cmd_file}'s). *)

exception Exit_program of int
(** Raised by the [exit] command; the hosting application decides what to
    do (wish terminates the process). *)

val install : Interp.t -> unit
