(** The [interp] command: slave interpreters, resource limits and
    cancellation (the Safe-Tcl containment model).

    Subcommands: [create ?-safe? ?path?], [delete ?path ...?],
    [eval path arg ?arg ...?], [exists path], [slaves ?path?],
    [alias path srcCmd ?targetCmd ?arg ...??], [aliases ?path?],
    [hide path cmd], [expose path hiddenCmd ?exposedName?],
    [hidden path], [invokehidden path cmd ?arg ...?], [issafe ?path?],
    [limit path time|commands ?-value V? ?-granularity G?],
    [recursionlimit ?path? ?N?], [cancel ?-unwind? ?path?].

    An interpreter path is a Tcl list descending the slave tree relative
    to the interpreter running the command. *)

val unsafe_commands : string list
(** The commands a [-safe] slave has hidden (when present): process
    control, file system, the interp machinery, simulator test hooks. *)

val create_slave :
  sub_interp:(unit -> Interp.t) ->
  master:Interp.t ->
  safe:bool ->
  string ->
  (Interp.t, string) result
(** Create a slave of [master] under the given name: a fresh interpreter
    from [sub_interp], inheriting the master's limit clock, hidden-down
    if [safe]. Errors if the name is taken. *)

val install : sub_interp:(unit -> Interp.t) -> Interp.t -> unit
(** Register the [interp] command and its lint signature. [sub_interp]
    constructs a fresh interpreter with the built-in command set (passed
    as a callback to keep this module below {!Builtins}). *)
