(** The [regexp] and [regsub] commands:

    [regexp ?-nocase? ?-indices? ?--? exp string ?matchVar? ?subVar ...?]
    returns 1 if the expression matches and fills the optional variables
    with the (sub)matches — or their index ranges with [-indices].

    [regsub ?-all? ?-nocase? ?--? exp string subSpec varName] stores the
    substituted string in [varName] and returns the number of
    substitutions made. *)

val regexp_signature : Interp.signature
(** Read by {!Lint} to find [regexp]'s match variables. *)

val install : Interp.t -> unit
