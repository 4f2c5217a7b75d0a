(** Tk's selection support (paper §3.6): widgets register a selection
    handler and claim the PRIMARY selection; Tk runs the ICCCM machinery —
    notifying the previous owner, answering SelectionRequest events from
    the handler, and retrieving the selection from whoever owns it
    (including another application on the display).

    Handlers can be OCaml functions (the paper's "C procedures") or Tcl
    scripts ([selection handle]). *)

val install : Core.app -> unit
(** Register the [selection] Tcl command and the event interceptors. *)

val own : Core.widget -> provider:(unit -> string) -> unit
(** Claim PRIMARY for a widget; [provider] returns the selected text when
    another client asks. The previous owner is notified via
    SelectionClear. *)

val get : ?timeout_ms:int -> Core.app -> string
(** Retrieve the PRIMARY selection as a string, wherever its owner is.
    The wait is bounded ([timeout_ms], default 2000, on the requesting
    app's {!Dispatch} clock); an owner that crashes mid-conversion is
    detected early and the dangling ownership is cleared server-side.
    @raise Tcl.Interp.Tcl_failure when nobody owns the selection, when
    the owner died mid-conversion, or when it failed to answer before
    the deadline. *)
