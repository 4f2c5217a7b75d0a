(** Bitmaps: small two-color images used for stipples and icons. Tk names
    them textually — a built-in name like [gray50], or [@file] for an XBM
    file on disk (the paper's [@star] example). *)

type t = {
  name : string;
  width : int;
  height : int;
  bits : bool array array; (** [bits.(y).(x)] — row-major *)
}

val parse : string -> t option
(** Resolve a bitmap specification. [@path] loads a (simplified) XBM file:
    the [#define _width/_height] lines and the 0x.. byte list. *)

val fallback : unit -> t
(** The built-in [gray50] pattern, constructed without any lookup; what a
    degraded bitmap request falls back to. *)

val parse_xbm : name:string -> string -> t option
(** Parse XBM file contents (exposed for tests). *)
