(** The packer geometry manager (paper §3.4, Figure 8).

    Slaves are arranged around the sides of a cavity: each window is given
    a parcel along its chosen side ([top]/[bottom]/[left]/[right]), may be
    stretched to [fill] the parcel, and may [expand] to absorb leftover
    cavity space. The packer also sets the master's requested size to what
    the slaves need (geometry propagation), so frames shrink-wrap.

    The Tcl command supports the 1991 syntax used in the paper —

    {v pack append . .scroll {right filly} .list {left expand fill} v}

    — plus [pack unpack], [pack info] and [pack slaves]. *)

type side = Top | Bottom | Left | Right

type opts = {
  side : side;
  fill_x : bool;
  fill_y : bool;
  expand : bool;
  padx : int;
  pady : int;
  anchor : Core.anchor;
      (** position within the parcel — the old syntax's [frame] option *)
}

val install : Core.app -> unit
(** Register the [pack] Tcl command and the re-layout configure hook. The
    app's packing lists are made here and reachable only from the command
    and the hooks, so they go when the app does; a master is re-laid out
    whenever its ConfigureNotify arrives ({!Core.update}). *)
