(** Server-side windows: a tree of rectangles with position, size, border,
    background, map state, properties and a retained display list (what the
    rasterizer draws). *)

(** One retained drawing operation, already resolved against its GC. *)
type draw_op =
  | Fill_rect of Geom.rect * Color.t
  | Draw_text of { tx : int; ty : int; text : string; color : Color.t; font : Font.t }
  | Draw_line of { x1 : int; y1 : int; x2 : int; y2 : int; color : Color.t }
  | Draw_rect of Geom.rect * Color.t (* outline only *)
  | Draw_relief of { rrect : Geom.rect; raised : bool; rwidth : int }
      (** 3-D shadow: light on two sides, dark on the others. *)

type prop = { prop_type : Atom.t; prop_data : string }

type t = {
  id : Xid.t;
  owner_cid : int;  (** connection that created the window *)
  mutable parent : t option;
  mutable children : t list;  (** bottom-to-top stacking order *)
  mutable x : int;
  mutable y : int;  (** relative to parent *)
  mutable width : int;
  mutable height : int;
  mutable border_width : int;
  mutable background : Color.t option;
  mutable border_color : Color.t;
  mutable mapped : bool;
  mutable destroyed : bool;
  mutable cursor : Cursor.t option;
  mutable override_redirect : bool;
  properties : (Atom.t, prop) Hashtbl.t;
  mutable property_listeners : int list;
      (** connection ids interested in PropertyNotify beyond the owner *)
  ops : (int, draw_op list) Hashtbl.t;
      (** retained display list, keyed: the rasterizer paints keys in
          ascending order, ops within a key in insertion order. Keyed
          clients (the canvas) address op groups directly so one item's
          drawing can be replaced in O(1); unkeyed draws are assigned
          fresh ascending keys, preserving plain append semantics. *)
  mutable next_op_key : int;  (** next auto key for unkeyed draws *)
}

val create :
  id:Xid.t ->
  owner_cid:int ->
  parent:t option ->
  x:int ->
  y:int ->
  width:int ->
  height:int ->
  border_width:int ->
  t
(** Create a window and link it under [parent] (on top of the stacking
    order). *)

val root_position : t -> Geom.point
(** Absolute position of the window's top-left corner (inside its border)
    in root coordinates. *)

val bounds : t -> Geom.rect
(** The window rectangle (excluding border) in root coordinates. *)

val viewable : t -> bool
(** Mapped, and all ancestors mapped. *)

val descendants : t -> t list
(** The window and all windows below it, depth-first. *)

val window_at : t -> Geom.point -> t option
(** Topmost viewable window containing the (root-coordinate) point,
    searching from [t] downward. *)

val unlink : t -> unit
(** Detach from the parent's child list (used by destroy). *)

val raise_to_top : t -> unit

val lower_to_bottom : t -> unit

val add_draw_op : ?key:int -> t -> draw_op -> unit
(** Append an op under [key] (default: a fresh auto key above all previous
    auto keys). *)

val clear_key : t -> int -> unit
(** Drop every op stored under one key. *)

val clear_drawing : t -> unit
(** Drop all ops and reset the auto-key counter. *)

val ops_in_order : t -> draw_op list
(** All retained ops in paint order: ascending key, insertion order within
    a key. *)
