(** Plane geometry for the simulated X server: points, sizes and
    rectangles, all in integer pixel coordinates. *)

type point = { x : int; y : int }

type size = { width : int; height : int }

type rect = { rx : int; ry : int; rwidth : int; rheight : int }

val rect : x:int -> y:int -> width:int -> height:int -> rect

val rect_of : point -> size -> rect

val contains : rect -> point -> bool
(** Point-in-rectangle test (right and bottom edges exclusive). *)

val intersect : rect -> rect -> rect option
(** Intersection, or [None] when the rectangles are disjoint or the result
    would be empty. *)

val translate : rect -> dx:int -> dy:int -> rect

val union : rect -> rect -> rect
(** Smallest rectangle covering both (an empty argument is ignored). *)

val area : rect -> int
(** Pixel area; 0 for empty rectangles. *)

val inflate : rect -> dx:int -> dy:int -> rect
(** Grow by [dx]/[dy] pixels on every side. *)

val is_empty : rect -> bool
