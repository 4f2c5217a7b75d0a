(** X resource identifiers. Every server-side object (window, graphics
    context, font, …) is named by a unique integer id, as in the X
    protocol. *)

type t = int

type allocator

val allocator : unit -> allocator

val fresh : allocator -> t
(** Allocate the next id (ids start at 1; 0 is reserved for "none"). *)

val none : t
(** The null resource id. *)
