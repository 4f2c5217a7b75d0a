(** Graphics contexts: bundles of drawing parameters, created once and
    referenced by drawing requests (creating one is a server request;
    using one is free — another reason for Tk-side caching). *)

type t = {
  gc_id : Xid.t;
  foreground : Color.t;
  background : Color.t;
  font : Font.t option;
  line_width : int;
}

val make :
  id:Xid.t ->
  ?foreground:Color.t ->
  ?background:Color.t ->
  ?font:Font.t ->
  ?line_width:int ->
  unit ->
  t
