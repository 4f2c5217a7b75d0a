type t = {
  gc_id : Xid.t;
  foreground : Color.t;
  background : Color.t;
  font : Font.t option;
  line_width : int;
}

let make ~id ?(foreground = Color.black) ?(background = Color.white) ?font
    ?(line_width = 1) () =
  { gc_id = id; foreground; background; font; line_width }
