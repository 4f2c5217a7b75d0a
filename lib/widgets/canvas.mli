(** A structured-graphics canvas: the paper's §5 plan to "enhance wish with
    drawing commands for shapes and text", realised as a widget that holds
    100k items with flat per-edit cost.

    Items are created by Tcl commands and keep an integer id; any item can
    also carry symbolic tags, and every verb below accepts a tag wherever
    it accepts an id (a bulk operation over the tag's items):

    {v
      .c create line x1 y1 x2 y2 ?-fill color? ?-tags list?
      .c create rectangle x1 y1 x2 y2 ?-fill c? ?-outline c? ?-tags list?
      .c create text x y ?-text string? ?-fill color? ?-tags list?
    v}

    Widget commands: [create], [delete tagOrId...|all],
    [move tagOrId dx dy], [scale tagOrId xo yo xs ys],
    [coords id ?x1 y1 ...?], [itemconfigure tagOrId ?opt val ...?],
    [addtag tag searchSpec], [dtag tagOrId ?tag?], [gettags tagOrId],
    [find all|withtag t|overlapping x1 y1 x2 y2|enclosed x1 y1 x2 y2|
    closest x y ?halo?], [bbox tagOrId...], [raise]/[lower]
    [tagOrId ?relativeTo?], [itemcount], [type id].

    Internally items sit in a dense array behind an id→slot hashtable with
    cached bounding boxes; a loose uniform grid over the bboxes serves
    [find] and exposure queries, and edits repaint through the damage
    pipeline ({!Tk.Core.schedule_damage}) — see the [tk.canvas.*]
    counters. *)

val install : ?index:bool -> Tk.Core.app -> unit
(** Register the [canvas] command on one application. With [~index:false]
    (the ablation; default [true]) the canvases it creates answer every
    spatial query with an O(n) linear scan instead of the grid index —
    the bench's contrast column and the tests' oracle. Installing again
    replaces the command; existing canvases keep their mode. *)

val item_count : Tk.Core.widget -> int
