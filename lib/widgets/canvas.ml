(* The structured-graphics canvas (paper §5), built to hold 100k items
   with flat per-edit cost:

   - items live in a dense growable array with an id→slot hashtable, so
     every id lookup is O(1) (no list walk, no per-item re-parse);
   - each item caches its bounding box, and a loose uniform grid over the
     bboxes answers find overlapping/enclosed/closest and the repaint
     exposure query in O(candidates) instead of O(items);
   - tags are doubly indexed (id→tags, tag→id-set), so bulk verbs
     (move/delete/itemconfigure/... <tag>) touch only matching items;
   - display order is a per-item monotonic z-serial, which doubles as the
     item's key in the window's keyed op store: raise/lower hand out fresh
     serials in O(moved), and re-emitting one item's ops replaces exactly
     its old drawing (Server.clear_keyed + redraw) without touching
     anything else;
   - a repaint draws only the items in view: the full redraw finds them
     through the index, so it costs the view, not the store;
   - edits mark items dirty and accumulate damage (Tk.Core.schedule_damage);
     the idle-time partial repaint re-emits only dirty items inside the
     damage clip, found through the index, and drops the ops of those that
     left the view. Because the rasterizer paints keys in ascending order,
     the retained op store after a partial repaint is byte-identical to
     what a full redraw would leave.

   The [tk.canvas.*] counters in xstat expose the index hit rates and the
   considered/drawn split; `Canvas.install ~index:false` ablates one
   application's grid back to linear scans (the bench's contrast column
   and the tests' oracle). *)

open Xsim

let failf = Tcl.Interp.failf

type item_kind = Line | Rectangle | Text_item

type item = {
  iid : int;
  kind : item_kind;
  mutable coords : int array; (* x1 y1 x2 y2 ... *)
  mutable fill : string;
  mutable outline : string;
  mutable text : string;
  mutable tags : string list; (* in addition order *)
  mutable zserial : int; (* display order: ascending = towards the top *)
  mutable bbox : Geom.rect; (* cached, derived from coords/text/font *)
  mutable dirty : bool; (* retained ops stale; re-emit on next repaint *)
}

(* The loose uniform grid: cell -> ids of items whose bbox overlaps the
   cell. Items spanning more than [grid_max_cells] cells go to the [big]
   overflow set instead (scanned on every query), so a screen-sized
   backdrop doesn't occupy thousands of cells. *)
let grid_cell = 64

let grid_max_cells = 64

type state = {
  mutable arr : item option array; (* dense: slots 0..len-1 are live *)
  mutable len : int;
  index_of_id : (int, int) Hashtbl.t; (* id -> slot *)
  tag_index : (string, (int, unit) Hashtbl.t) Hashtbl.t;
  grid : (int * int, int list ref) Hashtbl.t;
  big : (int, unit) Hashtbl.t;
  mutable next_id : int;
  mutable next_top : int; (* serial for the next item placed on top *)
  mutable next_bottom : int; (* serial for the next item sent to bottom *)
  mutable dead_keys : int list; (* op-store keys to clear at next repaint *)
  use_index : bool; (* false: linear scans (the install's ablation) *)
}

let new_state ~index =
  {
    arr = Array.make 64 None;
    len = 0;
    index_of_id = Hashtbl.create 64;
    tag_index = Hashtbl.create 16;
    grid = Hashtbl.create 64;
    big = Hashtbl.create 8;
    next_id = 1;
    next_top = 1;
    next_bottom = 0;
    dead_keys = [];
    use_index = index;
  }

type Tk.Core.wdata += Canvas_data of state

let data w =
  match w.Tk.Core.data with
  | Canvas_data s -> s
  | _ -> failf "%s is not a canvas" w.Tk.Core.path

let item_count w = (data w).len

let metrics w = w.Tk.Core.app.Tk.Core.metrics

let get s slot =
  match s.arr.(slot) with
  | Some it -> it
  | None -> failf "canvas: corrupt item store"

let live_items s =
  let rec go acc i = if i < 0 then acc else go (get s i :: acc) (i - 1) in
  go [] (s.len - 1)

(* ------------------------------------------------------------------ *)
(* Parsing helpers *)

let parse_int spec =
  match int_of_string_opt spec with
  | Some i -> i
  | None -> failf "expected integer but got \"%s\"" spec

let parse_float spec =
  match float_of_string_opt spec with
  | Some f -> f
  | None -> failf "expected floating-point number but got \"%s\"" spec

(* ------------------------------------------------------------------ *)
(* Bounding boxes *)

let item_bbox w it =
  match it.kind with
  | Line | Rectangle ->
    let x1 = it.coords.(0) and y1 = it.coords.(1) in
    let x2 = it.coords.(2) and y2 = it.coords.(3) in
    Geom.rect ~x:(min x1 x2) ~y:(min y1 y2)
      ~width:(abs (x2 - x1) + 1)
      ~height:(abs (y2 - y1) + 1)
  | Text_item ->
    (* [coords] is the baseline origin; cover the glyph box. *)
    let f = Wutil.widget_font w in
    let width = max 1 (Font.text_width f it.text) in
    Geom.rect ~x:it.coords.(0)
      ~y:(it.coords.(1) - f.Font.ascent)
      ~width
      ~height:(f.Font.ascent + f.Font.descent)

(* Damage is padded by one raster cell on every side, so cell-quantized
   rendering (text rows, line endpoints) can never out-paint the clip. *)
let damage_pad r = Geom.inflate r ~dx:Raster.scale_x ~dy:Raster.scale_y

(* ------------------------------------------------------------------ *)
(* Spatial index: loose uniform grid over cached bboxes *)

let fdiv a b = if a >= 0 then a / b else -((-a + b - 1) / b)

let cell_range r =
  ( fdiv r.Geom.rx grid_cell,
    fdiv r.Geom.ry grid_cell,
    fdiv (r.Geom.rx + r.Geom.rwidth - 1) grid_cell,
    fdiv (r.Geom.ry + r.Geom.rheight - 1) grid_cell )

let grid_insert s it =
  if s.use_index then begin
    let cx0, cy0, cx1, cy1 = cell_range it.bbox in
    if (cx1 - cx0 + 1) * (cy1 - cy0 + 1) > grid_max_cells then
      Hashtbl.replace s.big it.iid ()
    else
      for cx = cx0 to cx1 do
        for cy = cy0 to cy1 do
          match Hashtbl.find_opt s.grid (cx, cy) with
          | Some ids -> ids := it.iid :: !ids
          | None -> Hashtbl.replace s.grid (cx, cy) (ref [ it.iid ])
        done
      done
  end

let grid_remove s it =
  if s.use_index then begin
    if Hashtbl.mem s.big it.iid then Hashtbl.remove s.big it.iid
    else begin
      let cx0, cy0, cx1, cy1 = cell_range it.bbox in
      for cx = cx0 to cx1 do
        for cy = cy0 to cy1 do
          match Hashtbl.find_opt s.grid (cx, cy) with
          | Some ids ->
            ids := List.filter (fun id -> id <> it.iid) !ids;
            if !ids = [] then Hashtbl.remove s.grid (cx, cy)
          | None -> ()
        done
      done
    end
  end

(* Items whose bbox intersects [r], via the grid (or a linear scan when the
   index is ablated). Unsorted. *)
let query_rect w s r =
  let m = metrics w in
  if not s.use_index then begin
    m.Tk.Metrics.canvas_linear_scans <- m.Tk.Metrics.canvas_linear_scans + 1;
    List.filter (fun it -> Geom.intersect it.bbox r <> None) (live_items s)
  end
  else begin
    m.Tk.Metrics.canvas_index_queries <- m.Tk.Metrics.canvas_index_queries + 1;
    let seen = Hashtbl.create 32 in
    let out = ref [] in
    let consider id =
      if not (Hashtbl.mem seen id) then begin
        Hashtbl.replace seen id ();
        m.Tk.Metrics.canvas_index_hits <- m.Tk.Metrics.canvas_index_hits + 1;
        match Hashtbl.find_opt s.index_of_id id with
        | Some slot ->
          let it = get s slot in
          if Geom.intersect it.bbox r <> None then out := it :: !out
        | None -> ()
      end
    in
    let cx0, cy0, cx1, cy1 = cell_range r in
    let range_cells = (cx1 - cx0 + 1) * (cy1 - cy0 + 1) in
    if range_cells > Hashtbl.length s.grid then
      (* Huge query (find all-scale rects): walking the occupied cells is
         cheaper than enumerating the range. *)
      Hashtbl.iter
        (fun (cx, cy) ids ->
          if cx >= cx0 && cx <= cx1 && cy >= cy0 && cy <= cy1 then
            List.iter consider !ids)
        s.grid
    else
      for cx = cx0 to cx1 do
        for cy = cy0 to cy1 do
          match Hashtbl.find_opt s.grid (cx, cy) with
          | Some ids -> List.iter consider !ids
          | None -> ()
        done
      done;
    Hashtbl.iter (fun id () -> consider id) s.big;
    !out
  end

(* L∞ distance from a point to a bbox (0 inside). *)
let linf_dist r px py =
  let dx =
    max 0 (max (r.Geom.rx - px) (px - (r.Geom.rx + r.Geom.rwidth - 1)))
  in
  let dy =
    max 0 (max (r.Geom.ry - py) (py - (r.Geom.ry + r.Geom.rheight - 1)))
  in
  max dx dy

(* Best = smallest halo-adjusted distance, topmost (highest z) among ties. *)
let closest_of candidates ~px ~py ~halo =
  List.fold_left
    (fun best it ->
      let d = max 0 (linf_dist it.bbox px py - halo) in
      match best with
      | Some (bd, bit)
        when bd < d || (bd = d && bit.zserial > it.zserial) ->
        best
      | _ -> Some (d, it))
    None candidates

let find_closest w s ~px ~py ~halo =
  if not s.use_index then
    Option.map snd (closest_of (live_items s) ~px ~py ~halo)
  else begin
    let total = s.len in
    let rec expand r =
      let square =
        Geom.rect ~x:(px - r) ~y:(py - r) ~width:(2 * r) ~height:(2 * r)
      in
      let candidates = query_rect w s square in
      let best = closest_of candidates ~px ~py ~halo in
      match best with
      (* Anything outside the square is strictly farther than [r - halo]
         (adjusted), so a best within that bound is globally best. *)
      | Some (d, it) when d < r - halo -> Some it
      | _ ->
        if List.length candidates = total then Option.map snd best
        else expand (r * 2)
    in
    if total = 0 then None else expand grid_cell
  end

(* ------------------------------------------------------------------ *)
(* Tag index *)

let tag_add s it tag =
  if not (List.mem tag it.tags) then begin
    it.tags <- it.tags @ [ tag ];
    let set =
      match Hashtbl.find_opt s.tag_index tag with
      | Some set -> set
      | None ->
        let set = Hashtbl.create 8 in
        Hashtbl.replace s.tag_index tag set;
        set
    in
    Hashtbl.replace set it.iid ()
  end

let tag_remove s it tag =
  if List.mem tag it.tags then begin
    it.tags <- List.filter (fun t -> t <> tag) it.tags;
    match Hashtbl.find_opt s.tag_index tag with
    | Some set ->
      Hashtbl.remove set it.iid;
      if Hashtbl.length set = 0 then Hashtbl.remove s.tag_index tag
    | None -> ()
  end

let set_tags s it tags =
  List.iter (fun t -> tag_remove s it t) it.tags;
  List.iter (fun t -> tag_add s it t) tags

(* ------------------------------------------------------------------ *)
(* tagOrId resolution *)

let by_display_order items =
  List.sort (fun a b -> compare a.zserial b.zserial) items

(* All items matching a tag-or-id, display order. [strict] errors on a
   numeric id that doesn't exist (the historical canvas behaviour, pinned
   by tests); a tag matching nothing is an empty result either way. *)
let resolve ?(strict = true) w s spec =
  let m = metrics w in
  if spec = "all" then by_display_order (live_items s)
  else
    match int_of_string_opt spec with
    | Some id -> (
      match Hashtbl.find_opt s.index_of_id id with
      | Some slot -> [ get s slot ]
      | None ->
        if strict then failf "item \"%s\" doesn't exist" spec else [])
    | None -> (
      m.Tk.Metrics.canvas_bulk_ops <- m.Tk.Metrics.canvas_bulk_ops + 1;
      match Hashtbl.find_opt s.tag_index spec with
      | Some set ->
        by_display_order
          (Hashtbl.fold
             (fun id () acc -> get s (Hashtbl.find s.index_of_id id) :: acc)
             set [])
      | None -> [])

let first_item w s spec =
  match resolve w s spec with
  | it :: _ -> it
  | [] -> failf "item \"%s\" doesn't exist" spec

(* Satellite fix: parse the id once, then O(1) through the hashtable
   (formerly an O(n) List.find_opt re-parsing the id per element). *)
let find_item s id_str =
  let id = parse_int id_str in
  match Hashtbl.find_opt s.index_of_id id with
  | Some slot -> get s slot
  | None -> failf "item \"%s\" doesn't exist" id_str

(* ------------------------------------------------------------------ *)
(* Item store mutation *)

let add_item s it =
  if s.len = Array.length s.arr then begin
    let bigger = Array.make (2 * Array.length s.arr) None in
    Array.blit s.arr 0 bigger 0 s.len;
    s.arr <- bigger
  end;
  s.arr.(s.len) <- Some it;
  Hashtbl.replace s.index_of_id it.iid s.len;
  s.len <- s.len + 1;
  grid_insert s it

(* Swap-remove keeps the store dense; only the moved slot's index entry
   needs updating. *)
let remove_item s it =
  (match Hashtbl.find_opt s.index_of_id it.iid with
  | None -> ()
  | Some slot ->
    let last = s.len - 1 in
    let moved = get s last in
    s.arr.(slot) <- Some moved;
    s.arr.(last) <- None;
    Hashtbl.replace s.index_of_id moved.iid slot;
    Hashtbl.remove s.index_of_id it.iid;
    s.len <- s.len - 1);
  grid_remove s it;
  set_tags s it [];
  s.dead_keys <- it.zserial :: s.dead_keys

(* ------------------------------------------------------------------ *)
(* Drawing: each item's ops live under its z-serial in the keyed store *)

(* Background and relief render below every item; z-serials stay far from
   these keys (they start near 0 and drift one per raise/lower). *)
let bg_key = min_int

let relief_key = min_int + 1

(* The GC an item draws colour [color] with. *)
let item_gc w color = Tk.Core.widget_gc w ~fg:color ~font:"-font" ()

(* Emit one item's ops under its z-serial; [gc] maps a colour to its GC. *)
let draw_item w gc it =
  let app = w.Tk.Core.app in
  let conn = app.Tk.Core.conn in
  let win = w.Tk.Core.win in
  let key = it.zserial in
  match it.kind with
  | Line ->
    if it.fill <> "" then
      Server.draw_line ~key conn win (gc it.fill) ~x1:it.coords.(0)
        ~y1:it.coords.(1) ~x2:it.coords.(2) ~y2:it.coords.(3)
  | Rectangle ->
    let x1 = it.coords.(0) and y1 = it.coords.(1) in
    let x2 = it.coords.(2) and y2 = it.coords.(3) in
    let rect =
      Geom.rect ~x:(min x1 x2) ~y:(min y1 y2) ~width:(abs (x2 - x1))
        ~height:(abs (y2 - y1))
    in
    if it.fill <> "" then Server.fill_rect ~key conn win (gc it.fill) rect;
    if it.outline <> "" then
      Server.draw_rect ~key conn win (gc it.outline) rect
  | Text_item ->
    if it.fill <> "" && it.text <> "" then
      Server.draw_text ~key conn win (gc it.fill) ~x:it.coords.(0)
        ~y:it.coords.(1) it.text

(* Each colour's GC is looked up once per repaint pass, not once per
   item: the lookup (option reads, name normalising, a formatted cache
   key) costs more than the draw.  A colour is looked up at the first
   item that uses it, so the X requests are those of a lookup per item,
   in the same order. *)
let pass_gc w =
  let gcs = Hashtbl.create 8 in
  fun color ->
    match Hashtbl.find gcs color with
    | g -> g
    | exception Not_found ->
      let g = item_gc w color in
      Hashtbl.add gcs color g;
      g

(* What a repaint draws: the items whose bounding box meets the window.
   The window is padded by one raster cell, as damage is, since a
   cell-quantized line or text row just outside it can paint a cell
   inside.  Only a resize changes the view, and a resize redraws in
   full. *)
let view w =
  damage_pad
    (Geom.rect ~x:0 ~y:0 ~width:w.Tk.Core.width ~height:w.Tk.Core.height)

let clear_dead_keys w s =
  let conn = w.Tk.Core.app.Tk.Core.conn in
  List.iter (fun k -> Server.clear_keyed conn w.Tk.Core.win k) s.dead_keys;
  s.dead_keys <- []

(* Full redraw (class display hook; the core has already cleared the
   window, which also dropped any dead keys).  It draws the items in
   view, found through the index, so the retained ops are those items'
   and nothing else. *)
let display w =
  let s = data w in
  let m = metrics w in
  m.Tk.Metrics.canvas_full_redraws <- m.Tk.Metrics.canvas_full_redraws + 1;
  s.dead_keys <- [];
  let app = w.Tk.Core.app in
  Server.fill_rect ~key:bg_key app.Tk.Core.conn w.Tk.Core.win
    (Tk.Core.widget_gc w ~fg:(Tk.Core.cget w "-background") ())
    (Geom.rect ~x:0 ~y:0 ~width:w.Tk.Core.width ~height:w.Tk.Core.height);
  let bw = Tk.Core.get_pixels w "-borderwidth" in
  let relief = Tk.Core.get_relief w "-relief" in
  if bw > 0 && relief <> Tk.Core.Flat then
    Server.draw_relief ~key:relief_key app.Tk.Core.conn w.Tk.Core.win
      (Geom.rect ~x:0 ~y:0 ~width:w.Tk.Core.width ~height:w.Tk.Core.height)
      ~raised:(relief = Tk.Core.Raised) ~width:bw;
  let gc = pass_gc w in
  List.iter
    (fun it ->
      m.Tk.Metrics.canvas_items_considered <-
        m.Tk.Metrics.canvas_items_considered + 1;
      m.Tk.Metrics.canvas_items_drawn <- m.Tk.Metrics.canvas_items_drawn + 1;
      draw_item w gc it;
      it.dirty <- false)
    (query_rect w s (view w))

(* Partial repaint: only items inside the damage clip are even considered
   (via the index); only the dirty ones drop their old ops, and of those
   only the ones in view draw again. Every dirty item is inside the clip
   by construction — each edit adds its old∪new bbox to the damage the
   core accumulates. *)
let display_damaged w clip =
  let s = data w in
  let m = metrics w in
  m.Tk.Metrics.canvas_damage_redraws <- m.Tk.Metrics.canvas_damage_redraws + 1;
  clear_dead_keys w s;
  let conn = w.Tk.Core.app.Tk.Core.conn in
  let view = view w in
  let gc = pass_gc w in
  List.iter
    (fun it ->
      m.Tk.Metrics.canvas_items_considered <-
        m.Tk.Metrics.canvas_items_considered + 1;
      if it.dirty then begin
        Server.clear_keyed conn w.Tk.Core.win it.zserial;
        if Geom.intersect it.bbox view <> None then begin
          draw_item w gc it;
          m.Tk.Metrics.canvas_items_drawn <-
            m.Tk.Metrics.canvas_items_drawn + 1
        end;
        it.dirty <- false
      end)
    (query_rect w s clip)

(* ------------------------------------------------------------------ *)
(* Edit plumbing: mark dirty, damage old∪new, keep the index current *)

let damage_item w it = Tk.Core.schedule_damage w (damage_pad it.bbox)

let item_changed w s it ~old_bbox =
  let nb = item_bbox w it in
  if nb <> old_bbox then begin
    grid_remove s { it with bbox = old_bbox };
    it.bbox <- nb;
    grid_insert s it
  end;
  it.dirty <- true;
  Tk.Core.schedule_damage w (damage_pad (Geom.union old_bbox nb))

let coord_arity = function Line | Rectangle -> 4 | Text_item -> 2

let kind_name = function
  | Line -> "line"
  | Rectangle -> "rectangle"
  | Text_item -> "text"

(* ------------------------------------------------------------------ *)
(* Item options (create / itemconfigure) *)

let apply_item_option s it option value =
  match option with
  | "-fill" -> it.fill <- value
  | "-outline" -> it.outline <- value
  | "-text" -> it.text <- value
  | "-tags" -> (
    match Tcl.Tcl_list.parse value with
    | Ok tags -> set_tags s it tags
    | Error msg -> failf "bad tag list \"%s\": %s" value msg)
  | bad -> failf "unknown canvas item option \"%s\"" bad

let item_option_value it = function
  | "-fill" -> it.fill
  | "-outline" -> it.outline
  | "-text" -> it.text
  | "-tags" -> Tcl.Tcl_list.format it.tags
  | bad -> failf "unknown canvas item option \"%s\"" bad

let item_option_names = [ "-fill"; "-outline"; "-text"; "-tags" ]

let rec apply_item_options s it = function
  | [] -> ()
  | [ option ] -> failf "value for \"%s\" missing" option
  | option :: value :: rest ->
    apply_item_option s it option value;
    apply_item_options s it rest

(* ------------------------------------------------------------------ *)
(* Create *)

(* A fresh coordinate array for [kind], given [n] coordinate words: the
   count is checked before any word is parsed, as Tk does. *)
let new_coords kind n =
  let expected = coord_arity kind in
  if n <> expected then
    failf "wrong # coordinates: expected %d, got %d" expected n;
  Array.make n 0

(* Parse the leading words straight into [coords] from slot [i] on;
   returns the words after the last coordinate. *)
let rec fill_coords coords i words =
  match words with
  | v :: rest when i < Array.length coords ->
    coords.(i) <- parse_int v;
    fill_coords coords (i + 1) rest
  | _ -> words

(* [create]'s coordinates run up to the first word that reads as an
   option: a '-' not followed by a digit. *)
let split_coords_options kind args =
  let rec count n = function
    | v :: rest
      when v <> ""
           && (v.[0] <> '-'
              || (String.length v > 1 && Tcl.Chars.is_digit v.[1])) ->
      count (n + 1) rest
    | _ -> n
  in
  let coords = new_coords kind (count 0 args) in
  (coords, fill_coords coords 0 args)

let create_item w kind args =
  let s = data w in
  let coords, options = split_coords_options kind args in
  let zserial = s.next_top in
  s.next_top <- s.next_top + 1;
  let it =
    {
      iid = s.next_id;
      kind;
      coords;
      (* Kind defaults: rectangles draw an outline only; lines and text
         draw in black. *)
      fill = (match kind with Rectangle -> "" | Line | Text_item -> "black");
      outline = (match kind with Rectangle -> "black" | _ -> "");
      text = "";
      tags = [];
      zserial;
      bbox = Geom.rect ~x:0 ~y:0 ~width:1 ~height:1;
      dirty = true;
    }
  in
  s.next_id <- s.next_id + 1;
  apply_item_options s it options;
  it.bbox <- item_bbox w it;
  add_item s it;
  damage_item w it;
  it.iid

(* ------------------------------------------------------------------ *)
(* Search specs (find / addtag) *)

let rect_of_corners x1 y1 x2 y2 =
  (* Inclusive area between two corners. *)
  Geom.rect ~x:(min x1 x2) ~y:(min y1 y2)
    ~width:(abs (x2 - x1) + 1)
    ~height:(abs (y2 - y1) + 1)

let enclosed_in outer r =
  r.Geom.rx >= outer.Geom.rx
  && r.Geom.ry >= outer.Geom.ry
  && r.Geom.rx + r.Geom.rwidth <= outer.Geom.rx + outer.Geom.rwidth
  && r.Geom.ry + r.Geom.rheight <= outer.Geom.ry + outer.Geom.rheight

let search w s = function
  | [ "all" ] -> by_display_order (live_items s)
  | [ "withtag"; spec ] -> resolve ~strict:false w s spec
  | [ "overlapping"; x1; y1; x2; y2 ] ->
    let r =
      rect_of_corners (parse_int x1) (parse_int y1) (parse_int x2)
        (parse_int y2)
    in
    by_display_order (query_rect w s r)
  | [ "enclosed"; x1; y1; x2; y2 ] ->
    let r =
      rect_of_corners (parse_int x1) (parse_int y1) (parse_int x2)
        (parse_int y2)
    in
    by_display_order
      (List.filter (fun it -> enclosed_in r it.bbox) (query_rect w s r))
  | "closest" :: px :: py :: rest ->
    let halo =
      match rest with
      | [] -> 0
      | [ h ] -> max 0 (parse_int h)
      | _ -> raise Tcl.Interp.Usage
    in
    Option.to_list
      (find_closest w s ~px:(parse_int px) ~py:(parse_int py) ~halo)
  | spec :: _ ->
    failf
      "bad search command \"%s\": must be all, withtag, overlapping, \
       enclosed, or closest"
      spec
  | [] -> raise Tcl.Interp.Usage

(* ------------------------------------------------------------------ *)
(* Widget command *)

let ids_result items =
  Tcl.Interp.ok
    (String.concat " " (List.map (fun it -> string_of_int it.iid) items))

let rec subcommands w words =
  let s = data w in
  let ok = Tcl.Interp.ok in
  match words with
  | _ :: "create" :: kind :: (_ :: _ as args) ->
    let kind =
      match kind with
      | "line" -> Line
      | "rectangle" | "rect" -> Rectangle
      | "text" -> Text_item
      | k -> failf "unknown canvas item type \"%s\"" k
    in
    ok (string_of_int (create_item w kind args))
  | [ _; "delete"; "all" ] ->
    (* Bulk fast path: drop every index wholesale instead of unlinking
       100k items one at a time. *)
    Array.fill s.arr 0 s.len None;
    s.len <- 0;
    Hashtbl.reset s.index_of_id;
    Hashtbl.reset s.tag_index;
    Hashtbl.reset s.grid;
    Hashtbl.reset s.big;
    s.dead_keys <- [];
    Tk.Core.schedule_redraw w;
    ok ""
  | _ :: "delete" :: (_ :: _ as specs) ->
    List.iter
      (fun spec ->
        List.iter
          (fun it ->
            remove_item s it;
            Tk.Core.schedule_damage w (damage_pad it.bbox))
          (resolve w s spec))
      specs;
    ok ""
  | [ _; "move"; spec; dx; dy ] ->
    let dx = parse_int dx and dy = parse_int dy in
    List.iter
      (fun it ->
        let old_bbox = it.bbox in
        it.coords <-
          Array.mapi
            (fun i v -> if i mod 2 = 0 then v + dx else v + dy)
            it.coords;
        item_changed w s it ~old_bbox)
      (resolve w s spec);
    ok ""
  | [ _; "scale"; spec; xo; yo; xs; ys ] ->
    let xo = parse_float xo and yo = parse_float yo in
    let xs = parse_float xs and ys = parse_float ys in
    let sc origin factor v =
      int_of_float (Float.round (origin +. ((float_of_int v -. origin) *. factor)))
    in
    List.iter
      (fun it ->
        let old_bbox = it.bbox in
        it.coords <-
          Array.mapi
            (fun i v -> if i mod 2 = 0 then sc xo xs v else sc yo ys v)
            it.coords;
        item_changed w s it ~old_bbox)
      (resolve w s spec);
    ok ""
  | [ _; "coords"; spec ] ->
    let it = find_item s spec in
    ok
      (Tcl.Tcl_list.format
         (Array.to_list (Array.map string_of_int it.coords)))
  | _ :: "coords" :: spec :: (_ :: _ as words) ->
    let it = find_item s spec in
    (* Replacement coordinates must match the item kind's arity, and a
       word that does not parse leaves the item as it was. *)
    let coords = new_coords it.kind (List.length words) in
    ignore (fill_coords coords 0 words);
    let old_bbox = it.bbox in
    it.coords <- coords;
    item_changed w s it ~old_bbox;
    ok ""
  | [ _; "itemconfigure"; spec ] ->
    let it = first_item w s spec in
    ok
      (Tcl.Tcl_list.format
         (List.concat_map
            (fun o -> [ o; item_option_value it o ])
            item_option_names))
  | [ _; "itemconfigure"; spec; option ] ->
    let it = first_item w s spec in
    ok (item_option_value it option)
  | _ :: "itemconfigure" :: spec :: options ->
    List.iter
      (fun it ->
        let old_bbox = it.bbox in
        apply_item_options s it options;
        item_changed w s it ~old_bbox)
      (resolve w s spec);
    ok ""
  | _ :: "addtag" :: tag :: search_spec ->
    List.iter (fun it -> tag_add s it tag) (search w s search_spec);
    ok ""
  | [ _; "dtag"; spec ] ->
    (* One-argument form: the spec names both the items and the tag. *)
    List.iter (fun it -> tag_remove s it spec) (resolve ~strict:false w s spec);
    ok ""
  | [ _; "dtag"; spec; tag ] ->
    List.iter (fun it -> tag_remove s it tag) (resolve w s spec);
    ok ""
  | [ _; "gettags"; spec ] -> (
    match resolve ~strict:false w s spec with
    | it :: _ -> ok (Tcl.Tcl_list.format it.tags)
    | [] -> ok "")
  | _ :: "bbox" :: (_ :: _ as specs) -> (
    let items = List.concat_map (fun sp -> resolve ~strict:false w s sp) specs in
    match items with
    | [] -> ok ""
    | first :: rest ->
      let u = List.fold_left (fun acc it -> Geom.union acc it.bbox) first.bbox rest in
      ok
        (Printf.sprintf "%d %d %d %d" u.Geom.rx u.Geom.ry
           (u.Geom.rx + u.Geom.rwidth)
           (u.Geom.ry + u.Geom.rheight)))
  | _ :: "find" :: search_spec ->
    if List.length search_spec > 5 then raise Tcl.Interp.Usage;
    ids_result (search w s search_spec)
  | [ _; "raise"; spec ] ->
    (* Fresh top serials in relative order: O(moved), not O(items). *)
    List.iter
      (fun it ->
        s.dead_keys <- it.zserial :: s.dead_keys;
        it.zserial <- s.next_top;
        s.next_top <- s.next_top + 1;
        it.dirty <- true;
        damage_item w it)
      (resolve w s spec);
    ok ""
  | [ _; "lower"; spec ] ->
    List.iter
      (fun it ->
        s.dead_keys <- it.zserial :: s.dead_keys;
        it.zserial <- s.next_bottom;
        s.next_bottom <- s.next_bottom - 1;
        it.dirty <- true;
        damage_item w it)
      (List.rev (resolve w s spec));
    ok ""
  | [ _; "raise"; spec; above ] ->
    relative_restack w s spec ~ref_spec:above ~above:true;
    ok ""
  | [ _; "lower"; spec; below ] ->
    relative_restack w s spec ~ref_spec:below ~above:false;
    ok ""
  | [ _; "type"; spec ] -> ok (kind_name (find_item s spec).kind)
  | [ _; "itemcount" ] -> ok (string_of_int s.len)
  | _ -> raise Tcl.Interp.Usage

(* Relative raise/lower renumbers the whole display order, which strands
   every item's retained ops under stale keys — deopt to a full redraw. *)
and relative_restack w s spec ~ref_spec ~above =
  let moved = resolve w s spec in
  if moved <> [] then begin
    let reference =
      match resolve w s ref_spec with
      | [] -> failf "item \"%s\" doesn't exist" ref_spec
      | items -> if above then List.hd (List.rev items) else List.hd items
    in
    let in_moved it = List.exists (fun m -> m == it) moved in
    if in_moved reference then
      failf "can't place items relative to themselves"
    else begin
      let rest =
        List.filter (fun it -> not (in_moved it))
          (by_display_order (live_items s))
      in
      let ordered =
        List.concat_map
          (fun it ->
            if it == reference then
              if above then it :: moved else moved @ [ it ]
            else [ it ])
          rest
      in
      List.iteri (fun i it -> it.zserial <- i + 1) ordered;
      s.next_top <- List.length ordered + 1;
      s.next_bottom <- 0;
      Tk.Core.schedule_redraw w
    end
  end

let compute_geometry w =
  Tk.Core.request_size w
    ~width:(Tk.Core.get_pixels w "-width")
    ~height:(Tk.Core.get_pixels w "-height")

let specs =
  Tk.Core.
    [
      spec ~switch:"-width" ~db:"width" ~cls:"Width" ~default:"200" Ot_pixels;
      spec ~switch:"-height" ~db:"height" ~cls:"Height" ~default:"150"
        Ot_pixels;
      spec ~switch:"-background" ~db:"background" ~cls:"Background"
        ~default:"white" Ot_color;
      spec ~switch:"-bg" ~db:"background" ~cls:"Background" ~default:"white"
        Ot_color;
      spec ~switch:"-font" ~db:"font" ~cls:"Font" ~default:"fixed" Ot_font;
      spec ~switch:"-borderwidth" ~db:"borderWidth" ~cls:"BorderWidth"
        ~default:"2" Ot_pixels;
      spec ~switch:"-relief" ~db:"relief" ~cls:"Relief" ~default:"sunken"
        Ot_relief;
    ]

let subs =
  Tcl.Interp.
    [
      subsig "create" 2;
      subsig "delete" 1;
      subsig "move" 3 ~max:3;
      subsig "scale" 5 ~max:5;
      subsig "coords" 1;
      subsig "itemconfigure" 1;
      subsig "addtag" 2;
      subsig "dtag" 1 ~max:2;
      subsig "gettags" 1 ~max:1;
      subsig "find" 1 ~max:5;
      subsig "bbox" 1;
      subsig "raise" 1 ~max:2;
      subsig "lower" 1 ~max:2;
      subsig "type" 1 ~max:1;
      subsig "itemcount" 0 ~max:0;
    ]

let make_class () =
  let cls = Tk.Core.make_class ~name:"Canvas" ~specs ~subs () in
  cls.Tk.Core.configure_hook <-
    (fun w ->
      Tk.Core.absorb w.Tk.Core.app ~default:() (fun () ->
          Server.set_window_background w.Tk.Core.app.Tk.Core.conn
            w.Tk.Core.win
            (Tk.Core.get_color w "-background"));
      compute_geometry w;
      Tk.Core.schedule_redraw w);
  cls.Tk.Core.display <- display;
  cls.Tk.Core.display_damaged <- Some display_damaged;
  cls.Tk.Core.subcommands <- subcommands;
  cls

let install ?(index = true) app =
  Wutil.standard_creator app ~command:"canvas" ~make:make_class
    ~data:(fun () -> Canvas_data (new_state ~index))
    ()
