(* One character cell per "fixed"-font character: 6x13 pixels. Text drawn
   in the default font then lands exactly one glyph per cell. *)
let scale_x = 6
let scale_y = 13

type canvas = {
  grid : char array array; (* grid.(row).(col) *)
  origin : Geom.point; (* root coords of cell (0,0) *)
  cols : int;
  rows : int;
}

let cell_of_px canvas ~x ~y =
  ((y - canvas.origin.Geom.y) / scale_y, (x - canvas.origin.Geom.x) / scale_x)

let put canvas ~row ~col c =
  if row >= 0 && row < canvas.rows && col >= 0 && col < canvas.cols then
    canvas.grid.(row).(col) <- c

(* Choose a fill character from a color's luminance. *)
let shade color =
  let l = Color.luminance color in
  if l > 0.85 then ' '
  else if l > 0.6 then '.'
  else if l > 0.35 then ':'
  else '#'

let fill_rect canvas ~clip rect color =
  match Geom.intersect rect clip with
  | None -> ()
  | Some r ->
    let c = shade color in
    let row0, col0 = cell_of_px canvas ~x:r.Geom.rx ~y:r.Geom.ry in
    let row1, col1 =
      cell_of_px canvas ~x:(r.Geom.rx + r.Geom.rwidth - 1)
        ~y:(r.Geom.ry + r.Geom.rheight - 1)
    in
    for row = row0 to row1 do
      for col = col0 to col1 do
        put canvas ~row ~col c
      done
    done

let outline_rect canvas ~clip rect ~corner ~horiz ~vert =
  match Geom.intersect rect clip with
  | None -> ()
  | Some _ ->
    let row0, col0 = cell_of_px canvas ~x:rect.Geom.rx ~y:rect.Geom.ry in
    let row1, col1 =
      cell_of_px canvas
        ~x:(rect.Geom.rx + rect.Geom.rwidth - 1)
        ~y:(rect.Geom.ry + rect.Geom.rheight - 1)
    in
    if row1 > row0 && col1 > col0 then begin
      for col = col0 + 1 to col1 - 1 do
        put canvas ~row:row0 ~col horiz;
        put canvas ~row:row1 ~col horiz
      done;
      for row = row0 + 1 to row1 - 1 do
        put canvas ~row ~col:col0 vert;
        put canvas ~row ~col:col1 vert
      done;
      put canvas ~row:row0 ~col:col0 corner;
      put canvas ~row:row0 ~col:col1 corner;
      put canvas ~row:row1 ~col:col0 corner;
      put canvas ~row:row1 ~col:col1 corner
    end

let draw_text canvas ~clip ~x ~y text =
  (* [y] is a baseline; place the text in the cell row containing it. *)
  let y = y - (scale_y / 2) in
  let row, col0 = cell_of_px canvas ~x ~y in
  String.iteri
    (fun i c ->
      if Geom.contains clip { Geom.x = x + (i * scale_x); y } then
        put canvas ~row ~col:(col0 + i) c)
    text

let draw_line canvas ~clip ~x1 ~y1 ~x2 ~y2 color =
  let c = if Color.luminance color > 0.6 then '.' else (if y1 = y2 then '-' else '|') in
  if y1 = y2 then begin
    let row, _ = cell_of_px canvas ~x:x1 ~y:y1 in
    let x0 = min x1 x2 and x3 = max x1 x2 in
    let _, col0 = cell_of_px canvas ~x:x0 ~y:y1 in
    let _, col1 = cell_of_px canvas ~x:x3 ~y:y1 in
    for col = col0 to col1 do
      let px = canvas.origin.Geom.x + (col * scale_x) in
      if Geom.contains clip { Geom.x = px; y = y1 } then put canvas ~row ~col c
    done
  end
  else if x1 = x2 then begin
    let _, col = cell_of_px canvas ~x:x1 ~y:y1 in
    let y0 = min y1 y2 and y3 = max y1 y2 in
    let row0, _ = cell_of_px canvas ~x:x1 ~y:y0 in
    let row1, _ = cell_of_px canvas ~x:x1 ~y:y3 in
    for row = row0 to row1 do
      let py = canvas.origin.Geom.y + (row * scale_y) in
      if Geom.contains clip { Geom.x = x1; y = py } then put canvas ~row ~col c
    done
  end
  else begin
    (* Diagonals: mark endpoints only (enough for diagnostics). *)
    let mark x y =
      if Geom.contains clip { Geom.x = x; y } then begin
        let row, col = cell_of_px canvas ~x ~y in
        put canvas ~row ~col '*'
      end
    in
    mark x1 y1;
    mark x2 y2
  end

let draw_relief canvas ~clip rect ~raised =
  if raised then outline_rect canvas ~clip rect ~corner:'+' ~horiz:'-' ~vert:'|'
  else outline_rect canvas ~clip rect ~corner:'.' ~horiz:'-' ~vert:'|'

(* A WM_NAME property makes the window manager decorate the window with a
   title bar (one cell row above the window, as twm did in Figure 10). *)
let draw_title_bar canvas w bounds =
  match Hashtbl.find_opt w.Window.properties Atom.wm_name with
  | None -> ()
  | Some { Window.prop_data = title; _ } ->
    (* Window-manager decoration sits above the client area and is not
       subject to client clipping; the canvas bounds guard in [put] is
       enough. *)
    let row, col0 =
      cell_of_px canvas ~x:bounds.Geom.rx ~y:(bounds.Geom.ry - scale_y)
    in
    let cols = bounds.Geom.rwidth / scale_x in
    for col = col0 to col0 + cols - 1 do
      put canvas ~row ~col '='
    done;
    let label = " " ^ title ^ " " in
    let start = col0 + max 0 ((cols - String.length label) / 2) in
    String.iteri
      (fun i c ->
        if start + i < col0 + cols then put canvas ~row ~col:(start + i) c)
      label

(* Draw one window (background, border, display list), then recurse into
   children in stacking order. *)
let rec draw_window canvas ~clip w =
  if w.Window.mapped && not w.Window.destroyed then begin
    let bounds = Window.bounds w in
    draw_title_bar canvas w bounds;
    match Geom.intersect bounds clip with
    | None -> ()
    | Some inner_clip ->
      (* Border: one-cell frame just outside the content area. *)
      if w.Window.border_width > 0 then begin
        let frame =
          Geom.rect
            ~x:(bounds.Geom.rx - w.Window.border_width)
            ~y:(bounds.Geom.ry - w.Window.border_width)
            ~width:(bounds.Geom.rwidth + (2 * w.Window.border_width))
            ~height:(bounds.Geom.rheight + (2 * w.Window.border_width))
        in
        outline_rect canvas ~clip frame ~corner:'+' ~horiz:'-' ~vert:'|'
      end;
      (match w.Window.background with
      | Some color -> fill_rect canvas ~clip:inner_clip bounds color
      | None -> ());
      let origin = Window.root_position w in
      let to_root r =
        Geom.translate r ~dx:origin.Geom.x ~dy:origin.Geom.y
      in
      List.iter
        (fun op ->
          match op with
          | Window.Fill_rect (r, color) ->
            fill_rect canvas ~clip:inner_clip (to_root r) color
          | Window.Draw_rect (r, color) ->
            let c = if Color.luminance color > 0.6 then '.' else '-' in
            outline_rect canvas ~clip:inner_clip (to_root r) ~corner:'+'
              ~horiz:c
              ~vert:(if c = '-' then '|' else '.')
          | Window.Draw_text { tx; ty; text; color = _; font = _ } ->
            draw_text canvas ~clip:inner_clip ~x:(origin.Geom.x + tx)
              ~y:(origin.Geom.y + ty) text
          | Window.Draw_line { x1; y1; x2; y2; color } ->
            draw_line canvas ~clip:inner_clip ~x1:(origin.Geom.x + x1)
              ~y1:(origin.Geom.y + y1) ~x2:(origin.Geom.x + x2)
              ~y2:(origin.Geom.y + y2) color
          | Window.Draw_relief { rrect; raised; rwidth = _ } ->
            draw_relief canvas ~clip:inner_clip (to_root rrect) ~raised)
        (Window.ops_in_order w);
      List.iter (draw_window canvas ~clip:inner_clip) w.Window.children
  end

let render_region server region =
  let cols = max 1 ((region.Geom.rwidth + scale_x - 1) / scale_x) in
  let rows = max 1 ((region.Geom.rheight + scale_y - 1) / scale_y) in
  let canvas =
    {
      grid = Array.make_matrix rows cols ' ';
      origin = { Geom.x = region.Geom.rx; y = region.Geom.ry };
      cols;
      rows;
    }
  in
  draw_window canvas ~clip:region (Server.root_window server);
  let buf = Buffer.create (rows * (cols + 1)) in
  Array.iter
    (fun row ->
      (* Trim trailing blanks per line for readable dumps. *)
      let line = String.init cols (Array.get row) in
      let len = ref (String.length line) in
      while !len > 0 && line.[!len - 1] = ' ' do
        decr len
      done;
      Buffer.add_string buf (String.sub line 0 !len);
      Buffer.add_char buf '\n')
    canvas.grid;
  Buffer.contents buf

let render server ?window () =
  let target =
    match window with
    | Some id -> (
      match Server.lookup_window server id with
      | Some w -> w
      | None -> Server.root_window server)
    | None -> Server.root_window server
  in
  let bounds = Window.bounds target in
  let bw = target.Window.border_width in
  (* Leave room for the window manager's title bar when there is one. *)
  let title_h =
    if Hashtbl.mem target.Window.properties Atom.wm_name then scale_y else 0
  in
  let bounds =
    Geom.rect ~x:(bounds.Geom.rx - bw)
      ~y:(bounds.Geom.ry - bw - title_h)
      ~width:(bounds.Geom.rwidth + (2 * bw))
      ~height:(bounds.Geom.rheight + (2 * bw) + title_h)
  in
  render_region server bounds
