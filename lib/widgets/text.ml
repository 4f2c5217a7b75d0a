open Xsim

let failf = Tcl.Interp.failf

type position = int * int (* line (1-based), char (0-based) *)

type state = {
  mutable lines : string array; (* always at least one line *)
  mutable cursor : position;
  mutable top : int; (* first visible line, 1-based *)
  mutable sel : (position * position) option; (* normalized: start <= stop *)
  mutable anchor : position;
  mutable focused : bool;
}

type Tk.Core.wdata += Text_data of state

let data w =
  match w.Tk.Core.data with
  | Text_data s -> s
  | _ -> failf "%s is not a text widget" w.Tk.Core.path

let contents w = String.concat "\n" (Array.to_list (data w).lines)

let cursor w = (data w).cursor

let specs =
  Tk.Core.
    [
      spec ~switch:"-font" ~db:"font" ~cls:"Font" ~default:"fixed" Ot_font;
      spec ~switch:"-foreground" ~db:"foreground" ~cls:"Foreground"
        ~default:"black" Ot_color;
      spec ~switch:"-fg" ~db:"foreground" ~cls:"Foreground" ~default:"black"
        Ot_color;
      spec ~switch:"-background" ~db:"background" ~cls:"Background"
        ~default:"white" Ot_color;
      spec ~switch:"-bg" ~db:"background" ~cls:"Background" ~default:"white"
        Ot_color;
      spec ~switch:"-selectbackground" ~db:"selectBackground" ~cls:"Foreground"
        ~default:"gray75" Ot_color;
      spec ~switch:"-width" ~db:"width" ~cls:"Width" ~default:"40" Ot_int;
      spec ~switch:"-height" ~db:"height" ~cls:"Height" ~default:"10" Ot_int;
      spec ~switch:"-borderwidth" ~db:"borderWidth" ~cls:"BorderWidth"
        ~default:"2" Ot_pixels;
      spec ~switch:"-relief" ~db:"relief" ~cls:"Relief" ~default:"sunken"
        Ot_relief;
      spec ~switch:"-scroll" ~db:"scrollCommand" ~cls:"ScrollCommand"
        ~default:"" Ot_string;
    ]

(* ------------------------------------------------------------------ *)
(* Positions *)

let clamp_position s (line, char) =
  let line = max 1 (min line (Array.length s.lines)) in
  let char = max 0 (min char (String.length s.lines.(line - 1))) in
  (line, char)

let end_position s =
  let last = Array.length s.lines in
  (last, String.length s.lines.(last - 1))

let parse_index w spec =
  let s = data w in
  match spec with
  | "end" -> end_position s
  | "insert" | "cursor" -> s.cursor
  | _ -> (
    match String.index_opt spec '.' with
    | Some i -> (
      let l = String.sub spec 0 i in
      let c = String.sub spec (i + 1) (String.length spec - i - 1) in
      match (int_of_string_opt l, c) with
      | Some l, "end" ->
        let l = max 1 (min l (Array.length s.lines)) in
        (l, String.length s.lines.(l - 1))
      | Some l, c -> (
        match int_of_string_opt c with
        | Some c -> clamp_position s (l, c)
        | None -> failf "bad text index \"%s\"" spec)
      | None, _ -> failf "bad text index \"%s\"" spec)
    | None -> failf "bad text index \"%s\"" spec)

let format_index (line, char) = Printf.sprintf "%d.%d" line char

let position_leq a b = compare a b <= 0

(* ------------------------------------------------------------------ *)
(* Buffer edits *)

let update_scroll w =
  let s = data w in
  let command = Tk.Core.get_string w "-scroll" in
  if command <> "" then begin
    let total = Array.length s.lines in
    let window = Tk.Core.get_int w "-height" in
    let first = s.top - 1 in
    let last = min (total - 1) (first + window - 1) in
    Wutil.invoke_widget_script w
      (Printf.sprintf "%s %d %d %d %d" command total window first last)
  end

let touch w =
  Tk.Core.schedule_redraw w;
  update_scroll w

let insert_at w (line, char) text =
  let s = data w in
  let line, char = clamp_position s (line, char) in
  let current = s.lines.(line - 1) in
  let before = String.sub current 0 char in
  let after = String.sub current char (String.length current - char) in
  let inserted = String.split_on_char '\n' (before ^ text ^ after) in
  let head = Array.sub s.lines 0 (line - 1) in
  let tail = Array.sub s.lines line (Array.length s.lines - line) in
  s.lines <- Array.concat [ head; Array.of_list inserted; tail ];
  (* Move the cursor if it sat at or after the insertion point. *)
  let new_cursor =
    let cl, cc = s.cursor in
    if (cl, cc) < (line, char) then s.cursor
    else begin
      let text_lines = String.split_on_char '\n' text in
      let added = List.length text_lines - 1 in
      if cl = line && cc >= char then
        if added = 0 then (cl, cc + String.length text)
        else
          ( cl + added,
            String.length (List.nth text_lines added) + (cc - char) )
      else (cl + added, cc)
    end
  in
  s.cursor <- clamp_position s new_cursor;
  s.sel <- None;
  touch w

let delete_range w p1 p2 =
  let s = data w in
  let (l1, c1), (l2, c2) =
    let a = clamp_position s p1 and b = clamp_position s p2 in
    if position_leq a b then (a, b) else (b, a)
  in
  let before = String.sub s.lines.(l1 - 1) 0 c1 in
  let last = s.lines.(l2 - 1) in
  let after = String.sub last c2 (String.length last - c2) in
  let head = Array.sub s.lines 0 (l1 - 1) in
  let tail = Array.sub s.lines l2 (Array.length s.lines - l2) in
  s.lines <- Array.concat [ head; [| before ^ after |]; tail ];
  if s.lines = [||] then s.lines <- [| "" |];
  s.cursor <- clamp_position s (l1, c1);
  s.sel <- None;
  s.top <- max 1 (min s.top (Array.length s.lines));
  touch w

let get_range w p1 p2 =
  let s = data w in
  let (l1, c1), (l2, c2) =
    let a = clamp_position s p1 and b = clamp_position s p2 in
    if position_leq a b then (a, b) else (b, a)
  in
  if l1 = l2 then String.sub s.lines.(l1 - 1) c1 (c2 - c1)
  else begin
    let buf = Buffer.create 64 in
    let first = s.lines.(l1 - 1) in
    Buffer.add_string buf (String.sub first c1 (String.length first - c1));
    for l = l1 + 1 to l2 - 1 do
      Buffer.add_char buf '\n';
      Buffer.add_string buf s.lines.(l - 1)
    done;
    Buffer.add_char buf '\n';
    Buffer.add_string buf (String.sub s.lines.(l2 - 1) 0 c2);
    Buffer.contents buf
  end

(* ------------------------------------------------------------------ *)
(* Selection *)

let claim_selection w =
  let provider () =
    let s = data w in
    match s.sel with None -> "" | Some (a, b) -> get_range w a b
  in
  Tk.Selection.own w ~provider

let set_selection w a b =
  let s = data w in
  let a = clamp_position s a and b = clamp_position s b in
  s.sel <- Some (if position_leq a b then (a, b) else (b, a));
  claim_selection w;
  Tk.Core.schedule_redraw w

(* ------------------------------------------------------------------ *)
(* Input behaviour *)

let position_at w ~x ~y =
  let s = data w in
  let font = Wutil.widget_font w in
  let bw = Tk.Core.get_pixels w "-borderwidth" in
  let line = s.top + ((y - bw) / Font.line_height font) in
  let char = (x - bw - 2) / font.Font.char_width in
  clamp_position s (line, char)

let handle_key w keysym =
  let s = data w in
  let l, c = s.cursor in
  match keysym with
  | "Return" ->
    insert_at w s.cursor "\n";
    s.cursor <- (l + 1, 0)
  | "BackSpace" ->
    if c > 0 then delete_range w (l, c - 1) (l, c)
    else if l > 1 then begin
      let prev_len = String.length s.lines.(l - 2) in
      delete_range w (l - 1, prev_len) (l, 0)
    end
  | "Delete" -> delete_range w (l, c) (l, c + 1)
  | "Left" ->
    s.cursor <- clamp_position s (if c > 0 then (l, c - 1) else (l - 1, max_int));
    Tk.Core.schedule_redraw w
  | "Right" ->
    let line_len = String.length s.lines.(l - 1) in
    s.cursor <- clamp_position s (if c < line_len then (l, c + 1) else (l + 1, 0));
    Tk.Core.schedule_redraw w
  | "Up" ->
    s.cursor <- clamp_position s (l - 1, c);
    Tk.Core.schedule_redraw w
  | "Down" ->
    s.cursor <- clamp_position s (l + 1, c);
    Tk.Core.schedule_redraw w
  | "Home" ->
    s.cursor <- (l, 0);
    Tk.Core.schedule_redraw w
  | "End" ->
    s.cursor <- (l, String.length s.lines.(l - 1));
    Tk.Core.schedule_redraw w
  | "Tab" | "Escape" -> ()
  | _ -> (
    match Event.char_of_keysym keysym with
    | Some ch when ch >= ' ' && ch < '\127' ->
      insert_at w s.cursor (String.make 1 ch)
    | Some _ | None -> ())

let handle_event w (event : Event.t) =
  let s = data w in
  match event with
  | Event.Key_press { keysym; key_state; _ } ->
    if not key_state.Event.control then handle_key w keysym
  | Event.Button_press { button = 1; bx; by; _ } ->
    let p = position_at w ~x:bx ~y:by in
    s.cursor <- p;
    s.anchor <- p;
    s.sel <- None;
    Tk.Core.set_focus w.Tk.Core.app (Some w.Tk.Core.path);
    Tk.Core.schedule_redraw w
  | Event.Motion { mx; my; motion_state; _ } when motion_state.Event.button1 ->
    set_selection w s.anchor (position_at w ~x:mx ~y:my)
  | Event.Selection_clear _ ->
    s.sel <- None;
    Tk.Core.schedule_redraw w
  | Event.Focus_in ->
    s.focused <- true;
    Tk.Core.schedule_redraw w
  | Event.Focus_out ->
    s.focused <- false;
    Tk.Core.schedule_redraw w
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Display *)

let display w =
  let s = data w in
  let app = w.Tk.Core.app in
  let font = Wutil.widget_font w in
  Wutil.draw_background w ();
  Wutil.draw_relief_border w ();
  let gc = Tk.Core.widget_gc w ~fg:"-foreground" ~font:"-font" () in
  let sel_gc = Tk.Core.widget_gc w ~fg:"-selectbackground" () in
  let bw = Tk.Core.get_pixels w "-borderwidth" in
  let lh = Font.line_height font in
  let rows = max 1 ((w.Tk.Core.height - (2 * bw)) / lh) in
  for row = 0 to rows - 1 do
    let l = s.top + row in
    if l <= Array.length s.lines then begin
      let y = bw + (row * lh) in
      (* Selection highlight for the covered span of this line. *)
      (match s.sel with
      | Some ((l1, c1), (l2, c2)) when l >= l1 && l <= l2 ->
        let line_len = String.length s.lines.(l - 1) in
        let from_c = if l = l1 then c1 else 0 in
        let to_c = if l = l2 then c2 else line_len in
        if to_c > from_c then
          Server.fill_rect app.Tk.Core.conn w.Tk.Core.win sel_gc
            (Geom.rect
               ~x:(bw + 2 + (from_c * font.Font.char_width))
               ~y
               ~width:((to_c - from_c) * font.Font.char_width)
               ~height:lh)
      | _ -> ());
      Server.draw_text app.Tk.Core.conn w.Tk.Core.win gc ~x:(bw + 2)
        ~y:(y + font.Font.ascent) s.lines.(l - 1)
    end
  done;
  (* The insertion cursor. *)
  if s.focused then begin
    let cl, cc = s.cursor in
    if cl >= s.top && cl < s.top + rows then begin
      let x = bw + 2 + (cc * font.Font.char_width) in
      let y = bw + ((cl - s.top) * lh) in
      Server.draw_line app.Tk.Core.conn w.Tk.Core.win gc ~x1:x ~y1:y ~x2:x
        ~y2:(y + lh - 1)
    end
  end

let compute_geometry w =
  let font = Wutil.widget_font w in
  let bw = Tk.Core.get_pixels w "-borderwidth" in
  Tk.Core.request_size w
    ~width:((Tk.Core.get_int w "-width" * font.Font.char_width) + (2 * bw) + 4)
    ~height:((Tk.Core.get_int w "-height" * Font.line_height font) + (2 * bw))

(* ------------------------------------------------------------------ *)
(* Widget command *)

let subcommands w words =
  let s = data w in
  let ok = Tcl.Interp.ok in
  match words with
  | [ _; "insert"; index; text ] ->
    insert_at w (parse_index w index) text;
    ok ""
  | [ _; "delete"; index ] ->
    let l, c = parse_index w index in
    delete_range w (l, c) (l, c + 1);
    ok ""
  | [ _; "delete"; index1; index2 ] ->
    delete_range w (parse_index w index1) (parse_index w index2);
    ok ""
  | [ _; "get"; index ] ->
    let l, c = parse_index w index in
    ok (get_range w (l, c) (l, c + 1))
  | [ _; "get"; index1; index2 ] ->
    ok (get_range w (parse_index w index1) (parse_index w index2))
  | [ _; "index"; index ] -> ok (format_index (parse_index w index))
  | [ _; "mark"; "set"; ("insert" | "cursor"); index ] ->
    s.cursor <- parse_index w index;
    Tk.Core.schedule_redraw w;
    ok ""
  | [ _; "mark"; ("insert" | "cursor") ] -> ok (format_index s.cursor)
  | [ _; ("view" | "yview") ] -> ok (string_of_int (s.top - 1))
  | [ _; ("view" | "yview"); line ] -> (
    match int_of_string_opt line with
    | Some l ->
      (* Scrollbars speak 0-based units. *)
      s.top <- max 1 (min (l + 1) (Array.length s.lines));
      touch w;
      ok ""
    | None -> failf "bad line number \"%s\"" line)
  | [ _; "tag"; "add"; "sel"; index1; index2 ] ->
    set_selection w (parse_index w index1) (parse_index w index2);
    ok ""
  | [ _; "tag"; "remove"; "sel" ] ->
    s.sel <- None;
    Tk.Core.schedule_redraw w;
    ok ""
  | [ _; "tag"; "ranges"; "sel" ] ->
    ok
      (match s.sel with
      | None -> ""
      | Some (a, b) ->
        Tcl.Tcl_list.format [ format_index a; format_index b ])
  | [ _; "lines" ] -> ok (string_of_int (Array.length s.lines))
  | _ -> raise Tcl.Interp.Usage

let subs =
  Tcl.Interp.
    [
      subsig "insert" 2 ~max:2;
      subsig "delete" 1 ~max:2;
      subsig "get" 1 ~max:2;
      subsig "index" 1 ~max:1;
      subsig "mark" 1 ~max:3
        ~subs:
          [
            subsig "set" 2 ~max:2
              ~subs:[ subsig "insert" 1 ~max:1; subsig "cursor" 1 ~max:1 ];
            subsig "insert" 0 ~max:0;
            subsig "cursor" 0 ~max:0;
          ];
      subsig "view" 0 ~max:1;
      subsig "yview" 0 ~max:1;
      subsig "tag" 2 ~max:4
        ~subs:
          [
            subsig "add" 3 ~max:3 ~subs:[ subsig "sel" 2 ~max:2 ];
            subsig "remove" 1 ~max:1 ~subs:[ subsig "sel" 0 ~max:0 ];
            subsig "ranges" 1 ~max:1 ~subs:[ subsig "sel" 0 ~max:0 ];
          ];
      subsig "lines" 0 ~max:0;
    ]

let make_class () =
  let cls = Tk.Core.make_class ~name:"Text" ~specs ~subs () in
  cls.Tk.Core.configure_hook <-
    (fun w ->
      Tk.Core.absorb w.Tk.Core.app ~default:() (fun () ->
          Server.set_window_background w.Tk.Core.app.Tk.Core.conn
            w.Tk.Core.win
            (Tk.Core.get_color w "-background"));
      compute_geometry w;
      Tk.Core.schedule_redraw w);
  cls.Tk.Core.display <- display;
  cls.Tk.Core.handle_event <- handle_event;
  cls.Tk.Core.subcommands <- subcommands;
  cls

let install app =
  Wutil.standard_creator app ~command:"text" ~make:make_class
    ~data:(fun () ->
      Text_data
        {
          lines = [| "" |];
          cursor = (1, 0);
          top = 1;
          sel = None;
          anchor = (1, 0);
          focused = false;
        })
    ()
