open Xsim

let failf = Tcl.Interp.failf

type state = { mutable text : string; mutable cursor : int; mutable focused : bool }

type Tk.Core.wdata += Entry_data of state

let data w =
  match w.Tk.Core.data with
  | Entry_data s -> s
  | _ -> failf "%s is not an entry" w.Tk.Core.path

let contents w = (data w).text

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
      spec ~switch:"-width" ~db:"width" ~cls:"Width" ~default:"20" Ot_int;
      spec ~switch:"-borderwidth" ~db:"borderWidth" ~cls:"BorderWidth"
        ~default:"2" Ot_pixels;
      spec ~switch:"-relief" ~db:"relief" ~cls:"Relief" ~default:"sunken"
        Ot_relief;
    ]

let clamp_cursor s =
  s.cursor <- max 0 (min s.cursor (String.length s.text))

let insert_at w i text =
  let s = data w in
  let i = max 0 (min i (String.length s.text)) in
  s.text <-
    String.sub s.text 0 i ^ text
    ^ String.sub s.text i (String.length s.text - i);
  if s.cursor >= i then s.cursor <- s.cursor + String.length text;
  clamp_cursor s;
  Tk.Core.schedule_redraw w

let delete_range w first last =
  let s = data w in
  let n = String.length s.text in
  let first = max 0 (min first n) in
  let last = max first (min last n) in
  s.text <- String.sub s.text 0 first ^ String.sub s.text last (n - last);
  if s.cursor > first then s.cursor <- max first (s.cursor - (last - first));
  clamp_cursor s;
  Tk.Core.schedule_redraw w

let handle_key w keysym =
  let s = data w in
  match keysym with
  | "BackSpace" -> if s.cursor > 0 then delete_range w (s.cursor - 1) s.cursor
  | "Delete" ->
    if s.cursor < String.length s.text then
      delete_range w s.cursor (s.cursor + 1)
  | "Left" ->
    s.cursor <- max 0 (s.cursor - 1);
    Tk.Core.schedule_redraw w
  | "Right" ->
    s.cursor <- min (String.length s.text) (s.cursor + 1);
    Tk.Core.schedule_redraw w
  | "Home" ->
    s.cursor <- 0;
    Tk.Core.schedule_redraw w
  | "End" ->
    s.cursor <- String.length s.text;
    Tk.Core.schedule_redraw w
  | "Return" | "Tab" | "Escape" -> ()
  | _ -> (
    match Event.char_of_keysym keysym with
    | Some c when c >= ' ' && c < '\127' ->
      insert_at w s.cursor (String.make 1 c)
    | Some _ | None -> ())

let handle_event w (event : Event.t) =
  let s = data w in
  match event with
  | Event.Key_press { keysym; key_state; _ } ->
    (* Control-modified keys are left entirely to Tcl bindings, so users
       can add things like the paper's Control-w word-backspace. *)
    if not key_state.Event.control then handle_key w keysym
  | Event.Button_press { button = 1; bx; _ } ->
    let font = Wutil.widget_font w in
    let bw = Tk.Core.get_pixels w "-borderwidth" in
    s.cursor <-
      max 0
        (min (String.length s.text) ((bx - bw - 2) / font.Font.char_width));
    Tk.Core.set_focus w.Tk.Core.app (Some w.Tk.Core.path);
    Tk.Core.schedule_redraw w
  | Event.Focus_in ->
    s.focused <- true;
    Tk.Core.schedule_redraw w
  | Event.Focus_out ->
    s.focused <- false;
    Tk.Core.schedule_redraw w
  | _ -> ()

let display w =
  let s = data w in
  let app = w.Tk.Core.app in
  let font = Wutil.widget_font w in
  Wutil.draw_background w ();
  Wutil.draw_relief_border w ();
  let gc = Tk.Core.widget_gc w ~fg:"-foreground" ~font:"-font" () in
  let bw = Tk.Core.get_pixels w "-borderwidth" in
  let x0 = bw + 2 in
  let baseline = ((w.Tk.Core.height - Font.line_height font) / 2) + font.Font.ascent in
  Server.draw_text app.Tk.Core.conn w.Tk.Core.win gc ~x:x0 ~y:baseline s.text;
  if s.focused then
    (* Caret: a vertical line just after the cursor position. *)
    Server.draw_line app.Tk.Core.conn w.Tk.Core.win gc
      ~x1:(x0 + (s.cursor * font.Font.char_width))
      ~y1:(baseline - font.Font.ascent)
      ~x2:(x0 + (s.cursor * font.Font.char_width))
      ~y2:(baseline + font.Font.descent)

let compute_geometry w =
  let font = Wutil.widget_font w in
  let chars = Tk.Core.get_int w "-width" in
  let bw = Tk.Core.get_pixels w "-borderwidth" in
  Tk.Core.request_size w
    ~width:((chars * font.Font.char_width) + (2 * bw) + 4)
    ~height:(Font.line_height font + (2 * bw) + 4)

let parse_index w spec =
  let s = data w in
  match spec with
  | "end" -> String.length s.text
  | "cursor" -> s.cursor
  | _ -> (
    match int_of_string_opt spec with
    | Some i -> i
    | None -> failf "bad entry index \"%s\"" spec)

let subcommands w words =
  let s = data w in
  let ok = Tcl.Interp.ok in
  match words with
  | [ _; "get" ] -> ok s.text
  | [ _; "insert"; index; text ] ->
    insert_at w (parse_index w index) text;
    ok ""
  | [ _; "delete"; first ] ->
    let i = parse_index w first in
    delete_range w i (i + 1);
    ok ""
  | [ _; "delete"; first; last ] ->
    delete_range w (parse_index w first) (parse_index w last);
    ok ""
  | [ _; "icursor"; index ] ->
    s.cursor <- parse_index w index;
    clamp_cursor s;
    Tk.Core.schedule_redraw w;
    ok ""
  | [ _; "index"; index ] -> ok (string_of_int (parse_index w index))
  | _ -> raise Tcl.Interp.Usage

let subs =
  Tcl.Interp.
    [
      subsig "get" 0 ~max:0;
      subsig "insert" 2 ~max:2;
      subsig "delete" 1 ~max:2;
      subsig "icursor" 1 ~max:1;
      subsig "index" 1 ~max:1;
    ]

let make_class () =
  let cls = Tk.Core.make_class ~name:"Entry" ~specs ~subs () in
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
  Wutil.standard_creator app ~command:"entry" ~make:make_class
    ~data:(fun () -> Entry_data { text = ""; cursor = 0; focused = false })
    ()
