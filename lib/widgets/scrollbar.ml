open Xsim

let failf = Tcl.Interp.failf

type state = {
  mutable total : int;
  mutable window : int;
  mutable first : int;
  mutable last : int;
  mutable dragging : int option; (* pixel offset of press within slider *)
}

type Tk.Core.wdata += Scrollbar_data of state

let data w =
  match w.Tk.Core.data with
  | Scrollbar_data s -> s
  | _ -> failf "%s is not a scrollbar" w.Tk.Core.path

let view_state w =
  let s = data w in
  (s.total, s.window, s.first, s.last)

let specs =
  Tk.Core.
    [
      spec ~switch:"-command" ~db:"command" ~cls:"Command" ~default:""
        Ot_string;
      spec ~switch:"-orient" ~db:"orient" ~cls:"Orient" ~default:"vertical"
        Ot_string;
      spec ~switch:"-width" ~db:"width" ~cls:"Width" ~default:"15" Ot_pixels;
      spec ~switch:"-length" ~db:"length" ~cls:"Length" ~default:"100"
        Ot_pixels;
      spec ~switch:"-foreground" ~db:"foreground" ~cls:"Foreground"
        ~default:"gray50" Ot_color;
      spec ~switch:"-fg" ~db:"foreground" ~cls:"Foreground" ~default:"gray50"
        Ot_color;
      spec ~switch:"-background" ~db:"background" ~cls:"Background"
        ~default:"#cccccc" Ot_color;
      spec ~switch:"-bg" ~db:"background" ~cls:"Background" ~default:"#cccccc"
        Ot_color;
      spec ~switch:"-borderwidth" ~db:"borderWidth" ~cls:"BorderWidth"
        ~default:"2" Ot_pixels;
      spec ~switch:"-relief" ~db:"relief" ~cls:"Relief" ~default:"sunken"
        Ot_relief;
    ]

let vertical w = Tk.Core.get_string w "-orient" <> "horizontal"

let arrow_size w = Tk.Core.get_pixels w "-width"

(* The pixel span available to the slider (between the two arrows). *)
let trough_span w =
  let length = if vertical w then w.Tk.Core.height else w.Tk.Core.width in
  max 1 (length - (2 * arrow_size w))

(* Slider position in pixels within the trough. *)
let slider_extent w =
  let s = data w in
  let span = trough_span w in
  if s.total <= 0 then (0, span)
  else
    let clamp v = max 0 (min span v) in
    let start = clamp (s.first * span / s.total) in
    let stop = clamp ((s.last + 1) * span / s.total) in
    (start, max (start + 4) stop)

(* Ask the controlled widget to scroll so that [unit] is first. *)
let scroll_to w unit =
  let command = Tk.Core.get_string w "-command" in
  if command <> "" then
    Wutil.invoke_widget_script w (command ^ " " ^ string_of_int unit)

let unit_at w pos =
  let s = data w in
  let span = trough_span w in
  if s.total <= 0 then 0 else (pos - arrow_size w) * s.total / span

let handle_press w ~x ~y =
  let s = data w in
  let pos = if vertical w then y else x in
  let length = if vertical w then w.Tk.Core.height else w.Tk.Core.width in
  let asize = arrow_size w in
  if pos < asize then scroll_to w (s.first - 1)
  else if pos >= length - asize then scroll_to w (s.first + 1)
  else begin
    let start, stop = slider_extent w in
    let tp = pos - asize in
    if tp < start then scroll_to w (max 0 (s.first - s.window))
    else if tp >= stop then scroll_to w (s.first + s.window)
    else s.dragging <- Some (tp - start)
  end

let handle_drag w ~x ~y =
  let s = data w in
  match s.dragging with
  | None -> ()
  | Some grab ->
    let pos = if vertical w then y else x in
    let tp = pos - arrow_size w - grab in
    scroll_to w (unit_at w (tp + arrow_size w))

let handle_event w (event : Event.t) =
  let s = data w in
  match event with
  | Event.Button_press { button = 1; bx; by; _ } -> handle_press w ~x:bx ~y:by
  | Event.Motion { mx; my; motion_state; _ } when motion_state.Event.button1 ->
    handle_drag w ~x:mx ~y:my
  | Event.Button_release { button = 1; _ } -> s.dragging <- None
  | _ -> ()

let display w =
  let app = w.Tk.Core.app in
  Wutil.draw_background w ();
  Wutil.draw_relief_border w ();
  let gc = Tk.Core.widget_gc w ~fg:"-foreground" () in
  let asize = arrow_size w in
  let start, stop = slider_extent w in
  if vertical w then begin
    (* Arrows *)
    Server.draw_text app.Tk.Core.conn w.Tk.Core.win gc ~x:(w.Tk.Core.width / 2)
      ~y:(asize / 2) "^";
    Server.draw_text app.Tk.Core.conn w.Tk.Core.win gc ~x:(w.Tk.Core.width / 2)
      ~y:(w.Tk.Core.height - (asize / 2)) "v";
    Server.fill_rect app.Tk.Core.conn w.Tk.Core.win gc
      (Geom.rect ~x:3 ~y:(asize + start) ~width:(w.Tk.Core.width - 6)
         ~height:(stop - start))
  end
  else begin
    Server.draw_text app.Tk.Core.conn w.Tk.Core.win gc ~x:(asize / 2)
      ~y:(w.Tk.Core.height / 2) "<";
    Server.draw_text app.Tk.Core.conn w.Tk.Core.win gc
      ~x:(w.Tk.Core.width - (asize / 2))
      ~y:(w.Tk.Core.height / 2) ">";
    Server.fill_rect app.Tk.Core.conn w.Tk.Core.win gc
      (Geom.rect ~x:(asize + start) ~y:3 ~width:(stop - start)
         ~height:(w.Tk.Core.height - 6))
  end

let compute_geometry w =
  let width = Tk.Core.get_pixels w "-width" in
  let length = Tk.Core.get_pixels w "-length" in
  if vertical w then Tk.Core.request_size w ~width ~height:length
  else Tk.Core.request_size w ~width:length ~height:width

let subcommands w words =
  let s = data w in
  let ok = Tcl.Interp.ok in
  match words with
  | [ _; "set"; total; window; first; last ] -> (
    match
      ( int_of_string_opt total,
        int_of_string_opt window,
        int_of_string_opt first,
        int_of_string_opt last )
    with
    | Some total, Some window, Some first, Some last ->
      s.total <- total;
      s.window <- window;
      s.first <- first;
      s.last <- last;
      Tk.Core.schedule_redraw w;
      ok ""
    | _ -> failf "non-integer argument to %s set" w.Tk.Core.path)
  | [ _; "get" ] ->
    ok
      (Tcl.Tcl_list.format
         (List.map string_of_int [ s.total; s.window; s.first; s.last ]))
  | _ -> raise Tcl.Interp.Usage

let subs = Tcl.Interp.[ subsig "set" 4 ~max:4; subsig "get" 0 ~max:0 ]

let make_class () =
  let cls = Tk.Core.make_class ~name:"Scrollbar" ~specs ~subs () in
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
  Wutil.standard_creator app ~command:"scrollbar" ~make:make_class
    ~data:(fun () ->
      Scrollbar_data { total = 0; window = 1; first = 0; last = 0; dragging = None })
    ()
