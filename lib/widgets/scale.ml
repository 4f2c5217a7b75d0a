open Xsim

let failf = Tcl.Interp.failf

type state = { mutable value : int }

type Tk.Core.wdata += Scale_data of state

let data w =
  match w.Tk.Core.data with
  | Scale_data s -> s
  | _ -> failf "%s is not a scale" w.Tk.Core.path

let specs =
  Tk.Core.
    [
      spec ~switch:"-from" ~db:"from" ~cls:"From" ~default:"0" Ot_int;
      spec ~switch:"-to" ~db:"to" ~cls:"To" ~default:"100" Ot_int;
      spec ~switch:"-length" ~db:"length" ~cls:"Length" ~default:"100"
        Ot_pixels;
      spec ~switch:"-width" ~db:"width" ~cls:"Width" ~default:"15" Ot_pixels;
      spec ~switch:"-orient" ~db:"orient" ~cls:"Orient" ~default:"horizontal"
        Ot_string;
      spec ~switch:"-command" ~db:"command" ~cls:"Command" ~default:""
        Ot_string;
      spec ~switch:"-label" ~db:"label" ~cls:"Label" ~default:"" Ot_string;
      spec ~switch:"-showvalue" ~db:"showValue" ~cls:"ShowValue" ~default:"1"
        Ot_boolean;
      spec ~switch:"-font" ~db:"font" ~cls:"Font" ~default:"fixed" Ot_font;
      spec ~switch:"-foreground" ~db:"foreground" ~cls:"Foreground"
        ~default:"black" Ot_color;
      spec ~switch:"-fg" ~db:"foreground" ~cls:"Foreground" ~default:"black"
        Ot_color;
      spec ~switch:"-background" ~db:"background" ~cls:"Background"
        ~default:"#cccccc" Ot_color;
      spec ~switch:"-bg" ~db:"background" ~cls:"Background" ~default:"#cccccc"
        Ot_color;
      spec ~switch:"-borderwidth" ~db:"borderWidth" ~cls:"BorderWidth"
        ~default:"2" Ot_pixels;
      spec ~switch:"-relief" ~db:"relief" ~cls:"Relief" ~default:"flat"
        Ot_relief;
    ]

let horizontal w = Tk.Core.get_string w "-orient" <> "vertical"

let bounds w = (Tk.Core.get_int w "-from", Tk.Core.get_int w "-to")

let clamp w v =
  let lo, hi = bounds w in
  let lo, hi = (min lo hi, max lo hi) in
  max lo (min hi v)

let set_value w v ~notify =
  let s = data w in
  let v = clamp w v in
  if v <> s.value then begin
    s.value <- v;
    Tk.Core.schedule_redraw w;
    if notify then begin
      let command = Tk.Core.get_string w "-command" in
      if command <> "" then
        Wutil.invoke_widget_script w (command ^ " " ^ string_of_int v)
    end
  end

let value_at w pos =
  let lo, hi = bounds w in
  let length = max 1 (Tk.Core.get_pixels w "-length") in
  lo + ((hi - lo) * max 0 (min pos length) / length)

let handle_event w (event : Event.t) =
  match event with
  | Event.Button_press { button = 1; bx; by; _ } ->
    set_value w (value_at w (if horizontal w then bx else by)) ~notify:true
  | Event.Motion { mx; my; motion_state; _ } when motion_state.Event.button1 ->
    set_value w (value_at w (if horizontal w then mx else my)) ~notify:true
  | _ -> ()

let display w =
  let s = data w in
  let app = w.Tk.Core.app in
  let font = Wutil.widget_font w in
  Wutil.draw_background w ();
  Wutil.draw_relief_border w ();
  let gc = Tk.Core.widget_gc w ~fg:"-foreground" ~font:"-font" () in
  let label = Tk.Core.get_string w "-label" in
  let show = Tk.Core.get_boolean w "-showvalue" in
  let header =
    match (label, show) with
    | "", true -> string_of_int s.value
    | "", false -> ""
    | l, true -> Printf.sprintf "%s: %d" l s.value
    | l, false -> l
  in
  if header <> "" then
    Server.draw_text app.Tk.Core.conn w.Tk.Core.win gc ~x:4 ~y:font.Font.ascent
      header;
  let lo, hi = bounds w in
  let length = max 1 (Tk.Core.get_pixels w "-length") in
  let frac =
    if hi = lo then 0.0
    else float_of_int (s.value - lo) /. float_of_int (hi - lo)
  in
  let pos = int_of_float (frac *. float_of_int length) in
  let track_y = w.Tk.Core.height - 10 in
  if horizontal w then begin
    Server.draw_line app.Tk.Core.conn w.Tk.Core.win gc ~x1:0 ~y1:track_y
      ~x2:length ~y2:track_y;
    Server.fill_rect app.Tk.Core.conn w.Tk.Core.win gc
      (Geom.rect ~x:(max 0 (pos - 4)) ~y:(track_y - 6) ~width:8 ~height:12)
  end
  else begin
    Server.draw_line app.Tk.Core.conn w.Tk.Core.win gc ~x1:(w.Tk.Core.width / 2)
      ~y1:0 ~x2:(w.Tk.Core.width / 2) ~y2:length;
    Server.fill_rect app.Tk.Core.conn w.Tk.Core.win gc
      (Geom.rect
         ~x:((w.Tk.Core.width / 2) - 6)
         ~y:(max 0 (pos - 4)) ~width:12 ~height:8)
  end

let compute_geometry w =
  let font = Wutil.widget_font w in
  let length = Tk.Core.get_pixels w "-length" in
  let width = Tk.Core.get_pixels w "-width" in
  let header = Font.line_height font + 4 in
  if horizontal w then
    Tk.Core.request_size w ~width:(length + 8) ~height:(width + header)
  else Tk.Core.request_size w ~width:(width + 40) ~height:(length + header)

let subcommands w words =
  let s = data w in
  let ok = Tcl.Interp.ok in
  match words with
  | [ _; "get" ] -> ok (string_of_int s.value)
  | [ _; "set"; v ] -> (
    match int_of_string_opt v with
    | Some v ->
      set_value w v ~notify:false;
      ok ""
    | None -> failf "expected integer but got \"%s\"" v)
  | _ -> raise Tcl.Interp.Usage

let subs = Tcl.Interp.[ subsig "get" 0 ~max:0; subsig "set" 1 ~max:1 ]

let make_class () =
  let cls = Tk.Core.make_class ~name:"Scale" ~specs ~subs () in
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
  Wutil.standard_creator app ~command:"scale" ~make:make_class
    ~data:(fun () -> Scale_data { value = 0 })
    ()
