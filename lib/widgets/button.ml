open Xsim

let failf = Tcl.Interp.failf

type kind = Label | Push | Check | Radio

type state = {
  kind : kind;
  mutable active : bool;   (* pointer inside: use active colors *)
  mutable pressed : bool;  (* button 1 down: relief sunken *)
  mutable flashes : int;
}

type Tk.Core.wdata += Button_data of state

let data w =
  match w.Tk.Core.data with
  | Button_data s -> s
  | _ -> failf "%s is not a button-like widget" w.Tk.Core.path

let flash_count w = (data w).flashes

(* ------------------------------------------------------------------ *)
(* Option tables *)

let common_specs ~relief_default =
  Tk.Core.
    [
      spec ~switch:"-text" ~db:"text" ~cls:"Text" ~default:"" Ot_string;
      spec ~switch:"-font" ~db:"font" ~cls:"Font" ~default:"fixed" Ot_font;
      spec ~switch:"-foreground" ~db:"foreground" ~cls:"Foreground"
        ~default:"black" Ot_color;
      spec ~switch:"-fg" ~db:"foreground" ~cls:"Foreground" ~default:"black"
        Ot_color;
      spec ~switch:"-background" ~db:"background" ~cls:"Background"
        ~default:"#cccccc" Ot_color;
      spec ~switch:"-bg" ~db:"background" ~cls:"Background" ~default:"#cccccc"
        Ot_color;
      spec ~switch:"-activebackground" ~db:"activeBackground"
        ~cls:"Foreground" ~default:"#ececec" Ot_color;
      spec ~switch:"-activeforeground" ~db:"activeForeground"
        ~cls:"Background" ~default:"black" Ot_color;
      spec ~switch:"-borderwidth" ~db:"borderWidth" ~cls:"BorderWidth"
        ~default:"2" Ot_pixels;
      spec ~switch:"-relief" ~db:"relief" ~cls:"Relief"
        ~default:relief_default Ot_relief;
      spec ~switch:"-padx" ~db:"padX" ~cls:"Pad" ~default:"2" Ot_pixels;
      spec ~switch:"-pady" ~db:"padY" ~cls:"Pad" ~default:"2" Ot_pixels;
      spec ~switch:"-anchor" ~db:"anchor" ~cls:"Anchor" ~default:"center"
        Ot_anchor;
      spec ~switch:"-width" ~db:"width" ~cls:"Width" ~default:"0" Ot_int;
      spec ~switch:"-height" ~db:"height" ~cls:"Height" ~default:"0" Ot_int;
      spec ~switch:"-state" ~db:"state" ~cls:"State" ~default:"normal"
        Ot_string;
      spec ~switch:"-cursor" ~db:"cursor" ~cls:"Cursor" ~default:"" Ot_cursor;
    ]

let command_spec =
  Tk.Core.spec ~switch:"-command" ~db:"command" ~cls:"Command" ~default:""
    Tk.Core.Ot_string

let variable_specs ~default_var =
  Tk.Core.
    [
      spec ~switch:"-variable" ~db:"variable" ~cls:"Variable"
        ~default:default_var Ot_string;
      spec ~switch:"-value" ~db:"value" ~cls:"Value" ~default:"" Ot_string;
    ]

let specs_for kind =
  match kind with
  | Label -> common_specs ~relief_default:"flat"
  | Push -> common_specs ~relief_default:"raised" @ [ command_spec ]
  | Check ->
    common_specs ~relief_default:"raised"
    @ [ command_spec ]
    @ variable_specs ~default_var:"selectedButton"
  | Radio ->
    common_specs ~relief_default:"raised"
    @ [ command_spec ]
    @ variable_specs ~default_var:"selectedButton"

(* ------------------------------------------------------------------ *)
(* Selection state via Tcl variables *)

let indicator_size = 12

let variable_name w = Tk.Core.get_string w "-variable"

let radio_value w =
  let v = Tk.Core.get_string w "-value" in
  if v = "" then Tk.Path.basename w.Tk.Core.path else v

let selected w =
  let s = data w in
  let var = variable_name w in
  match Tcl.Interp.get_var w.Tk.Core.app.Tk.Core.interp var with
  | None -> false
  | Some v -> (
    match s.kind with
    | Check -> v <> "0" && v <> ""
    | Radio -> v = radio_value w
    | Label | Push -> false)

let set_variable w value =
  Tcl.Interp.set_var w.Tk.Core.app.Tk.Core.interp (variable_name w) value

(* ------------------------------------------------------------------ *)
(* Geometry and display *)

let compute_geometry w =
  let s = data w in
  let font = Wutil.widget_font w in
  let text = Tk.Core.get_string w "-text" in
  let block_w, block_h = Wutil.text_block_size font text in
  let char_width = Tk.Core.get_int w "-width" in
  let char_height = Tk.Core.get_int w "-height" in
  let text_w =
    if char_width > 0 then char_width * font.Font.char_width else block_w
  in
  let text_h =
    if char_height > 0 then char_height * Font.line_height font
    else max block_h (Font.line_height font)
  in
  let bw = Tk.Core.get_pixels w "-borderwidth" in
  let padx = Tk.Core.get_pixels w "-padx" in
  let pady = Tk.Core.get_pixels w "-pady" in
  let indicator =
    match s.kind with
    | Check | Radio -> indicator_size + 6
    | Label | Push -> 0
  in
  Tk.Core.request_size w
    ~width:(text_w + indicator + (2 * (bw + padx + 2)))
    ~height:(text_h + (2 * (bw + pady + 2)))

let display w =
  let s = data w in
  let app = w.Tk.Core.app in
  let background =
    if s.active && s.kind <> Label then "-activebackground" else "-background"
  in
  let foreground =
    if s.active && s.kind <> Label then "-activeforeground" else "-foreground"
  in
  Wutil.draw_background w ~color:(Tk.Core.cget w background) ();
  let relief =
    if s.pressed then Tk.Core.Sunken else Tk.Core.get_relief w "-relief"
  in
  Wutil.draw_relief_border w ~relief ();
  let indicator =
    match s.kind with Check | Radio -> indicator_size + 6 | Label | Push -> 0
  in
  (match s.kind with
  | Check | Radio ->
    let gc = Tk.Core.widget_gc w ~fg:foreground () in
    let bw = Tk.Core.get_pixels w "-borderwidth" in
    let y = (w.Tk.Core.height - indicator_size) / 2 in
    let box =
      Geom.rect ~x:(bw + 4) ~y ~width:indicator_size ~height:indicator_size
    in
    if selected w then Server.fill_rect app.Tk.Core.conn w.Tk.Core.win gc box
    else Server.draw_rect app.Tk.Core.conn w.Tk.Core.win gc box
  | Label | Push -> ());
  Wutil.draw_anchored_text w ~fg:foreground ~dx:indicator
    ~text:(Tk.Core.get_string w "-text")
    ~anchor:(Tk.Core.get_anchor w "-anchor")
    ()

(* ------------------------------------------------------------------ *)
(* Behaviour *)

let invoke w =
  let s = data w in
  if Tk.Core.get_string w "-state" <> "disabled" then begin
    (match s.kind with
    | Check -> set_variable w (if selected w then "0" else "1")
    | Radio -> set_variable w (radio_value w)
    | Label | Push -> ());
    Tk.Core.schedule_redraw w;
    (* Radio siblings sharing the variable must repaint too. *)
    (match s.kind with
    | Radio | Check ->
      Hashtbl.iter
        (fun _ other ->
          match other.Tk.Core.data with
          | Button_data os when os.kind = Radio || os.kind = Check ->
            if
              (not (other == w))
              && variable_name other = variable_name w
            then Tk.Core.schedule_redraw other
          | _ -> ())
        w.Tk.Core.app.Tk.Core.widgets
    | Label | Push -> ());
    match s.kind with
    | Push | Check | Radio ->
      Wutil.invoke_widget_script w (Tk.Core.get_string w "-command")
    | Label -> ()
  end

let flash w =
  let s = data w in
  if s.kind <> Label then begin
    s.flashes <- s.flashes + 1;
    (* Alternate active/normal colors a few times; each toggle repaints
       synchronously so the flashing is actually drawn. *)
    for _ = 1 to 2 do
      s.active <- not s.active;
      display w
    done;
    Tk.Core.schedule_redraw w
  end

let handle_event w (event : Event.t) =
  let s = data w in
  if s.kind <> Label && Tk.Core.get_string w "-state" <> "disabled" then
    match event with
    | Event.Enter _ ->
      s.active <- true;
      Tk.Core.schedule_redraw w
    | Event.Leave _ ->
      s.active <- false;
      s.pressed <- false;
      Tk.Core.schedule_redraw w
    | Event.Button_press { button = 1; _ } ->
      s.pressed <- true;
      Tk.Core.schedule_redraw w
    | Event.Button_release { button = 1; bx; by; _ } ->
      if s.pressed then begin
        s.pressed <- false;
        Tk.Core.schedule_redraw w;
        if Wutil.inside w ~x:bx ~y:by then invoke w
      end
    | _ -> ()

let subcommands w words =
  let s = data w in
  let ok = Tcl.Interp.ok in
  match words with
  | [ _; "flash" ] ->
    flash w;
    ok ""
  | [ _; "invoke" ] when s.kind <> Label ->
    invoke w;
    ok ""
  | [ _; "activate" ] ->
    s.active <- true;
    Tk.Core.schedule_redraw w;
    ok ""
  | [ _; "deactivate" ] ->
    s.active <- false;
    Tk.Core.schedule_redraw w;
    ok ""
  | [ _; "select" ] when s.kind = Check || s.kind = Radio ->
    set_variable w (match s.kind with Check -> "1" | _ -> radio_value w);
    Tk.Core.schedule_redraw w;
    ok ""
  | [ _; "deselect" ] when s.kind = Check || s.kind = Radio ->
    set_variable w (if s.kind = Check then "0" else "");
    Tk.Core.schedule_redraw w;
    ok ""
  | [ _; "toggle" ] when s.kind = Check ->
    set_variable w (if selected w then "0" else "1");
    Tk.Core.schedule_redraw w;
    ok ""
  | _ -> raise Tcl.Interp.Usage

(* ------------------------------------------------------------------ *)
(* Class construction *)

let class_name_of = function
  | Label -> "Label"
  | Push -> "Button"
  | Check -> "Checkbutton"
  | Radio -> "Radiobutton"

(* What each kind answers besides configure/cget; [subcommands] checks
   the kind again and leaves the message to this table.  Built once:
   every widget's class shares its kind's table. *)
let subs_for =
  let table = List.map (fun name -> Tcl.Interp.subsig name 0 ~max:0) in
  let label = table [ "flash"; "activate"; "deactivate" ]
  and push = table [ "flash"; "invoke"; "activate"; "deactivate" ]
  and check =
    table
      [
        "flash"; "invoke"; "activate"; "deactivate"; "select"; "deselect";
        "toggle";
      ]
  and radio =
    table [ "flash"; "invoke"; "activate"; "deactivate"; "select"; "deselect" ]
  in
  function Label -> label | Push -> push | Check -> check | Radio -> radio

let make_class kind =
  let cls =
    Tk.Core.make_class ~name:(class_name_of kind) ~specs:(specs_for kind)
      ~subs:(subs_for kind) ()
  in
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

let creator app kind command =
  Wutil.standard_creator app ~command
    ~make:(fun () -> make_class kind)
    ~data:(fun () ->
      Button_data { kind; active = false; pressed = false; flashes = 0 })
    ()

let install app =
  creator app Label "label";
  creator app Push "button";
  creator app Check "checkbutton";
  creator app Radio "radiobutton"
