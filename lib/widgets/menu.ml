open Xsim

let failf = Tcl.Interp.failf

type entry =
  | Command of { mutable label : string; mutable command : string }
  | Separator

type state = {
  mutable entries : entry list;
  mutable active : int option;
  mutable posted : bool;
}

type Tk.Core.wdata += Menu_data of state

let data w =
  match w.Tk.Core.data with
  | Menu_data s -> s
  | _ -> failf "%s is not a menu" w.Tk.Core.path

let specs =
  Tk.Core.
    [
      spec ~switch:"-font" ~db:"font" ~cls:"Font" ~default:"fixed" Ot_font;
      spec ~switch:"-foreground" ~db:"foreground" ~cls:"Foreground"
        ~default:"black" Ot_color;
      spec ~switch:"-fg" ~db:"foreground" ~cls:"Foreground" ~default:"black"
        Ot_color;
      spec ~switch:"-background" ~db:"background" ~cls:"Background"
        ~default:"#eeeeee" Ot_color;
      spec ~switch:"-bg" ~db:"background" ~cls:"Background" ~default:"#eeeeee"
        Ot_color;
      spec ~switch:"-activebackground" ~db:"activeBackground"
        ~cls:"Foreground" ~default:"gray75" Ot_color;
      spec ~switch:"-borderwidth" ~db:"borderWidth" ~cls:"BorderWidth"
        ~default:"2" Ot_pixels;
      spec ~switch:"-relief" ~db:"relief" ~cls:"Relief" ~default:"raised"
        Ot_relief;
    ]

let entry_height w =
  let font = Wutil.widget_font w in
  Font.line_height font + 4

let compute_geometry w =
  let s = data w in
  let font = Wutil.widget_font w in
  let bw = Tk.Core.get_pixels w "-borderwidth" in
  let width =
    List.fold_left
      (fun acc e ->
        match e with
        | Command { label; _ } -> max acc (Font.text_width font label)
        | Separator -> acc)
      (8 * font.Font.char_width)
      s.entries
  in
  let height = max 1 (List.length s.entries) * entry_height w in
  Tk.Core.request_size w
    ~width:(width + (2 * bw) + 16)
    ~height:(height + (2 * bw))

let post w ~x ~y =
  let s = data w in
  compute_geometry w;
  Tk.Core.move_resize w ~x ~y ~width:w.Tk.Core.req_width
    ~height:w.Tk.Core.req_height;
  Tk.Core.absorb w.Tk.Core.app ~default:() (fun () ->
      Server.raise_window w.Tk.Core.app.Tk.Core.conn w.Tk.Core.win);
  Tk.Core.map_widget w;
  s.posted <- true

let unpost w =
  let s = data w in
  s.posted <- false;
  s.active <- None;
  Tk.Core.unmap_widget w

let entry_at w ~y =
  let s = data w in
  let bw = Tk.Core.get_pixels w "-borderwidth" in
  let i = (y - bw) / entry_height w in
  if i >= 0 && i < List.length s.entries then Some i else None

let invoke_entry w i =
  let s = data w in
  if i < 0 then ()
  else
    match List.nth_opt s.entries i with
    | Some (Command { command; _ }) ->
      unpost w;
      Wutil.invoke_widget_script w command
    | Some Separator | None -> ()

let handle_event w (event : Event.t) =
  let s = data w in
  match event with
  | Event.Motion { my; _ } ->
    let active = entry_at w ~y:my in
    if active <> s.active then begin
      s.active <- active;
      Tk.Core.schedule_redraw w
    end
  | Event.Button_release { button = 1; by; _ } -> (
    match entry_at w ~y:by with
    | Some i -> invoke_entry w i
    | None -> unpost w)
  | Event.Leave _ ->
    s.active <- None;
    Tk.Core.schedule_redraw w
  | _ -> ()

let display w =
  let s = data w in
  let app = w.Tk.Core.app in
  let font = Wutil.widget_font w in
  Wutil.draw_background w ();
  Wutil.draw_relief_border w ();
  let gc = Tk.Core.widget_gc w ~fg:"-foreground" ~font:"-font" () in
  let active_gc = Tk.Core.widget_gc w ~fg:"-activebackground" () in
  let bw = Tk.Core.get_pixels w "-borderwidth" in
  let eh = entry_height w in
  List.iteri
    (fun i e ->
      let y = bw + (i * eh) in
      if s.active = Some i then
        Server.fill_rect app.Tk.Core.conn w.Tk.Core.win active_gc
          (Geom.rect ~x:bw ~y ~width:(w.Tk.Core.width - (2 * bw)) ~height:eh);
      match e with
      | Command { label; _ } ->
        Server.draw_text app.Tk.Core.conn w.Tk.Core.win gc ~x:(bw + 8)
          ~y:(y + 2 + font.Font.ascent) label
      | Separator ->
        Server.draw_line app.Tk.Core.conn w.Tk.Core.win gc ~x1:bw
          ~y1:(y + (eh / 2))
          ~x2:(w.Tk.Core.width - bw)
          ~y2:(y + (eh / 2)))
    s.entries

let parse_entry_index w spec =
  let s = data w in
  let n = List.length s.entries in
  match spec with
  | "last" -> n - 1
  | "active" -> ( match s.active with Some i -> i | None -> -1)
  | _ -> (
    match int_of_string_opt spec with
    | Some i -> i
    | None -> (
      (* Match by label. *)
      let found = ref (-1) in
      List.iteri
        (fun i e ->
          match e with
          | Command { label; _ } when label = spec && !found < 0 -> found := i
          | _ -> ())
        s.entries;
      if !found >= 0 then !found
      else failf "bad menu entry index \"%s\"" spec))

let rec parse_entry_options w label command = function
  | [] -> (label, command)
  | "-label" :: v :: rest -> parse_entry_options w v command rest
  | "-command" :: v :: rest -> parse_entry_options w label v rest
  | bad :: _ -> failf "unknown menu entry option \"%s\"" bad

let subcommands w words =
  let s = data w in
  let ok = Tcl.Interp.ok in
  match words with
  | _ :: "add" :: "command" :: options ->
    let label, command = parse_entry_options w "" "" options in
    s.entries <- s.entries @ [ Command { label; command } ];
    compute_geometry w;
    Tk.Core.schedule_redraw w;
    ok ""
  | [ _; "add"; "separator" ] ->
    s.entries <- s.entries @ [ Separator ];
    compute_geometry w;
    Tk.Core.schedule_redraw w;
    ok ""
  | [ _; "delete"; index ] ->
    let i = parse_entry_index w index in
    s.entries <- List.filteri (fun j _ -> j <> i) s.entries;
    compute_geometry w;
    Tk.Core.schedule_redraw w;
    ok ""
  | [ _; "invoke"; index ] ->
    invoke_entry w (parse_entry_index w index);
    ok ""
  | [ _; "post"; x; y ] -> (
    match (int_of_string_opt x, int_of_string_opt y) with
    | Some x, Some y ->
      post w ~x ~y;
      ok ""
    | _ -> failf "bad coordinates for %s post" w.Tk.Core.path)
  | [ _; "unpost" ] ->
    unpost w;
    ok ""
  | [ _; "size" ] -> ok (string_of_int (List.length s.entries))
  | [ _; "entrylabel"; index ] -> (
    let i = parse_entry_index w index in
    if i < 0 then failf "bad menu entry index \"%s\"" index
    else
      match List.nth_opt s.entries i with
      | Some (Command { label; _ }) -> ok label
      | Some Separator -> ok "-"
      | None -> failf "bad menu entry index \"%s\"" index)
  | _ -> raise Tcl.Interp.Usage

let subs =
  Tcl.Interp.
    [
      subsig "add" 1 ~subs:[ subsig "command" 0; subsig "separator" 0 ~max:0 ];
      subsig "delete" 1 ~max:1;
      subsig "invoke" 1 ~max:1;
      subsig "post" 2 ~max:2;
      subsig "unpost" 0 ~max:0;
      subsig "size" 0 ~max:0;
      subsig "entrylabel" 1 ~max:1;
    ]

let make_menu_class () =
  let cls = Tk.Core.make_class ~name:"Menu" ~specs ~subs () in
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

(* ------------------------------------------------------------------ *)
(* Menubuttons: a button that posts its -menu below itself. *)

let menubutton_specs =
  specs
  @ Tk.Core.
      [
        spec ~switch:"-text" ~db:"text" ~cls:"Text" ~default:"" Ot_string;
        spec ~switch:"-menu" ~db:"menu" ~cls:"Menu" ~default:"" Ot_string;
      ]

let menubutton_geometry w =
  let font = Wutil.widget_font w in
  let bw = Tk.Core.get_pixels w "-borderwidth" in
  let text = Tk.Core.get_string w "-text" in
  Tk.Core.request_size w
    ~width:(Font.text_width font text + (2 * bw) + 8)
    ~height:(Font.line_height font + (2 * bw) + 6)

let menubutton_post w =
  let app = w.Tk.Core.app in
  match Tk.Core.lookup app (Tk.Core.get_string w "-menu") with
  | Some menu when not menu.Tk.Core.destroyed -> (
    match menu.Tk.Core.data with
    | Menu_data s ->
      if s.posted then unpost menu
      else begin
        (* Post just below the button, in main-window coordinates. *)
        let rec root_xy widget (x, y) =
          match Tk.Path.parent widget.Tk.Core.path with
          | None -> (x, y)
          | Some p -> (
            match Tk.Core.lookup app p with
            | Some parent ->
              root_xy parent (x + widget.Tk.Core.x, y + widget.Tk.Core.y)
            | None -> (x, y))
        in
        let x, y = root_xy w (0, 0) in
        post menu ~x ~y:(y + w.Tk.Core.height)
      end
    | _ -> ())
  | Some _ | None -> ()

let menubutton_display w =
  Wutil.draw_background w ();
  Wutil.draw_relief_border w ();
  Wutil.draw_anchored_text w ~text:(Tk.Core.get_string w "-text")
    ~anchor:Tk.Core.Center ()

let make_menubutton_class () =
  let cls = Tk.Core.make_class ~name:"Menubutton" ~specs:menubutton_specs () in
  cls.Tk.Core.configure_hook <-
    (fun w ->
      Tk.Core.absorb w.Tk.Core.app ~default:() (fun () ->
          Server.set_window_background w.Tk.Core.app.Tk.Core.conn
            w.Tk.Core.win
            (Tk.Core.get_color w "-background"));
      menubutton_geometry w;
      Tk.Core.schedule_redraw w);
  cls.Tk.Core.display <- menubutton_display;
  cls.Tk.Core.handle_event <-
    (fun w event ->
      match event with
      | Event.Button_press { button = 1; _ } -> menubutton_post w
      | _ -> ());
  cls

let install app =
  Wutil.standard_creator app ~command:"menu" ~make:make_menu_class
    ~data:(fun () -> Menu_data { entries = []; active = None; posted = false })
    ~post_create:(fun w ->
      (* Menus start unmapped and never participate in packing. *)
      Tk.Core.absorb w.Tk.Core.app ~default:() (fun () ->
          Server.set_override_redirect w.Tk.Core.app.Tk.Core.conn
            w.Tk.Core.win true))
    ();
  Wutil.standard_creator app ~command:"menubutton" ~make:make_menubutton_class
    ()
