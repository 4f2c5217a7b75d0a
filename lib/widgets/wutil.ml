open Xsim

let widget_font w = Tk.Core.get_font w "-font"

let draw_background w ?color () =
  let color_name =
    match color with Some c -> c | None -> Tk.Core.cget w "-background"
  in
  let gc = Tk.Core.widget_gc w ~fg:color_name () in
  Server.fill_rect w.Tk.Core.app.Tk.Core.conn w.Tk.Core.win gc
    (Geom.rect ~x:0 ~y:0 ~width:w.Tk.Core.width ~height:w.Tk.Core.height)

let draw_relief_border w ?relief () =
  let relief =
    match relief with Some r -> r | None -> Tk.Core.get_relief w "-relief"
  in
  let bw = Tk.Core.get_pixels w "-borderwidth" in
  if bw > 0 && relief <> Tk.Core.Flat then
    Server.draw_relief w.Tk.Core.app.Tk.Core.conn w.Tk.Core.win
      (Geom.rect ~x:0 ~y:0 ~width:w.Tk.Core.width ~height:w.Tk.Core.height)
      ~raised:(relief = Tk.Core.Raised) ~width:bw

let text_block_size font text =
  let lines = String.split_on_char '\n' text in
  let width =
    List.fold_left (fun acc l -> max acc (Font.text_width font l)) 0 lines
  in
  (width, List.length lines * Font.line_height font)

let draw_anchored_text w ?(fg = "-foreground") ?(font = "-font") ?(dx = 0)
    ~text ~anchor () =
  let app = w.Tk.Core.app in
  let gc = Tk.Core.widget_gc w ~fg ~font () in
  let fnt =
    match gc.Gcontext.font with
    | Some f -> f
    | None -> Font.fallback ()
  in
  let bw = Tk.Core.get_pixels w "-borderwidth" in
  let inset = bw + 2 in
  let avail_x = dx + inset in
  let avail_w = w.Tk.Core.width - avail_x - inset in
  let avail_h = w.Tk.Core.height - (2 * inset) in
  let block_w, block_h = text_block_size fnt text in
  let x0 =
    match anchor with
    | Tk.Core.NW | Tk.Core.W | Tk.Core.SW -> avail_x
    | Tk.Core.NE | Tk.Core.E | Tk.Core.SE -> avail_x + avail_w - block_w
    | _ -> avail_x + ((avail_w - block_w) / 2)
  in
  let y0 =
    match anchor with
    | Tk.Core.NW | Tk.Core.N | Tk.Core.NE -> inset
    | Tk.Core.SW | Tk.Core.S | Tk.Core.SE -> inset + avail_h - block_h
    | _ -> inset + ((avail_h - block_h) / 2)
  in
  List.iteri
    (fun i line ->
      let baseline = y0 + (i * Font.line_height fnt) + fnt.Font.ascent in
      Server.draw_text app.Tk.Core.conn w.Tk.Core.win gc ~x:x0 ~y:baseline line)
    (String.split_on_char '\n' text)

(* The creating command's signature: the class's runtime configure and
   subcommand tables, so lint shares one source of truth with execution. *)
let declare_widget ~command cls =
  Tcl.Interp.signature command 1
    ~usage:(command ^ " pathName ?options?")
    ~widget:
      {
        Tcl.Interp.ws_class = cls.Tk.Core.cname;
        ws_options = List.map (fun s -> s.Tk.Core.switch) cls.Tk.Core.specs;
        ws_subs = cls.Tk.Core.subs;
      }

let standard_creator app ~command ~make ?data ?post_create () =
  Tcl.Interp.register app.Tk.Core.interp
    (declare_widget ~command (make ()))
    (fun _interp words ->
      match words with
      | _ :: path :: args ->
        let data = Option.map (fun f -> f ()) data in
        let w = Tk.Core.make_widget app ~path ?data (make ()) ~args in
        (match post_create with Some f -> f w | None -> ());
        Tcl.Interp.ok path
      | _ -> raise Tcl.Interp.Usage)

let invoke_widget_script w script =
  if script <> "" then
    Tk.Core.eval_callback w.Tk.Core.app
      ~context:(Printf.sprintf "command bound to %s" w.Tk.Core.path)
      script

let inside w ~x ~y =
  x >= 0 && y >= 0 && x < w.Tk.Core.width && y < w.Tk.Core.height
