open Xsim

let failf = Tcl.Interp.failf

type state = {
  mutable elements : string array;
  mutable top : int;
  mutable sel : (int * int) option; (* inclusive range, low <= high *)
  mutable anchor : int; (* where a drag-selection started *)
}

type Tk.Core.wdata += Listbox_data of state

let data w =
  match w.Tk.Core.data with
  | Listbox_data s -> s
  | _ -> failf "%s is not a listbox" w.Tk.Core.path

let top_index w = (data w).top

let specs =
  Tk.Core.
    [
      spec ~switch:"-geometry" ~db:"geometry" ~cls:"Geometry" ~default:"15x10"
        Ot_string;
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
        ~default:"gray50" Ot_color;
      spec ~switch:"-scroll" ~db:"scrollCommand" ~cls:"ScrollCommand"
        ~default:"" Ot_string;
      spec ~switch:"-scrollcommand" ~db:"scrollCommand" ~cls:"ScrollCommand"
        ~default:"" Ot_string;
      spec ~switch:"-borderwidth" ~db:"borderWidth" ~cls:"BorderWidth"
        ~default:"2" Ot_pixels;
      spec ~switch:"-relief" ~db:"relief" ~cls:"Relief" ~default:"sunken"
        Ot_relief;
    ]

(* Columns and rows from the -geometry option ("20x10"). *)
let grid_size w =
  match Tk.Core.parse_geometry_spec (Tk.Core.get_string w "-geometry") with
  | Some (cols, rows) -> (cols, rows)
  | None -> (15, 10)

let visible_rows w =
  let font = Wutil.widget_font w in
  let bw = Tk.Core.get_pixels w "-borderwidth" in
  max 1 ((w.Tk.Core.height - (2 * bw)) / Font.line_height font)

(* Notify the attached scrollbar (old-Tk protocol: total window first
   last). *)
let update_scroll w =
  let s = data w in
  let command =
    match Tk.Core.get_string w "-scroll" with
    | "" -> Tk.Core.get_string w "-scrollcommand"
    | c -> c
  in
  if command <> "" then begin
    let total = Array.length s.elements in
    let window = visible_rows w in
    let first = s.top in
    let last = min (total - 1) (s.top + window - 1) in
    Wutil.invoke_widget_script w
      (Printf.sprintf "%s %d %d %d %d" command total window first last)
  end

let clamp_top w top =
  let s = data w in
  let total = Array.length s.elements in
  max 0 (min top (total - 1))

let set_view w top =
  let s = data w in
  let top = clamp_top w top in
  if top <> s.top then begin
    s.top <- top;
    Tk.Core.schedule_redraw w
  end;
  update_scroll w

(* Claim the X selection: other widgets and applications can fetch the
   selected lines with [selection get]. *)
let claim_selection w =
  let provider () =
    let s = data w in
    match s.sel with
    | None -> ""
    | Some (lo, hi) ->
      String.concat "\n"
        (Array.to_list (Array.sub s.elements lo (hi - lo + 1)))
  in
  Tk.Selection.own w ~provider

let select_range w lo hi =
  let s = data w in
  let total = Array.length s.elements in
  if total > 0 then begin
    let lo = max 0 (min lo (total - 1)) in
    let hi = max 0 (min hi (total - 1)) in
    s.sel <- Some (min lo hi, max lo hi);
    claim_selection w;
    Tk.Core.schedule_redraw w
  end

let index_at w ~y =
  let s = data w in
  let font = Wutil.widget_font w in
  let bw = Tk.Core.get_pixels w "-borderwidth" in
  let row = (y - bw) / Font.line_height font in
  let total = Array.length s.elements in
  if total = 0 then None
  else Some (max 0 (min (s.top + row) (total - 1)))

let handle_event w (event : Event.t) =
  let s = data w in
  match event with
  | Event.Button_press { button = 1; by; _ } -> (
    match index_at w ~y:by with
    | Some i ->
      s.anchor <- i;
      select_range w i i
    | None -> ())
  | Event.Motion { my; motion_state; _ } when motion_state.Event.button1 -> (
    match index_at w ~y:my with
    | Some i -> select_range w s.anchor i
    | None -> ())
  | Event.Selection_clear _ ->
    s.sel <- None;
    Tk.Core.schedule_redraw w
  | _ -> ()

let display w =
  let s = data w in
  let app = w.Tk.Core.app in
  let font = Wutil.widget_font w in
  Wutil.draw_background w ();
  Wutil.draw_relief_border w ();
  let gc = Tk.Core.widget_gc w ~fg:"-foreground" ~font:"-font" () in
  let sel_gc = Tk.Core.widget_gc w ~fg:"-selectbackground" () in
  let bw = Tk.Core.get_pixels w "-borderwidth" in
  let rows = visible_rows w in
  let lh = Font.line_height font in
  for row = 0 to rows - 1 do
    let i = s.top + row in
    if i < Array.length s.elements then begin
      let y = bw + (row * lh) in
      let is_selected =
        match s.sel with Some (lo, hi) -> i >= lo && i <= hi | None -> false
      in
      if is_selected then
        Server.fill_rect app.Tk.Core.conn w.Tk.Core.win sel_gc
          (Geom.rect ~x:bw ~y ~width:(w.Tk.Core.width - (2 * bw)) ~height:lh);
      Server.draw_text app.Tk.Core.conn w.Tk.Core.win gc ~x:(bw + 2)
        ~y:(y + font.Font.ascent) s.elements.(i)
    end
  done

let compute_geometry w =
  let font = Wutil.widget_font w in
  let cols, rows = grid_size w in
  let bw = Tk.Core.get_pixels w "-borderwidth" in
  Tk.Core.request_size w
    ~width:((cols * font.Font.char_width) + (2 * bw) + 4)
    ~height:((rows * Font.line_height font) + (2 * bw))

let parse_index w spec =
  let s = data w in
  let total = Array.length s.elements in
  match spec with
  | "end" -> total
  | _ -> (
    match int_of_string_opt spec with
    | Some i -> i
    | None -> failf "bad listbox index \"%s\"" spec)

let subcommands w words =
  let s = data w in
  let ok = Tcl.Interp.ok in
  match words with
  | _ :: "insert" :: index :: values ->
    let i = max 0 (min (parse_index w index) (Array.length s.elements)) in
    let before = Array.sub s.elements 0 i in
    let after = Array.sub s.elements i (Array.length s.elements - i) in
    s.elements <- Array.concat [ before; Array.of_list values; after ];
    (* Adjust the selection for the shift. *)
    (match s.sel with
    | Some (lo, hi) when i <= lo ->
      let n = List.length values in
      s.sel <- Some (lo + n, hi + n)
    | _ -> ());
    Tk.Core.schedule_redraw w;
    update_scroll w;
    ok ""
  | [ _; "delete"; first ] | [ _; "delete"; first; _ ] ->
    let last =
      match words with
      | [ _; _; _; last ] -> min (parse_index w last) (Array.length s.elements - 1)
      | _ -> min (parse_index w first) (Array.length s.elements - 1)
    in
    let first = max 0 (parse_index w first) in
    if first <= last && Array.length s.elements > 0 then begin
      let before = Array.sub s.elements 0 first in
      let after =
        Array.sub s.elements (last + 1) (Array.length s.elements - last - 1)
      in
      s.elements <- Array.append before after;
      s.sel <- None;
      s.top <- clamp_top w s.top;
      Tk.Core.schedule_redraw w;
      update_scroll w
    end;
    ok ""
  | [ _; "get"; index ] ->
    let i = parse_index w index in
    let i = if index = "end" then i - 1 else i in
    if i < 0 || i >= Array.length s.elements then
      failf "listbox index \"%s\" out of range" index
    else ok s.elements.(i)
  | [ _; "size" ] -> ok (string_of_int (Array.length s.elements))
  | [ _; ("view" | "yview") ] -> ok (string_of_int s.top)
  | [ _; ("view" | "yview"); index ] ->
    set_view w (parse_index w index);
    ok ""
  | [ _; "curselection" ] ->
    (match s.sel with
    | None -> ok ""
    | Some (lo, hi) ->
      ok
        (Tcl.Tcl_list.format
           (List.init (hi - lo + 1) (fun k -> string_of_int (lo + k)))))
  | [ _; "select"; "from"; index ] ->
    let i = parse_index w index in
    s.anchor <- i;
    select_range w i i;
    ok ""
  | [ _; "select"; "to"; index ] ->
    select_range w s.anchor (parse_index w index);
    ok ""
  | [ _; "select"; "clear" ] ->
    s.sel <- None;
    Tk.Core.schedule_redraw w;
    ok ""
  | _ -> raise Tcl.Interp.Usage

let subs =
  Tcl.Interp.
    [
      subsig "insert" 1;
      subsig "delete" 1 ~max:2;
      subsig "get" 1 ~max:1;
      subsig "size" 0 ~max:0;
      subsig "view" 0 ~max:1;
      subsig "yview" 0 ~max:1;
      subsig "curselection" 0 ~max:0;
      subsig "select" 1 ~max:2
        ~subs:
          [
            subsig "from" 1 ~max:1;
            subsig "to" 1 ~max:1;
            subsig "clear" 0 ~max:0;
          ];
    ]

let make_class () =
  let cls = Tk.Core.make_class ~name:"Listbox" ~specs ~subs () in
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
  Wutil.standard_creator app ~command:"listbox" ~make:make_class
    ~data:(fun () ->
      Listbox_data { elements = [||]; top = 0; sel = None; anchor = 0 })
    ~post_create:(fun w -> update_scroll w)
    ()
