(* Tests for the simulated X server: windows, events, resources,
   properties, selections, input injection, rasterizer. *)

open Xsim

let make_display () =
  let server = Server.create ~width:640 ~height:480 () in
  let conn = Server.connect server ~name:"test" in
  (server, conn)

let new_window ?(x = 10) ?(y = 10) ?(width = 100) ?(height = 50)
    ?(border_width = 0) conn parent =
  Server.create_window conn ~parent ~x ~y ~width ~height ~border_width

let drain conn =
  let rec go acc =
    match Server.next_event conn with
    | Some d -> go (d :: acc)
    | None -> List.rev acc
  in
  go []

let has_event deliveries ~window pred =
  List.exists
    (fun d -> d.Event.window = window && pred d.Event.event)
    deliveries

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* Window tree *)

let window_tests =
  [
    ( "create assigns fresh ids",
      fun () ->
        let server, conn = make_display () in
        let a = new_window conn (Server.root server) in
        let b = new_window conn (Server.root server) in
        check_bool "distinct" true (a <> b) );
    ( "map delivers MapNotify and Expose",
      fun () ->
        let server, conn = make_display () in
        let w = new_window conn (Server.root server) in
        Server.map_window conn w;
        let evs = drain conn in
        check_bool "map" true
          (has_event evs ~window:w (function Event.Map_notify -> true | _ -> false));
        check_bool "expose" true
          (has_event evs ~window:w (function Event.Expose _ -> true | _ -> false)) );
    ( "child of unmapped parent is not viewable",
      fun () ->
        let server, conn = make_display () in
        let parent = new_window conn (Server.root server) in
        let child = new_window conn parent in
        Server.map_window conn child;
        let w = Option.get (Server.lookup_window server child) in
        check_bool "not viewable" false (Window.viewable w);
        Server.map_window conn parent;
        check_bool "viewable now" true (Window.viewable w) );
    ( "configure moves and resizes",
      fun () ->
        let server, conn = make_display () in
        let w = new_window conn (Server.root server) in
        Server.configure_window conn ~x:42 ~y:24 ~width:200 ~height:80 w;
        (match Server.query_geometry conn w with
        | Some r ->
          check_int "x" 42 r.Geom.rx;
          check_int "y" 24 r.Geom.ry;
          check_int "w" 200 r.Geom.rwidth;
          check_int "h" 80 r.Geom.rheight
        | None -> Alcotest.fail "no geometry") );
    ( "configure delivers ConfigureNotify",
      fun () ->
        let server, conn = make_display () in
        let w = new_window conn (Server.root server) in
        let _ = drain conn in
        Server.configure_window conn ~width:77 w;
        check_bool "configure event" true
          (has_event (drain conn) ~window:w (function
            | Event.Configure_notify { cwidth = 77; _ } -> true
            | _ -> false)) );
    ( "destroy removes descendants and notifies",
      fun () ->
        let server, conn = make_display () in
        let parent = new_window conn (Server.root server) in
        let child = new_window conn parent in
        let grandchild = new_window conn child in
        Server.destroy_window conn parent;
        let evs = drain conn in
        List.iter
          (fun id ->
            check_bool "destroy notify" true
              (has_event evs ~window:id (function
                | Event.Destroy_notify -> true
                | _ -> false));
            check_bool "gone" true (Server.lookup_window server id = None))
          [ parent; child; grandchild ] );
    ( "root position accumulates ancestors and borders",
      fun () ->
        let server, conn = make_display () in
        let a = Server.create_window conn ~parent:(Server.root server)
                  ~x:10 ~y:20 ~width:100 ~height:100 ~border_width:2 in
        let b = Server.create_window conn ~parent:a ~x:5 ~y:6 ~width:50
                  ~height:50 ~border_width:1 in
        let wb = Option.get (Server.lookup_window server b) in
        let p = Window.root_position wb in
        (* a content at (10+2, 20+2); b content at +5+1, +6+1. *)
        check_int "x" (12 + 6) p.Geom.x;
        check_int "y" (22 + 7) p.Geom.y );
    ( "window_at picks the topmost viewable",
      fun () ->
        let server, conn = make_display () in
        let bottom = new_window conn ~x:0 ~y:0 ~width:100 ~height:100
                       (Server.root server) in
        let top = new_window conn ~x:50 ~y:50 ~width:100 ~height:100
                    (Server.root server) in
        Server.map_window conn bottom;
        Server.map_window conn top;
        let hit p =
          (Option.get (Window.window_at (Server.root_window server) p)).Window.id
        in
        check_int "overlap goes to top" top (hit { Geom.x = 75; y = 75 });
        check_int "bottom alone" bottom (hit { Geom.x = 10; y = 10 });
        Server.lower_window conn top;
        check_int "after lower" bottom (hit { Geom.x = 75; y = 75 }) );
    ( "close destroys the client's top-level windows",
      fun () ->
        let server, conn = make_display () in
        let conn2 = Server.connect server ~name:"other" in
        let mine = new_window conn2 (Server.root server) in
        let theirs = new_window conn (Server.root server) in
        Server.close conn2;
        check_bool "mine gone" true (Server.lookup_window server mine = None);
        check_bool "theirs alive" true
          (Server.lookup_window server theirs <> None) );
  ]

(* ------------------------------------------------------------------ *)
(* Resources *)

let resource_tests =
  [
    ( "named color lookup",
      fun () ->
        let _, conn = make_display () in
        match Server.alloc_color conn "MediumSeaGreen" with
        | Some c -> check_string "hex" "#3cb371" (Color.to_hex c)
        | None -> Alcotest.fail "MediumSeaGreen missing" );
    ( "hex color forms",
      fun () ->
        check_string "#rgb" "#ff0000"
          (Color.to_hex (Option.get (Color.parse "#f00")));
        check_string "#rrggbb" "#123456"
          (Color.to_hex (Option.get (Color.parse "#123456")));
        check_string "#rrrrggggbbbb" "#12cd00"
          (Color.to_hex (Option.get (Color.parse "#12aacdef0012"))) );
    ( "unknown color is None",
      fun () ->
        let _, conn = make_display () in
        check_bool "none" true (Server.alloc_color conn "nosuchcolor" = None) );
    ( "color names with spaces",
      fun () ->
        check_bool "some" true (Color.parse "medium sea green" <> None) );
    ( "fonts: aliases and XLFD",
      fun () ->
        check_bool "fixed" true (Font.parse "fixed" <> None);
        check_bool "9x15" true (Font.parse "9x15" <> None);
        (match Font.parse "*-helvetica-bold-r-*-120-*" with
        | Some f ->
          check_bool "bold" true f.Font.bold;
          check_string "family" "helvetica" f.Font.family
        | None -> Alcotest.fail "XLFD parse failed");
        check_bool "garbage" true (Font.parse "no-such-font-at-all" = None) );
    ( "font metrics scale with size",
      fun () ->
        let small = Option.get (Font.parse "*-courier-medium-r-*-80-*") in
        let large = Option.get (Font.parse "*-courier-medium-r-*-240-*") in
        check_bool "wider" true (large.Font.char_width > small.Font.char_width);
        check_bool "taller" true
          (Font.line_height large > Font.line_height small) );
    ( "text width is linear in length",
      fun () ->
        let f = Option.get (Font.parse "fixed") in
        check_int "empty" 0 (Font.text_width f "");
        check_int "ten chars" (10 * f.Font.char_width)
          (Font.text_width f "abcdefghij") );
    ( "cursor font contains coffee_mug",
      fun () ->
        check_bool "coffee_mug" true (Cursor.parse "coffee_mug" <> None);
        check_bool "bogus" true (Cursor.parse "espresso_cup" = None) );
    ( "builtin bitmaps",
      fun () ->
        let b = Option.get (Bitmap.parse "gray50") in
        check_int "width" 4 b.Bitmap.width;
        check_bool "alternating" true
          (b.Bitmap.bits.(0).(0) && not b.Bitmap.bits.(0).(1)) );
    ( "xbm parsing",
      fun () ->
        let xbm =
          "#define star_width 8\n#define star_height 2\n\
           static char star_bits[] = { 0x01, 0x80 };\n"
        in
        match Bitmap.parse_xbm ~name:"@star" xbm with
        | Some b ->
          check_int "w" 8 b.Bitmap.width;
          check_int "h" 2 b.Bitmap.height;
          check_bool "bit 0,0" true b.Bitmap.bits.(0).(0);
          check_bool "bit 1,7" true b.Bitmap.bits.(1).(7);
          check_bool "bit 0,1" false b.Bitmap.bits.(0).(1)
        | None -> Alcotest.fail "xbm parse failed" );
    ( "resource requests are counted as round trips",
      fun () ->
        let _, conn = make_display () in
        Server.reset_stats conn;
        ignore (Server.alloc_color conn "red");
        ignore (Server.open_font conn "fixed");
        let s = Server.stats conn in
        check_int "allocs" 2 s.Server.resource_allocs;
        check_int "round trips" 2 s.Server.round_trips );
  ]

(* ------------------------------------------------------------------ *)
(* Properties and selections *)

let property_tests =
  [
    ( "change/get/delete property",
      fun () ->
        let server, conn = make_display () in
        let w = new_window conn (Server.root server) in
        let atom = Server.intern_atom conn "MY_PROP" in
        Server.change_property conn w ~prop:atom ~ptype:Atom.string "hello";
        (match Server.get_property conn w ~prop:atom with
        | Some p -> check_string "data" "hello" p.Window.prop_data
        | None -> Alcotest.fail "property missing");
        Server.delete_property conn w ~prop:atom;
        check_bool "deleted" true
          (Server.get_property conn w ~prop:atom = None) );
    ( "PropertyNotify reaches owner",
      fun () ->
        let server, conn = make_display () in
        let w = new_window conn (Server.root server) in
        let atom = Server.intern_atom conn "P" in
        let _ = drain conn in
        Server.change_property conn w ~prop:atom ~ptype:Atom.string "x";
        check_bool "notify" true
          (has_event (drain conn) ~window:w (function
            | Event.Property_notify { prop_atom; prop_deleted = false }
              when prop_atom = atom -> true
            | _ -> false)) );
    ( "PropertyNotify reaches listeners on foreign windows",
      fun () ->
        let server, conn = make_display () in
        let conn2 = Server.connect server ~name:"watcher" in
        let atom = Server.intern_atom conn "REGISTRY" in
        Server.listen_property conn2 (Server.root server);
        Server.change_property conn (Server.root server) ~prop:atom
          ~ptype:Atom.string "app1";
        check_bool "watcher sees it" true
          (has_event (drain conn2) ~window:(Server.root server) (function
            | Event.Property_notify { prop_atom; _ } when prop_atom = atom ->
              true
            | _ -> false)) );
    ( "atoms intern to stable ids",
      fun () ->
        let _, conn = make_display () in
        let a = Server.intern_atom conn "FOO" in
        let b = Server.intern_atom conn "FOO" in
        let c = Server.intern_atom conn "BAR" in
        check_int "same" a b;
        check_bool "different" true (a <> c);
        check_string "name" "FOO" (Option.get (Server.atom_name conn a)) );
    ( "selection ownership and clear",
      fun () ->
        let server, conn = make_display () in
        let w1 = new_window conn (Server.root server) in
        let w2 = new_window conn (Server.root server) in
        Server.set_selection_owner conn ~selection:Atom.primary w1;
        check_int "owner" w1
          (Server.get_selection_owner conn ~selection:Atom.primary);
        let _ = drain conn in
        Server.set_selection_owner conn ~selection:Atom.primary w2;
        check_bool "clear to old owner" true
          (has_event (drain conn) ~window:w1 (function
            | Event.Selection_clear { selection } when selection = Atom.primary
              -> true
            | _ -> false)) );
    ( "selection conversion round trip",
      fun () ->
        let server, owner_conn = make_display () in
        let req_conn = Server.connect server ~name:"requestor" in
        let owner_win = new_window owner_conn (Server.root server) in
        let req_win = new_window req_conn (Server.root server) in
        Server.set_selection_owner owner_conn ~selection:Atom.primary owner_win;
        let prop = Server.intern_atom req_conn "SEL_RESULT" in
        Server.convert_selection req_conn ~selection:Atom.primary
          ~target:Atom.string ~property:prop ~requestor:req_win;
        (* Owner receives the request... *)
        let request =
          List.find_map
            (fun d ->
              match d.Event.event with
              | Event.Selection_request r -> Some r
              | _ -> None)
            (drain owner_conn)
        in
        (match request with
        | None -> Alcotest.fail "owner got no SelectionRequest"
        | Some r ->
          check_int "requestor" req_win r.Event.sr_requestor;
          (* ... and answers with data. *)
          Server.send_selection_notify owner_conn ~requestor:req_win
            ~selection:Atom.primary ~target:Atom.string
            ~property:(Some r.Event.sr_property) ~data:(Some "the selection"));
        (* Requestor sees the notify and reads the property. *)
        check_bool "notify" true
          (has_event (drain req_conn) ~window:req_win (function
            | Event.Selection_notify { sn_property = Some _; _ } -> true
            | _ -> false));
        match Server.get_property req_conn req_win ~prop with
        | Some p -> check_string "data" "the selection" p.Window.prop_data
        | None -> Alcotest.fail "selection data not stored" );
    ( "conversion of unowned selection is refused",
      fun () ->
        let server, conn = make_display () in
        let w = new_window conn (Server.root server) in
        let prop = Server.intern_atom conn "R" in
        Server.convert_selection conn ~selection:Atom.primary
          ~target:Atom.string ~property:prop ~requestor:w;
        check_bool "refused" true
          (has_event (drain conn) ~window:w (function
            | Event.Selection_notify { sn_property = None; _ } -> true
            | _ -> false)) );
  ]

(* ------------------------------------------------------------------ *)
(* Input injection *)

let input_tests =
  [
    ( "motion generates Enter/Leave and Motion",
      fun () ->
        let server, conn = make_display () in
        let w = new_window conn ~x:100 ~y:100 ~width:50 ~height:50
                  (Server.root server) in
        Server.map_window conn w;
        let _ = drain conn in
        Server.inject_motion server ~x:120 ~y:120;
        let evs = drain conn in
        check_bool "enter" true
          (has_event evs ~window:w (function Event.Enter _ -> true | _ -> false));
        check_bool "motion with relative coords" true
          (has_event evs ~window:w (function
            | Event.Motion { mx = 20; my = 20; _ } -> true
            | _ -> false));
        Server.inject_motion server ~x:10 ~y:10;
        check_bool "leave" true
          (has_event (drain conn) ~window:w (function
            | Event.Leave _ -> true
            | _ -> false)) );
    ( "button press goes to pointer window with prior state",
      fun () ->
        let server, conn = make_display () in
        let w = new_window conn ~x:0 ~y:0 ~width:50 ~height:50
                  (Server.root server) in
        Server.map_window conn w;
        Server.inject_motion server ~x:25 ~y:25;
        let _ = drain conn in
        Server.inject_button server ~button:1 ~pressed:true;
        let evs = drain conn in
        check_bool "press, button1 not yet in state" true
          (has_event evs ~window:w (function
            | Event.Button_press { button = 1; button_state; _ } ->
              not button_state.Event.button1
            | _ -> false));
        Server.inject_button server ~button:1 ~pressed:false;
        check_bool "release carries button1 held" true
          (has_event (drain conn) ~window:w (function
            | Event.Button_release { button = 1; button_state; _ } ->
              button_state.Event.button1
            | _ -> false)) );
    ( "keys go to the focus window",
      fun () ->
        let server, conn = make_display () in
        let w1 = new_window conn ~x:0 ~y:0 ~width:50 ~height:50
                   (Server.root server) in
        let w2 = new_window conn ~x:100 ~y:0 ~width:50 ~height:50
                   (Server.root server) in
        Server.map_window conn w1;
        Server.map_window conn w2;
        Server.inject_motion server ~x:25 ~y:25;
        (* pointer in w1 *)
        Server.set_input_focus conn w2;
        let _ = drain conn in
        Server.inject_key server ~keysym:"a" ~pressed:true;
        check_bool "key in w2" true
          (has_event (drain conn) ~window:w2 (function
            | Event.Key_press { keysym = "a"; _ } -> true
            | _ -> false)) );
    ( "modifiers set event state",
      fun () ->
        let server, conn = make_display () in
        let w = new_window conn ~x:0 ~y:0 ~width:50 ~height:50
                  (Server.root server) in
        Server.map_window conn w;
        Server.inject_motion server ~x:10 ~y:10;
        let _ = drain conn in
        Server.inject_key server ~keysym:"Control_L" ~pressed:true;
        Server.inject_key server ~keysym:"w" ~pressed:true;
        check_bool "control-w" true
          (has_event (drain conn) ~window:w (function
            | Event.Key_press { keysym = "w"; key_state; _ } ->
              key_state.Event.control
            | _ -> false)) );
    ( "inject_string types each character",
      fun () ->
        let server, conn = make_display () in
        let w = new_window conn ~x:0 ~y:0 ~width:50 ~height:50
                  (Server.root server) in
        Server.map_window conn w;
        Server.inject_motion server ~x:10 ~y:10;
        let _ = drain conn in
        Server.inject_string server "Hi!";
        let keys =
          List.filter_map
            (fun d ->
              match d.Event.event with
              | Event.Key_press { keysym; _ } -> Some keysym
              | _ -> None)
            (drain conn)
        in
        check_bool "has H" true (List.mem "H" keys);
        check_bool "has i" true (List.mem "i" keys);
        check_bool "has exclam" true (List.mem "exclam" keys) );
    ( "keysym round trip",
      fun () ->
        check_string "space" "space" (Event.keysym_of_char ' ');
        check_bool "inverse" true (Event.char_of_keysym "space" = Some ' ');
        check_string "letter" "q" (Event.keysym_of_char 'q') );
    ( "focus change delivers FocusIn/FocusOut",
      fun () ->
        let server, conn = make_display () in
        let w1 = new_window conn (Server.root server) in
        let w2 = new_window conn (Server.root server) in
        Server.set_input_focus conn w1;
        let _ = drain conn in
        Server.set_input_focus conn w2;
        let evs = drain conn in
        check_bool "out" true
          (has_event evs ~window:w1 (function Event.Focus_out -> true | _ -> false));
        check_bool "in" true
          (has_event evs ~window:w2 (function Event.Focus_in -> true | _ -> false)) );
  ]

(* ------------------------------------------------------------------ *)
(* Rasterizer *)

let contains_sub ~needle haystack =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let raster_tests =
  [
    ( "text appears in the dump",
      fun () ->
        let server, conn = make_display () in
        let w = new_window conn ~x:0 ~y:0 ~width:200 ~height:64
                  (Server.root server) in
        Server.map_window conn w;
        let font = Option.get (Server.open_font conn "fixed") in
        let gc = Server.create_gc conn ~font () in
        Server.draw_text conn w gc ~x:16 ~y:24 "Hello, world";
        let dump = Raster.render server ~window:w () in
        check_bool "text present" true (contains_sub ~needle:"Hello, world" dump) );
    ( "unmapped windows are invisible",
      fun () ->
        let server, conn = make_display () in
        let w = new_window conn ~x:0 ~y:0 ~width:200 ~height:64
                  (Server.root server) in
        let font = Option.get (Server.open_font conn "fixed") in
        let gc = Server.create_gc conn ~font () in
        Server.draw_text conn w gc ~x:16 ~y:24 "invisible";
        let dump = Raster.render server () in
        check_bool "hidden" false (contains_sub ~needle:"invisible" dump) );
    ( "children clip to parents",
      fun () ->
        let server, conn = make_display () in
        let parent = new_window conn ~x:0 ~y:0 ~width:80 ~height:48
                       (Server.root server) in
        let child = new_window conn ~x:40 ~y:16 ~width:400 ~height:16 parent in
        Server.map_window conn parent;
        Server.map_window conn child;
        let font = Option.get (Server.open_font conn "fixed") in
        let gc = Server.create_gc conn ~font () in
        Server.draw_text conn child gc ~x:0 ~y:8
          "this text is far too long to fit";
        let dump = Raster.render server ~window:parent () in
        (* Only ~5 columns of the child are inside the parent. *)
        check_bool "clipped" false (contains_sub ~needle:"too long" dump);
        check_bool "start visible" true (contains_sub ~needle:"this" dump) );
    ( "dark background shades cells",
      fun () ->
        let server, conn = make_display () in
        let w = new_window conn ~x:0 ~y:0 ~width:80 ~height:32
                  (Server.root server) in
        Server.set_window_background conn w (Option.get (Color.parse "black"));
        Server.map_window conn w;
        let dump = Raster.render server ~window:w () in
        check_bool "shaded" true (contains_sub ~needle:"#" dump) );
    ( "WM_NAME property draws a title bar",
      fun () ->
        let server, conn = make_display () in
        let w = new_window conn ~x:0 ~y:20 ~width:160 ~height:32
                  (Server.root server) in
        Server.map_window conn w;
        Server.change_property conn w ~prop:Atom.wm_name ~ptype:Atom.string
          "my window";
        let dump = Raster.render server ~window:w () in
        check_bool "title present" true (contains_sub ~needle:"my window" dump);
        check_bool "bar present" true (contains_sub ~needle:"==" dump) );
    ( "stacking order affects rendering",
      fun () ->
        let server, conn = make_display () in
        let bottom = new_window conn ~x:0 ~y:0 ~width:120 ~height:32
                       (Server.root server) in
        let top = new_window conn ~x:0 ~y:0 ~width:120 ~height:32
                    (Server.root server) in
        Server.map_window conn bottom;
        Server.map_window conn top;
        let font = Option.get (Server.open_font conn "fixed") in
        let gc = Server.create_gc conn ~font () in
        Server.draw_text conn bottom gc ~x:8 ~y:16 "UNDER";
        Server.fill_rect conn top gc
          (Geom.rect ~x:0 ~y:0 ~width:120 ~height:32);
        let dump = Raster.render server () in
        check_bool "bottom hidden" false (contains_sub ~needle:"UNDER" dump);
        Server.raise_window conn bottom;
        let dump = Raster.render server () in
        check_bool "bottom raised and visible" true
          (contains_sub ~needle:"UNDER" dump) );
    ( "closing a connection releases its selections",
      fun () ->
        let server, conn = make_display () in
        let other = Server.connect server ~name:"other" in
        let w = new_window other (Server.root server) in
        Server.set_selection_owner other ~selection:Atom.primary w;
        Server.close other;
        check_int "unowned after close" Xid.none
          (Server.get_selection_owner conn ~selection:Atom.primary) );
    ( "logical clock advances with requests",
      fun () ->
        let server, conn = make_display () in
        let t0 = Server.time server in
        ignore (new_window conn (Server.root server));
        check_bool "ticked" true (Server.time server > t0);
        Server.advance_time server 500;
        check_bool "manual advance" true (Server.time server >= t0 + 500) );
    ( "relief draws a frame",
      fun () ->
        let server, conn = make_display () in
        let w = new_window conn ~x:0 ~y:0 ~width:160 ~height:64
                  (Server.root server) in
        Server.map_window conn w;
        Server.draw_relief conn w
          (Geom.rect ~x:0 ~y:0 ~width:160 ~height:64)
          ~raised:true ~width:2;
        let dump = Raster.render server ~window:w () in
        check_bool "corner" true (contains_sub ~needle:"+--" dump) );
    ( "a diagonal line marks no endpoint outside its window",
      fun () ->
        (* Two siblings side by side; the right one's line runs off its
           left edge, over the left one. *)
        let server, conn = make_display () in
        let root = Server.root server in
        let left = new_window conn ~x:0 ~y:0 ~width:198 ~height:60 root in
        let right = new_window conn ~x:198 ~y:0 ~width:120 ~height:60 root in
        Server.map_window conn left;
        Server.map_window conn right;
        let gc = Server.create_gc conn () in
        Server.draw_line conn right gc ~x1:60 ~y1:10 ~x2:(-50) ~y2:40;
        let lines = String.split_on_char '\n' (Raster.render server ()) in
        let cell row col =
          match List.nth_opt lines row with
          | Some l when col < String.length l -> l.[col]
          | _ -> ' '
        in
        (* (258, 10) is cell (0, 43); (148, 40) is cell (3, 24). *)
        check_bool "endpoint inside" true (cell 0 43 = '*');
        check_bool "endpoint outside" false (cell 3 24 = '*') );
    ( "text above a window's top edge is clipped",
      fun () ->
        let server, conn = make_display () in
        let w = new_window conn ~x:0 ~y:0 ~width:200 ~height:64
                  (Server.root server) in
        Server.map_window conn w;
        let font = Option.get (Server.open_font conn "fixed") in
        let gc = Server.create_gc conn ~font () in
        (* Baseline 2: the text's cell row lies above the screen. *)
        Server.draw_text conn w gc ~x:16 ~y:2 "ABOVE";
        Server.draw_text conn w gc ~x:16 ~y:24 "INSIDE";
        let dump = Raster.render server ~window:w () in
        check_bool "inside drawn" true (contains_sub ~needle:"INSIDE" dump);
        check_bool "above clipped" false (contains_sub ~needle:"ABOVE" dump) );
  ]

(* ------------------------------------------------------------------ *)
(* Properties of geometry *)

let geom_tests =
  [
    ( "intersect is commutative and contained",
      QCheck.Test.make ~count:300 ~name:"intersect commutative"
        QCheck.(
          quad (int_range 0 50) (int_range 0 50) (int_range 1 50)
            (int_range 1 50))
        (fun (x, y, w, h) ->
          let a = Geom.rect ~x ~y ~width:w ~height:h in
          let b = Geom.rect ~x:25 ~y:25 ~width:30 ~height:30 in
          Geom.intersect a b = Geom.intersect b a) );
    ( "intersection is inside both",
      QCheck.Test.make ~count:300 ~name:"intersect subset"
        QCheck.(
          quad (int_range (-20) 60) (int_range (-20) 60) (int_range 1 40)
            (int_range 1 40))
        (fun (x, y, w, h) ->
          let a = Geom.rect ~x ~y ~width:w ~height:h in
          let b = Geom.rect ~x:0 ~y:0 ~width:50 ~height:50 in
          match Geom.intersect a b with
          | None -> true
          | Some r ->
            r.Geom.rx >= a.Geom.rx && r.Geom.ry >= a.Geom.ry
            && r.Geom.rx >= b.Geom.rx
            && r.Geom.rx + r.Geom.rwidth <= a.Geom.rx + a.Geom.rwidth
            && r.Geom.rx + r.Geom.rwidth <= b.Geom.rx + b.Geom.rwidth
            && not (Geom.is_empty r)) );
    ( "contains matches intersect with a unit rect",
      QCheck.Test.make ~count:300 ~name:"contains/intersect agree"
        QCheck.(pair (int_range (-10) 60) (int_range (-10) 60))
        (fun (x, y) ->
          let r = Geom.rect ~x:0 ~y:0 ~width:50 ~height:50 in
          let unit = Geom.rect ~x ~y ~width:1 ~height:1 in
          Geom.contains r { Geom.x; y } = (Geom.intersect r unit <> None)) );
  ]

let to_alcotest = List.map (fun (n, f) -> Alcotest.test_case n `Quick f)

let () =
  Alcotest.run "xsim"
    [
      ("windows", to_alcotest window_tests);
      ("resources", to_alcotest resource_tests);
      ("properties-selections", to_alcotest property_tests);
      ("input", to_alcotest input_tests);
      ("raster", to_alcotest raster_tests);
      ( "geometry-properties",
        List.map (fun (_, t) -> QCheck_alcotest.to_alcotest t) geom_tests );
    ]
