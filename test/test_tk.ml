(* Tests for the Tk intrinsics: path names, the option database, the
   resource cache, the dispatcher, event bindings (Figure 7), the packer
   (Figure 8), focus, and widget configuration machinery. *)

open Xsim

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let fresh_app ?(name = "test") () =
  let server = Server.create () in
  let app = Tk_widgets.Tk_widgets_lib.new_app ~server ~name () in
  (server, app)

let run app script =
  match Tcl.Interp.eval_value app.Tk.Core.interp script with
  | Ok v -> v
  | Error msg -> Alcotest.failf "script %S failed: %s" script msg

let expect_error app script =
  match Tcl.Interp.eval_value app.Tk.Core.interp script with
  | Ok v -> Alcotest.failf "script %S unexpectedly returned %S" script v
  | Error msg -> msg

let contains ~needle haystack =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* Route pointer/keyboard input at a widget's center. *)
let widget_center app path =
  let w = Tk.Core.lookup_exn app path in
  let win = Option.get (Server.lookup_window app.Tk.Core.server w.Tk.Core.win) in
  let p = Window.root_position win in
  (p.Geom.x + (w.Tk.Core.width / 2), p.Geom.y + (w.Tk.Core.height / 2))

let click app path =
  let server = app.Tk.Core.server in
  let x, y = widget_center app path in
  Server.inject_motion server ~x ~y;
  Server.inject_button server ~button:1 ~pressed:true;
  Server.inject_button server ~button:1 ~pressed:false;
  Tk.Core.update app

(* ------------------------------------------------------------------ *)
(* Path names (§3.1) *)

let path_tests =
  [
    ( "validity",
      fun () ->
        check_bool "." true (Tk.Path.is_valid ".");
        check_bool ".a.b.c" true (Tk.Path.is_valid ".a.b.c");
        check_bool "no leading dot" false (Tk.Path.is_valid "a.b");
        check_bool "empty component" false (Tk.Path.is_valid ".a..b");
        check_bool "uppercase start" false (Tk.Path.is_valid ".Frame") );
    ( "parent/basename",
      fun () ->
        check_string "parent" ".a" (Option.get (Tk.Path.parent ".a.b"));
        check_string "parent of .a" "." (Option.get (Tk.Path.parent ".a"));
        check_bool "no parent of ." true (Tk.Path.parent "." = None);
        check_string "basename" "c" (Tk.Path.basename ".a.b.c") );
    ( "join/ancestor",
      fun () ->
        check_string "join root" ".a" (Tk.Path.join "." "a");
        check_string "join nested" ".a.b" (Tk.Path.join ".a" "b");
        check_bool "ancestor" true (Tk.Path.is_ancestor ~ancestor:".a" ".a.b.c");
        check_bool "not ancestor" false (Tk.Path.is_ancestor ~ancestor:".a" ".ab");
        check_bool "root ancestor" true (Tk.Path.is_ancestor ~ancestor:"." ".x") );
  ]

(* ------------------------------------------------------------------ *)
(* Option database (§3.5) *)

let optiondb_tests =
  [
    ( "star pattern matches all widgets of a class (paper example)",
      fun () ->
        let db = Tk.Optiondb.create () in
        Tk.Optiondb.add db ~pattern:"*Button.background" "red";
        let v =
          Tk.Optiondb.get db
            ~name_chain:[ ("app", "Tk"); ("b", "Button") ]
            ~name:"background" ~cls:"Background"
        in
        check_string "matched" "red" (Option.get v) );
    ( "name beats class",
      fun () ->
        let db = Tk.Optiondb.create () in
        Tk.Optiondb.add db ~pattern:"*Button.background" "red";
        Tk.Optiondb.add db ~pattern:"*ok.background" "green";
        let v =
          Tk.Optiondb.get db
            ~name_chain:[ ("app", "Tk"); ("ok", "Button") ]
            ~name:"background" ~cls:"Background"
        in
        check_string "name wins" "green" (Option.get v) );
    ( "tight binding requires adjacency",
      fun () ->
        let db = Tk.Optiondb.create () in
        Tk.Optiondb.add db ~pattern:"app.f.background" "blue";
        let deep =
          Tk.Optiondb.get db
            ~name_chain:[ ("app", "Tk"); ("g", "Frame"); ("f", "Frame") ]
            ~name:"background" ~cls:"Background"
        in
        check_bool "no skip with dot" true (deep = None) );
    ( "loose binding skips levels",
      fun () ->
        let db = Tk.Optiondb.create () in
        Tk.Optiondb.add db ~pattern:"app*background" "blue";
        let deep =
          Tk.Optiondb.get db
            ~name_chain:[ ("app", "Tk"); ("g", "Frame"); ("f", "Frame") ]
            ~name:"background" ~cls:"Background"
        in
        check_string "skips" "blue" (Option.get deep) );
    ( "priority overrides specificity",
      fun () ->
        let db = Tk.Optiondb.create () in
        Tk.Optiondb.add db ~priority:80 ~pattern:"*background" "low-detail";
        Tk.Optiondb.add db ~priority:20 ~pattern:"app.b.background" "specific";
        let v =
          Tk.Optiondb.get db
            ~name_chain:[ ("app", "Tk"); ("b", "Button") ]
            ~name:"background" ~cls:"Background"
        in
        check_string "priority wins" "low-detail" (Option.get v) );
    ( "load_string parses .Xdefaults text",
      fun () ->
        let db = Tk.Optiondb.create () in
        let text = "! comment\n*Button.background: red\napp*font: fixed\n" in
        (match Tk.Optiondb.load_string db text with
        | Ok n -> check_int "entries" 2 n
        | Error e -> Alcotest.fail e);
        check_int "size" 2 (Tk.Optiondb.size db) );
    ( "widgets pick defaults from the database (§4)",
      fun () ->
        let _, app = fresh_app () in
        ignore (run app "option add *Button.text Hello");
        ignore (run app "button .b");
        check_string "db default" "Hello" (run app ".b cget -text");
        (* Explicit options still win. *)
        ignore (run app "button .c -text Bye");
        check_string "explicit" "Bye" (run app ".c cget -text") );
  ]

(* ------------------------------------------------------------------ *)
(* Resource cache (§3.3) *)

let rescache_tests =
  [
    ( "repeated color lookups hit the server once",
      fun () ->
        let server = Server.create () in
        let conn = Server.connect server ~name:"c" in
        let cache = Tk.Rescache.create conn in
        Server.reset_stats conn;
        for _ = 1 to 10 do
          ignore (Tk.Rescache.color cache "MediumSeaGreen")
        done;
        check_int "one alloc" 1 (Server.stats conn).Server.resource_allocs;
        check_int "hits" 9 (Tk.Rescache.hits cache) );
    ( "disabled cache goes to the server every time",
      fun () ->
        let server = Server.create () in
        let conn = Server.connect server ~name:"c" in
        let cache = Tk.Rescache.create conn in
        Tk.Rescache.set_enabled cache false;
        Server.reset_stats conn;
        for _ = 1 to 10 do
          ignore (Tk.Rescache.color cache "red")
        done;
        check_int "ten allocs" 10 (Server.stats conn).Server.resource_allocs );
    ( "cache keys are case-insensitive textual names",
      fun () ->
        let server = Server.create () in
        let conn = Server.connect server ~name:"c" in
        let cache = Tk.Rescache.create conn in
        Server.reset_stats conn;
        ignore (Tk.Rescache.color cache "Red");
        ignore (Tk.Rescache.color cache "red");
        ignore (Tk.Rescache.color cache "RED");
        check_int "one alloc" 1 (Server.stats conn).Server.resource_allocs );
    ( "reverse lookup returns the textual name (§3.3)",
      fun () ->
        let server = Server.create () in
        let conn = Server.connect server ~name:"c" in
        let cache = Tk.Rescache.create conn in
        let c = Option.get (Tk.Rescache.color cache "MediumSeaGreen") in
        check_string "name" "MediumSeaGreen"
          (Option.get (Tk.Rescache.color_name cache c)) );
    ( "GCs are shared for equal components",
      fun () ->
        let server = Server.create () in
        let conn = Server.connect server ~name:"c" in
        let cache = Tk.Rescache.create conn in
        let gc1 = Tk.Rescache.gc cache ~foreground:"black" () in
        let gc2 = Tk.Rescache.gc cache ~foreground:"black" () in
        let gc3 = Tk.Rescache.gc cache ~foreground:"red" () in
        check_bool "same id" true (gc1.Gcontext.gc_id = gc2.Gcontext.gc_id);
        check_bool "different id" true (gc1.Gcontext.gc_id <> gc3.Gcontext.gc_id) );
  ]

(* ------------------------------------------------------------------ *)
(* Dispatcher: timers, idle, %-free plumbing (§3.2) *)

let dispatch_tests =
  [
    ( "timers fire in deadline order under a manual clock",
      fun () ->
        let now = ref 0.0 in
        let d = Tk.Dispatch.create ~clock:(fun () -> !now) () in
        let log = ref [] in
        ignore (Tk.Dispatch.after d ~ms:200 (fun () -> log := "b" :: !log));
        ignore (Tk.Dispatch.after d ~ms:100 (fun () -> log := "a" :: !log));
        check_int "nothing due" 0 (Tk.Dispatch.run_due_timers d);
        now := 0.15;
        check_int "one due" 1 (Tk.Dispatch.run_due_timers d);
        now := 0.25;
        check_int "second due" 1 (Tk.Dispatch.run_due_timers d);
        check_bool "order" true (!log = [ "b"; "a" ]) );
    ( "cancel removes a timer",
      fun () ->
        let now = ref 0.0 in
        let d = Tk.Dispatch.create ~clock:(fun () -> !now) () in
        let fired = ref false in
        let id = Tk.Dispatch.after d ~ms:10 (fun () -> fired := true) in
        check_bool "cancelled" true (Tk.Dispatch.cancel d id);
        now := 1.0;
        ignore (Tk.Dispatch.run_due_timers d);
        check_bool "not fired" false !fired );
    ( "idle callbacks scheduled during idle run next sweep",
      fun () ->
        let d = Tk.Dispatch.create () in
        let count = ref 0 in
        Tk.Dispatch.when_idle d (fun () ->
            incr count;
            Tk.Dispatch.when_idle d (fun () -> incr count));
        check_int "first sweep" 1 (Tk.Dispatch.run_idle d);
        check_int "count" 1 !count;
        check_int "second sweep" 1 (Tk.Dispatch.run_idle d);
        check_int "count" 2 !count );
    ( "after command schedules Tcl scripts",
      fun () ->
        let _, app = fresh_app () in
        let now = ref 0.0 in
        Tk.Dispatch.set_clock app.Tk.Core.disp (fun () -> !now);
        ignore (run app "after 100 {set fired 1}");
        Tk.Core.update app;
        check_bool "not yet" true
          (Tcl.Interp.get_var app.Tk.Core.interp "fired" = None);
        now := 0.2;
        Tk.Core.update app;
        check_string "fired" "1"
          (Option.get (Tcl.Interp.get_var app.Tk.Core.interp "fired")) );
  ]

(* ------------------------------------------------------------------ *)
(* Bindings (§3.2, Figure 7) *)

let binding_tests =
  [
    ( "pattern parsing and canonical forms",
      fun () ->
        let canon s =
          match Tk.Bindpattern.parse_sequence s with
          | Ok p -> Tk.Bindpattern.canonical p
          | Error e -> Alcotest.failf "parse %S: %s" s e
        in
        check_string "button aliases" (canon "<Button-1>") (canon "<ButtonPress-1>");
        check_string "numeric shorthand" (canon "<1>") (canon "<Button-1>");
        check_string "key shorthand" (canon "a") (canon "<KeyPress-a>");
        check_bool "bad pattern" true
          (Result.is_error (Tk.Bindpattern.parse_sequence "<NoSuchEvent-1-2-3>")) );
    ( "Figure 7: Enter binding fires",
      fun () ->
        let server, app = fresh_app () in
        ignore (run app "button .x -text hi; pack append . .x {top}");
        Tk.Core.update app;
        ignore (run app "bind .x <Enter> {set entered 1}");
        let x, y = widget_center app ".x" in
        Server.inject_motion server ~x ~y;
        Tk.Core.update app;
        check_string "entered" "1"
          (Option.get (Tcl.Interp.get_var app.Tk.Core.interp "entered")) );
    ( "Figure 7: plain key binding",
      fun () ->
        let server, app = fresh_app () in
        ignore (run app "button .x -text hi; pack append . .x {top}");
        Tk.Core.update app;
        ignore (run app "bind .x a {set typed a}");
        let x, y = widget_center app ".x" in
        Server.inject_motion server ~x ~y;
        Tk.Core.update app;
        Server.inject_key server ~keysym:"a" ~pressed:true;
        Tk.Core.update app;
        check_string "typed" "a"
          (Option.get (Tcl.Interp.get_var app.Tk.Core.interp "typed")) );
    ( "Figure 7: <Escape>q two-key sequence",
      fun () ->
        let server, app = fresh_app () in
        ignore (run app "button .x -text hi; pack append . .x {top}");
        Tk.Core.update app;
        ignore (run app "bind .x <Escape>q {set seq 1}");
        let x, y = widget_center app ".x" in
        Server.inject_motion server ~x ~y;
        (* q alone must not fire. *)
        Server.inject_key server ~keysym:"q" ~pressed:true;
        Tk.Core.update app;
        check_bool "not yet" true
          (Tcl.Interp.get_var app.Tk.Core.interp "seq" = None);
        Server.inject_key server ~keysym:"Escape" ~pressed:true;
        Server.inject_key server ~keysym:"q" ~pressed:true;
        Tk.Core.update app;
        check_string "sequence fired" "1"
          (Option.get (Tcl.Interp.get_var app.Tk.Core.interp "seq")) );
    ( "Figure 7: <Double-Button-1> with %x %y substitution",
      fun () ->
        let server, app = fresh_app () in
        ignore (run app "button .x -text hi; pack append . .x {top}");
        Tk.Core.update app;
        ignore (run app "bind .x <Double-Button-1> {set where \"%x %y\"}");
        let x, y = widget_center app ".x" in
        Server.inject_motion server ~x ~y;
        Server.inject_button server ~button:1 ~pressed:true;
        Server.inject_button server ~button:1 ~pressed:false;
        Tk.Core.update app;
        check_bool "single click no fire" true
          (Tcl.Interp.get_var app.Tk.Core.interp "where" = None);
        Server.inject_button server ~button:1 ~pressed:true;
        Tk.Core.update app;
        let w = Tk.Core.lookup_exn app ".x" in
        let expected =
          Printf.sprintf "%d %d" (w.Tk.Core.width / 2) (w.Tk.Core.height / 2)
        in
        check_string "coords substituted" expected
          (Option.get (Tcl.Interp.get_var app.Tk.Core.interp "where")) );
    ( "double click too slow counts as single",
      fun () ->
        let server, app = fresh_app () in
        ignore (run app "button .x -text hi; pack append . .x {top}");
        Tk.Core.update app;
        ignore (run app "bind .x <Double-Button-1> {set dbl 1}");
        let x, y = widget_center app ".x" in
        Server.inject_motion server ~x ~y;
        Server.inject_button server ~button:1 ~pressed:true;
        Server.inject_button server ~button:1 ~pressed:false;
        Server.advance_time server 1000;
        Server.inject_button server ~button:1 ~pressed:true;
        Tk.Core.update app;
        check_bool "no double" true
          (Tcl.Interp.get_var app.Tk.Core.interp "dbl" = None) );
    ( "modifier bindings: <Control-w>",
      fun () ->
        let server, app = fresh_app () in
        ignore (run app "entry .e; pack append . .e {top}");
        Tk.Core.update app;
        ignore (run app "bind .e <Control-w> {set cw 1}");
        let x, y = widget_center app ".e" in
        Server.inject_motion server ~x ~y;
        Server.inject_key server ~keysym:"w" ~pressed:true;
        Tk.Core.update app;
        check_bool "plain w no fire" true
          (Tcl.Interp.get_var app.Tk.Core.interp "cw" = None);
        Server.inject_key server ~keysym:"Control_L" ~pressed:true;
        Server.inject_key server ~keysym:"w" ~pressed:true;
        Tk.Core.update app;
        check_string "control-w" "1"
          (Option.get (Tcl.Interp.get_var app.Tk.Core.interp "cw")) );
    ( "most specific binding wins",
      fun () ->
        let server, app = fresh_app () in
        ignore (run app "button .x -text hi; pack append . .x {top}");
        Tk.Core.update app;
        ignore (run app "bind .x <Key> {set which any}");
        ignore (run app "bind .x z {set which z}");
        let x, y = widget_center app ".x" in
        Server.inject_motion server ~x ~y;
        Server.inject_key server ~keysym:"z" ~pressed:true;
        Tk.Core.update app;
        check_string "specific" "z"
          (Option.get (Tcl.Interp.get_var app.Tk.Core.interp "which"));
        Server.inject_key server ~keysym:"p" ~pressed:true;
        Tk.Core.update app;
        check_string "generic" "any"
          (Option.get (Tcl.Interp.get_var app.Tk.Core.interp "which")) );
    ( "%W and %K substitution",
      fun () ->
        let server, app = fresh_app () in
        ignore (run app "button .x -text hi; pack append . .x {top}");
        Tk.Core.update app;
        ignore (run app "bind .x <Key> {set info \"%W %K\"}");
        let x, y = widget_center app ".x" in
        Server.inject_motion server ~x ~y;
        Server.inject_key server ~keysym:"space" ~pressed:true;
        Tk.Core.update app;
        check_string "subst" ".x space"
          (Option.get (Tcl.Interp.get_var app.Tk.Core.interp "info")) );
    ( "bind with empty script deletes the binding",
      fun () ->
        let _, app = fresh_app () in
        ignore (run app "button .x -text hi");
        ignore (run app "bind .x <Enter> {foo}");
        check_bool "listed" true
          (contains ~needle:"Enter" (run app "bind .x"));
        ignore (run app "bind .x <Enter> {}");
        check_string "gone" "" (run app "bind .x") );
    ( "bind query returns the script",
      fun () ->
        let _, app = fresh_app () in
        ignore (run app "button .x -text hi");
        ignore (run app "bind .x <Enter> {print hello}");
        check_string "script" "print hello" (run app "bind .x <Enter>") );
    ( "binding errors go to the error handler, not the caller",
      fun () ->
        let server, app = fresh_app () in
        let errors = ref [] in
        app.Tk.Core.error_handler <- (fun m -> errors := m :: !errors);
        ignore (run app "button .x -text hi; pack append . .x {top}");
        Tk.Core.update app;
        ignore (run app "bind .x <Enter> {error boom}");
        let x, y = widget_center app ".x" in
        Server.inject_motion server ~x ~y;
        Tk.Core.update app;
        check_int "one error" 1 (List.length !errors);
        check_bool "message" true (contains ~needle:"boom" (List.hd !errors)) );
  ]

(* ------------------------------------------------------------------ *)
(* The packer (§3.4, Figure 8) *)

let pack_tests =
  [
    ( "Figure 8: all-in-a-column with truncation",
      fun () ->
        (* Requested sizes roughly as in the figure; the parent is too
           small, so window C loses width and window D loses height. *)
        let _, app = fresh_app () in
        ignore (run app "frame .a -width 40 -height 30");
        ignore (run app "frame .b -width 60 -height 30");
        ignore (run app "frame .c -width 120 -height 30");
        ignore (run app "frame .d -width 50 -height 60");
        (* Fix the parent size: 100 wide, 120 tall. *)
        let main = Tk.Core.main_widget app in
        ignore (run app "pack append . .a {top} .b {top} .c {top} .d {top}");
        Tk.Core.move_resize main ~x:0 ~y:0 ~width:100 ~height:120;
        Tk.Core.update app;
        let geom path =
          let w = Tk.Core.lookup_exn app path in
          (w.Tk.Core.x, w.Tk.Core.y, w.Tk.Core.width, w.Tk.Core.height)
        in
        let _, ay, aw, ah = geom ".a" in
        check_int "A keeps width" 40 aw;
        check_int "A keeps height" 30 ah;
        check_int "A at top" 0 ay;
        let _, by, _, _ = geom ".b" in
        check_int "B below A" 30 by;
        let _, _, cw, _ = geom ".c" in
        check_int "C truncated to parent width" 100 cw;
        let _, dy, _, dh = geom ".d" in
        check_int "D below C" 90 dy;
        check_int "D truncated height" 30 dh );
    ( "paper §3.4 packer example: three windows in a column",
      fun () ->
        let _, app = fresh_app () in
        ignore (run app "frame .x");
        ignore (run app "frame .x.a -width 30 -height 10");
        ignore (run app "frame .x.b -width 30 -height 10");
        ignore (run app "frame .x.c -width 30 -height 10");
        ignore (run app "pack append .x .x.a top .x.b top .x.c top");
        ignore (run app "pack append . .x {top}");
        Tk.Core.update app;
        let ys =
          List.map
            (fun p -> (Tk.Core.lookup_exn app p).Tk.Core.y)
            [ ".x.a"; ".x.b"; ".x.c" ]
        in
        check_bool "stacked top-down" true (ys = [ 0; 10; 20 ]) );
    ( "geometry propagation: master requests what slaves need",
      fun () ->
        let _, app = fresh_app () in
        ignore (run app "frame .f");
        ignore (run app "frame .f.a -width 50 -height 20");
        ignore (run app "frame .f.b -width 70 -height 25");
        ignore (run app "pack append .f .f.a {top} .f.b {top}");
        let f = Tk.Core.lookup_exn app ".f" in
        check_int "req width = max slave" 70 f.Tk.Core.req_width;
        check_int "req height = sum" 45 f.Tk.Core.req_height );
    ( "side left/right packing",
      fun () ->
        let _, app = fresh_app () in
        ignore (run app "frame .l -width 30 -height 40");
        ignore (run app "frame .r -width 30 -height 40");
        let main = Tk.Core.main_widget app in
        ignore (run app "pack append . .l {left} .r {right}");
        Tk.Core.move_resize main ~x:0 ~y:0 ~width:100 ~height:40;
        Tk.Core.update app;
        let l = Tk.Core.lookup_exn app ".l" in
        let r = Tk.Core.lookup_exn app ".r" in
        check_int "left at 0" 0 l.Tk.Core.x;
        check_int "right flush" 70 r.Tk.Core.x );
    ( "expand absorbs leftover space",
      fun () ->
        let _, app = fresh_app () in
        ignore (run app "frame .s -width 20 -height 40");
        ignore (run app "frame .e -width 20 -height 40");
        let main = Tk.Core.main_widget app in
        ignore (run app "pack append . .s {left} .e {left expand fill}");
        Tk.Core.move_resize main ~x:0 ~y:0 ~width:200 ~height:40;
        Tk.Core.update app;
        let e = Tk.Core.lookup_exn app ".e" in
        check_int "expanded width" 180 e.Tk.Core.width );
    ( "fill stretches across the parcel",
      fun () ->
        let _, app = fresh_app () in
        ignore (run app "frame .t -width 20 -height 10");
        let main = Tk.Core.main_widget app in
        ignore (run app "pack append . .t {top fillx}");
        Tk.Core.move_resize main ~x:0 ~y:0 ~width:150 ~height:100;
        Tk.Core.update app;
        check_int "fills width" 150 (Tk.Core.lookup_exn app ".t").Tk.Core.width );
    ( "padding insets the slave",
      fun () ->
        let _, app = fresh_app () in
        ignore (run app "frame .p -width 20 -height 20");
        ignore (run app "pack append . .p {top padx 10 pady 5}");
        Tk.Core.update app;
        let p = Tk.Core.lookup_exn app ".p" in
        check_int "x inset" 10 p.Tk.Core.x;
        check_int "y inset" 5 p.Tk.Core.y );
    ( "pack unpack removes and unmaps",
      fun () ->
        let _, app = fresh_app () in
        ignore (run app "frame .u -width 20 -height 20");
        ignore (run app "pack append . .u {top}");
        Tk.Core.update app;
        check_bool "mapped" true (Tk.Core.lookup_exn app ".u").Tk.Core.mapped;
        ignore (run app "pack unpack .u");
        Tk.Core.update app;
        check_bool "unmapped" false (Tk.Core.lookup_exn app ".u").Tk.Core.mapped;
        check_string "slaves empty" "" (run app "pack slaves .") );
    ( "modern syntax also works",
      fun () ->
        let _, app = fresh_app () in
        ignore (run app "frame .m -width 25 -height 25");
        ignore (run app "pack .m -side left -padx 3");
        Tk.Core.update app;
        check_bool "packed" true (Tk.Core.lookup_exn app ".m").Tk.Core.mapped );
    ( "packing a non-child fails",
      fun () ->
        let _, app = fresh_app () in
        ignore (run app "frame .f1");
        ignore (run app "frame .f2");
        ignore (run app "frame .f1.inner");
        let msg = run app "catch {pack append .f2 .f1.inner {top}} err; set err" in
        check_bool "error" true (contains ~needle:"not its parent" msg) );
    ( "destroying a slave removes it from the packing list",
      fun () ->
        let _, app = fresh_app () in
        ignore (run app "frame .d1 -width 10 -height 10");
        ignore (run app "frame .d2 -width 10 -height 10");
        ignore (run app "pack append . .d1 {top} .d2 {top}");
        ignore (run app "destroy .d1");
        Tk.Core.update app;
        check_string "remaining" ".d2" (run app "pack slaves .") );
    ( "frame anchor positions the slave in its parcel",
      fun () ->
        let _, app = fresh_app () in
        ignore (run app "frame .w -width 20 -height 10");
        ignore (run app "frame .e -width 20 -height 10");
        let main = Tk.Core.main_widget app in
        ignore (run app "pack append . .w {top frame w} .e {top frame e}");
        Tk.Core.move_resize main ~x:main.Tk.Core.x ~y:main.Tk.Core.y
          ~width:100 ~height:40;
        Tk.Core.update app;
        check_int "west flush left" 0 (Tk.Core.lookup_exn app ".w").Tk.Core.x;
        check_int "east flush right" 80 (Tk.Core.lookup_exn app ".e").Tk.Core.x );
    ( "pack info round-trips the options",
      fun () ->
        let _, app = fresh_app () in
        ignore (run app "frame .f -width 10 -height 10");
        ignore (run app "pack append . .f {left expand fillx padx 4}");
        let info = run app "pack info ." in
        check_bool "side" true (contains ~needle:"left" info);
        check_bool "expand" true (contains ~needle:"expand" info);
        check_bool "fillx" true (contains ~needle:"fillx" info) );
  ]

(* Binding-pattern properties. *)
let bindpattern_property_tests =
  let pattern_gen =
    QCheck.Gen.(
      let* mods =
        list_size (int_bound 2)
          (oneofl [ "Control-"; "Shift-"; "Meta-"; "Double-"; "B1-" ])
      in
      let* body =
        oneofl
          [ "Enter"; "Leave"; "Motion"; "ButtonPress-1"; "Button-2"; "Key-a";
            "KeyRelease-x"; "Configure"; "Expose"; "1"; "space"; "Escape" ]
      in
      return ("<" ^ String.concat "" mods ^ body ^ ">"))
  in
  let sequence_gen =
    QCheck.Gen.(
      let* n = int_range 1 3 in
      let* ps = list_size (return n) pattern_gen in
      return (String.concat "" ps))
  in
  [
    QCheck.Test.make ~name:"canonical form is a fixed point" ~count:300
      (QCheck.make ~print:Fun.id sequence_gen)
      (fun seq ->
        match Tk.Bindpattern.parse_sequence seq with
        | Error _ -> QCheck.assume_fail ()
        | Ok parsed -> (
          let canon = Tk.Bindpattern.canonical parsed in
          match Tk.Bindpattern.parse_sequence canon with
          | Ok reparsed -> Tk.Bindpattern.canonical reparsed = canon
          | Error _ -> false));
    QCheck.Test.make ~name:"specificity is length-dominated" ~count:200
      (QCheck.make ~print:Fun.id pattern_gen)
      (fun p ->
        match
          ( Tk.Bindpattern.parse_sequence p,
            Tk.Bindpattern.parse_sequence (p ^ p) )
        with
        | Ok one, Ok two ->
          Tk.Bindpattern.specificity two > Tk.Bindpattern.specificity one
        | _ -> QCheck.assume_fail ());
  ]

(* Raster property: text drawn inside a window appears in its dump. *)
let raster_property_tests =
  [
    QCheck.Test.make ~name:"labels always render inside the window" ~count:50
      QCheck.(
        pair
          (string_gen_of_size (Gen.int_range 1 8) (Gen.char_range 'a' 'z'))
          (pair (int_range 0 80) (int_range 0 40)))
      (fun (label, (x, y)) ->
        let server = Server.create () in
        let conn = Server.connect server ~name:"prop" in
        let win =
          Server.create_window conn ~parent:(Server.root server) ~x:10 ~y:10
            ~width:200 ~height:120 ~border_width:0
        in
        Server.map_window conn win;
        let font = Option.get (Font.parse "fixed") in
        let gc = Server.create_gc conn ~font () in
        Server.draw_text conn win gc ~x ~y:(y + font.Font.ascent) label;
        let dump = Raster.render server ~window:win () in
        (* Fully inside horizontally and vertically? Then it must show. *)
        let fits =
          x + (String.length label * font.Font.char_width) <= 200
          && y + Font.line_height font <= 120
        in
        (not fits) || contains ~needle:label dump);
  ]

(* Packer invariants under random configurations. *)
let pack_property_tests =
  let opts_gen =
    QCheck.Gen.(
      let* side = oneofl [ "top"; "bottom"; "left"; "right" ] in
      let* fill = oneofl [ ""; "fill"; "fillx"; "filly" ] in
      let* expand = oneofl [ ""; "expand" ] in
      return (String.trim (String.concat " " [ side; fill; expand ])))
  in
  let slaves_gen =
    QCheck.Gen.(list_size (int_range 1 6) (pair (pair (int_range 1 80) (int_range 1 60)) opts_gen))
  in
  let arbitrary =
    QCheck.make
      ~print:(fun slaves ->
        String.concat "; "
          (List.map (fun ((w, h), o) -> Printf.sprintf "%dx%d {%s}" w h o) slaves))
      slaves_gen
  in
  [
    QCheck.Test.make ~name:"packed slaves stay inside the master" ~count:100
      arbitrary
      (fun slaves ->
        let _, app = fresh_app () in
        List.iteri
          (fun i ((w, h), _) ->
            ignore
              (run app (Printf.sprintf "frame .s%d -width %d -height %d" i w h)))
          slaves;
        let main = Tk.Core.main_widget app in
        let spec =
          String.concat " "
            (List.mapi (fun i (_, o) -> Printf.sprintf ".s%d {%s}" i o) slaves)
        in
        ignore (run app ("pack append . " ^ spec));
        Tk.Core.move_resize main ~x:main.Tk.Core.x ~y:main.Tk.Core.y
          ~width:100 ~height:100;
        Tk.Core.update app;
        List.for_all
          (fun i ->
            let w = Tk.Core.lookup_exn app (Printf.sprintf ".s%d" i) in
            (not w.Tk.Core.mapped)
            || (w.Tk.Core.x >= 0 && w.Tk.Core.y >= 0
                && w.Tk.Core.x + w.Tk.Core.width <= main.Tk.Core.width
                && w.Tk.Core.y + w.Tk.Core.height <= main.Tk.Core.height))
          (List.init (List.length slaves) Fun.id));
    QCheck.Test.make ~name:"top-packed slaves never overlap vertically"
      ~count:100
      QCheck.(
        make
          Gen.(list_size (int_range 2 6) (pair (int_range 1 50) (int_range 1 40))))
      (fun sizes ->
        let _, app = fresh_app () in
        List.iteri
          (fun i (w, h) ->
            ignore
              (run app (Printf.sprintf "frame .s%d -width %d -height %d" i w h)))
          sizes;
        let spec =
          String.concat " "
            (List.mapi (fun i _ -> Printf.sprintf ".s%d {top}" i) sizes)
        in
        ignore (run app ("pack append . " ^ spec));
        Tk.Core.update app;
        let mapped =
          List.filter_map
            (fun i ->
              let w = Tk.Core.lookup_exn app (Printf.sprintf ".s%d" i) in
              if w.Tk.Core.mapped then Some (w.Tk.Core.y, w.Tk.Core.height)
              else None)
            (List.init (List.length sizes) Fun.id)
        in
        let sorted = List.sort compare mapped in
        let rec no_overlap = function
          | (y1, h1) :: ((y2, _) as b) :: rest ->
            y1 + h1 <= y2 && no_overlap (b :: rest)
          | _ -> true
        in
        no_overlap sorted);
  ]

(* ------------------------------------------------------------------ *)
(* Widget framework: creation, configure, destroy (§4) *)

let widget_framework_tests =
  [
    ( "paper §4: button creation with options",
      fun () ->
        let _, app = fresh_app () in
        let path =
          run app
            {|button .hello -bg Red -text "Hello, world" -command "print Hello!\n"|}
        in
        check_string "returns path" ".hello" path;
        check_string "text" "Hello, world" (run app ".hello cget -text");
        check_string "bg" "Red" (run app ".hello cget -bg") );
    ( "paper §4: configure changes options at runtime",
      fun () ->
        let _, app = fresh_app () in
        ignore (run app "button .hello -text hi");
        ignore (run app ".hello configure -bg PalePink1 -relief sunken");
        check_string "relief" "sunken" (run app ".hello cget -relief") );
    ( "widget command is created with the widget (§4)",
      fun () ->
        let _, app = fresh_app () in
        check_bool "no command" false
          (Tcl.Interp.command_exists app.Tk.Core.interp ".b");
        ignore (run app "button .b");
        check_bool "command exists" true
          (Tcl.Interp.command_exists app.Tk.Core.interp ".b") );
    ( "destroy removes widget, children and commands",
      fun () ->
        let _, app = fresh_app () in
        ignore (run app "frame .f");
        ignore (run app "button .f.b");
        ignore (run app "destroy .f");
        check_string "winfo exists .f" "0" (run app "winfo exists .f");
        check_string "winfo exists .f.b" "0" (run app "winfo exists .f.b");
        check_bool "command gone" false
          (Tcl.Interp.command_exists app.Tk.Core.interp ".f.b") );
    ( "duplicate window name is an error",
      fun () ->
        let _, app = fresh_app () in
        ignore (run app "button .b");
        let msg = expect_error app "button .b" in
        check_bool "already exists" true (contains ~needle:"already exists" msg) );
    ( "missing parent is an error",
      fun () ->
        let _, app = fresh_app () in
        let msg = expect_error app "button .nothere.b" in
        check_bool "bad path" true (contains ~needle:"bad window path" msg) );
    ( "unknown option is an error and widget is not created",
      fun () ->
        let _, app = fresh_app () in
        let msg = expect_error app "button .b -bogus 1" in
        check_bool "unknown option" true (contains ~needle:"unknown option" msg);
        check_string "not created" "0" (run app "winfo exists .b") );
    ( "bad color value is an error",
      fun () ->
        let _, app = fresh_app () in
        let msg = expect_error app "button .b -bg nosuchcolor" in
        check_bool "color error" true (contains ~needle:"unknown color" msg) );
    ( "option abbreviation works when unique",
      fun () ->
        let _, app = fresh_app () in
        ignore (run app "button .b -backgro red");
        check_string "abbrev" "red" (run app ".b cget -background") );
    ( "configure with no args lists all options",
      fun () ->
        let _, app = fresh_app () in
        ignore (run app "button .b");
        let info = run app ".b configure" in
        check_bool "has -text" true (contains ~needle:"-text" info);
        check_bool "has -command" true (contains ~needle:"-command" info) );
    ( "winfo reports structure-cache geometry without server round trips",
      fun () ->
        let _, app = fresh_app () in
        ignore (run app "frame .f -width 64 -height 32");
        ignore (run app "pack append . .f {top}");
        Tk.Core.update app;
        let before = (Server.stats app.Tk.Core.conn).Server.round_trips in
        check_string "width" "64" (run app "winfo width .f");
        check_string "class" "Frame" (run app "winfo class .f");
        let after = (Server.stats app.Tk.Core.conn).Server.round_trips in
        check_int "no round trips" before after );
    ( "winfo children",
      fun () ->
        let _, app = fresh_app () in
        ignore (run app "frame .f");
        ignore (run app "button .f.a; button .f.b");
        check_string "children" ".f.a .f.b" (run app "winfo children .f") );
    ( "focus command redirects keystrokes (§3.7)",
      fun () ->
        let server, app = fresh_app () in
        ignore (run app "entry .e1; entry .e2");
        ignore (run app "pack append . .e1 {top} .e2 {top}");
        Tk.Core.update app;
        ignore (run app "focus .e2");
        (* Pointer over .e1, but keys must go to .e2. *)
        let x, y = widget_center app ".e1" in
        Server.inject_motion server ~x ~y;
        Tk.Core.update app;
        Server.inject_string server "hi";
        Tk.Core.update app;
        check_string "typed into focus window" "hi" (run app ".e2 get");
        check_string "other entry empty" "" (run app ".e1 get");
        check_string "focus query" ".e2" (run app "focus") );
    ( "main window destroy kills the application",
      fun () ->
        let _, app = fresh_app () in
        ignore (run app "destroy .");
        check_bool "destroyed" true app.Tk.Core.app_destroyed );
    ( "wm geometry resizes and repositions the main window",
      fun () ->
        let _, app = fresh_app () in
        ignore (run app "wm geometry . 300x150+40+25");
        let m = Tk.Core.main_widget app in
        check_int "width" 300 m.Tk.Core.width;
        check_int "height" 150 m.Tk.Core.height;
        check_int "x" 40 m.Tk.Core.x;
        check_int "y" 25 m.Tk.Core.y;
        check_string "query" "300x150+40+25" (run app "wm geometry .") );
    ( "wm geometry position-only form",
      fun () ->
        let _, app = fresh_app () in
        let m = Tk.Core.main_widget app in
        let w0, h0 = (m.Tk.Core.width, m.Tk.Core.height) in
        ignore (run app "wm geometry . +5+6");
        check_int "x" 5 m.Tk.Core.x;
        check_int "y" 6 m.Tk.Core.y;
        check_int "width unchanged" w0 m.Tk.Core.width;
        check_int "height unchanged" h0 m.Tk.Core.height );
    ( "wm title round-trips and sets WM_NAME",
      fun () ->
        let _, app = fresh_app () in
        ignore (run app "wm title . {My App}");
        check_string "query" "My App" (run app "wm title .");
        let m = Tk.Core.main_widget app in
        let win =
          Option.get (Server.lookup_window app.Tk.Core.server m.Tk.Core.win)
        in
        match Hashtbl.find_opt win.Window.properties Atom.wm_name with
        | Some p -> check_string "property" "My App" p.Window.prop_data
        | None -> Alcotest.fail "WM_NAME not set" );
    ( "wm withdraw and deiconify",
      fun () ->
        let _, app = fresh_app () in
        ignore (run app "wm withdraw .");
        check_bool "hidden" false (Tk.Core.main_widget app).Tk.Core.mapped;
        ignore (run app "wm deiconify .");
        check_bool "shown" true (Tk.Core.main_widget app).Tk.Core.mapped );
    ( "winfo rootx/rooty accumulate nested offsets",
      fun () ->
        let _, app = fresh_app () in
        ignore (run app "wm geometry . 200x200+50+60");
        ignore (run app "frame .f -width 100 -height 100");
        ignore (run app "place .f -x 10 -y 20");
        ignore (run app "frame .f.g -width 30 -height 30");
        ignore (run app "place .f.g -x 3 -y 4");
        Tk.Core.update app;
        check_string "rootx" "63" (run app "winfo rootx .f.g");
        check_string "rooty" "84" (run app "winfo rooty .f.g") );
  ]

(* ------------------------------------------------------------------ *)
(* Lifecycle: packer, placer and selection state hangs off the app, and
   the display's client table off its server, so nothing process-wide
   keeps either alive. *)

let lifecycle_tests =
  [
    ( "selection handler dies with its window",
      fun () ->
        let _, app = fresh_app () in
        check_string "a new .b does not inherit the old handler" ""
          (run app
             "button .b; selection handle .b {list stale}; destroy .b; \
              button .b; selection own .b; selection get") );
    ( "destroyed and dropped apps are reclaimed with their displays",
      fun () ->
        let n = 10_000 in
        let servers = Weak.create n and apps = Weak.create n in
        let spawn i =
          let server, app = fresh_app () in
          ignore
            (run app
               "button .b; pack append . .b {top}; \
                frame .f -width 10 -height 10; place .f -x 5 -y 5; \
                selection handle .b {list x}; \
                canvas .c; .c create line 0 0 9 9");
          (* Half are torn down, half simply dropped. *)
          if i mod 2 = 0 then Tk.Core.destroy_app app;
          Weak.set servers i (Some server);
          Weak.set apps i (Some app)
        in
        for i = 0 to n - 1 do
          spawn i
        done;
        Gc.full_major ();
        let survivors w =
          let k = ref 0 in
          for i = 0 to Weak.length w - 1 do
            if Weak.check w i then incr k
          done;
          !k
        in
        check_int "servers alive" 0 (survivors servers);
        check_int "apps alive" 0 (survivors apps) );
  ]

let to_alcotest = List.map (fun (n, f) -> Alcotest.test_case n `Quick f)

let () =
  ignore click;
  Alcotest.run "tk"
    [
      ("paths", to_alcotest path_tests);
      ("optiondb", to_alcotest optiondb_tests);
      ("rescache", to_alcotest rescache_tests);
      ("dispatch", to_alcotest dispatch_tests);
      ("bindings", to_alcotest binding_tests);
      ("pack", to_alcotest pack_tests);
      ( "pack-properties",
        List.map QCheck_alcotest.to_alcotest pack_property_tests );
      ( "binding-properties",
        List.map QCheck_alcotest.to_alcotest bindpattern_property_tests );
      ( "raster-properties",
        List.map QCheck_alcotest.to_alcotest raster_property_tests );
      ("framework", to_alcotest widget_framework_tests);
      ("lifecycle", to_alcotest lifecycle_tests);
    ]
