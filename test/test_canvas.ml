(* Canvas-at-scale tests: the spatial index pinned against a naive
   linear-scan oracle (the `Canvas.install ~index:false` ablation) on a
   seeded randomized op stream, damage-region repaint proven
   byte-identical to a full redraw at the raster, tag-index consistency
   across every mutating verb, and the O(dirty) repaint counters. *)

open Xsim

let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let fresh_app ?(name = "canvas") () =
  let server = Server.create () in
  let app = Tk_widgets.Tk_widgets_lib.new_app ~server ~name () in
  (server, app)

let run app script =
  match Tcl.Interp.eval_value app.Tk.Core.interp script with
  | Ok v -> v
  | Error msg -> Alcotest.failf "script %S failed: %s" script msg

let run_err app script =
  match Tcl.Interp.eval_value app.Tk.Core.interp script with
  | Ok v -> Alcotest.failf "script %S unexpectedly succeeded: %s" script v
  | Error msg -> msg

let canvas_app ?(indexed = true) ?(name = "canvas") () =
  let server, app = fresh_app ~name () in
  Tk_widgets.Canvas.install ~index:indexed app;
  ignore (run app "canvas .c -width 300 -height 200");
  ignore (run app "pack append . .c {top}");
  Tk.Core.update app;
  (server, app)

let metric app name =
  match Tk.Core.metric app name with
  | Some v -> int_of_string v
  | None -> Alcotest.failf "missing metric %s" name

(* ------------------------------------------------------------------ *)
(* Deterministic surface behaviour *)

let surface_tests =
  [
    ( "tags: create -tags, addtag, dtag, gettags, find withtag",
      fun () ->
        let _, app = canvas_app () in
        let a = run app ".c create rectangle 10 10 30 20 -tags {box hot}" in
        let b = run app ".c create line 0 0 50 50 -tags box" in
        check_string "withtag box" (a ^ " " ^ b) (run app ".c find withtag box");
        check_string "withtag hot" a (run app ".c find withtag hot");
        ignore (run app ".c addtag cold withtag box");
        check_string "gettags b" "box cold" (run app (".c gettags " ^ b));
        ignore (run app ".c dtag box cold");
        check_string "cold dropped" "box hot" (run app (".c gettags " ^ a));
        ignore (run app ".c dtag hot");
        check_string "one-arg dtag" "box" (run app (".c gettags " ^ a));
        check_string "gettags of unknown tag" "" (run app ".c gettags nosuch")
    );
    ( "find all/overlapping/enclosed/closest and bbox",
      fun () ->
        let _, app = canvas_app () in
        let a = run app ".c create rectangle 10 10 30 20" in
        let b = run app ".c create rectangle 100 100 140 120" in
        let c = run app ".c create text 12 15 -text x" in
        check_string "all" (String.concat " " [ a; b; c ])
          (run app ".c find all");
        check_string "overlapping" b
          (run app ".c find overlapping 110 105 115 110");
        check_string "enclosed" b (run app ".c find enclosed 99 99 141 121");
        check_string "closest" b (run app ".c find closest 120 110");
        check_string "closest with halo picks topmost within halo" c
          (run app ".c find closest 13 14 500");
        check_string "bbox" "100 100 141 121" (run app (".c bbox " ^ b));
        check_string "bbox of nothing" "" (run app ".c bbox nosuch") );
    ( "raise/lower control display order (topmost wins find closest)",
      fun () ->
        let _, app = canvas_app () in
        let a = run app ".c create rectangle 10 10 30 30" in
        let b = run app ".c create rectangle 10 10 30 30" in
        check_string "later create on top" b (run app ".c find closest 20 20");
        ignore (run app (".c raise " ^ a));
        check_string "raised to top" a (run app ".c find closest 20 20");
        ignore (run app (".c lower " ^ a));
        check_string "lowered to bottom" b (run app ".c find closest 20 20");
        ignore (run app (".c raise " ^ a ^ " " ^ b));
        check_string "raise above" a (run app ".c find closest 20 20") );
    ( "bulk move/itemconfigure/scale touch only the tag",
      fun () ->
        let _, app = canvas_app () in
        let a = run app ".c create rectangle 10 10 20 20 -tags hot" in
        let b = run app ".c create rectangle 50 50 60 60" in
        ignore (run app ".c move hot 5 -5");
        check_string "a moved" "15 5 25 15" (run app (".c coords " ^ a));
        check_string "b untouched" "50 50 60 60" (run app (".c coords " ^ b));
        ignore (run app ".c scale hot 0 0 2.0 2.0");
        check_string "a scaled" "30 10 50 30" (run app (".c coords " ^ a));
        ignore (run app ".c itemconfigure hot -fill red");
        check_string "a filled" "red"
          (run app (".c itemconfigure " ^ a ^ " -fill"));
        check_string "b unfilled" ""
          (run app (".c itemconfigure " ^ b ^ " -fill")) );
    ( "coords replacement validates the item kind's arity",
      fun () ->
        let _, app = canvas_app () in
        let a = run app ".c create rectangle 10 10 20 20" in
        let msg = run_err app (".c coords " ^ a ^ " 1 2 3") in
        check_bool "arity error" true
          (msg = "wrong # coordinates: expected 4, got 3");
        check_string "coords unchanged" "10 10 20 20"
          (run app (".c coords " ^ a));
        let t = run app ".c create text 5 5 -text hi" in
        let msg = run_err app (".c coords " ^ t ^ " 1 2 3 4") in
        check_bool "text arity error" true
          (msg = "wrong # coordinates: expected 2, got 4") );
    ( "delete by tag, by id, and all",
      fun () ->
        let _, app = canvas_app () in
        let a = run app ".c create line 0 0 5 5 -tags junk" in
        let _b = run app ".c create line 1 1 6 6 -tags junk" in
        let c = run app ".c create line 2 2 7 7" in
        ignore (run app ".c delete junk");
        check_string "tag deleted" c (run app ".c find all");
        check_bool "id gone" true
          (run_err app (".c coords " ^ a) <> "");
        ignore (run app ".c delete all");
        check_string "empty" "0" (run app ".c itemcount") );
    ( "kind defaults: rectangle outline-only, line/text black fill",
      fun () ->
        let _, app = canvas_app () in
        let r = run app ".c create rectangle 0 0 5 5" in
        check_string "rect fill" ""
          (run app (".c itemconfigure " ^ r ^ " -fill"));
        check_string "rect outline" "black"
          (run app (".c itemconfigure " ^ r ^ " -outline"));
        let l = run app ".c create line 0 0 5 5" in
        check_string "line fill" "black"
          (run app (".c itemconfigure " ^ l ^ " -fill")) );
  ]

(* ------------------------------------------------------------------ *)
(* Seeded randomized op stream, applied identically to an indexed canvas
   and to the linear-scan ablation (the oracle). *)

let seed = 0x5eed

(* More streams for the same comparison; a failure names its seed. *)
let seeds = List.init 16 (fun i -> i + 1)

let tag_pool = [| "a"; "b"; "hot"; "grid" |]

let color_pool = [| "black"; "red"; "gray50"; "" |]

let rint rng lo hi = lo + Random.State.int rng (hi - lo + 1)

let rtag rng = tag_pool.(Random.State.int rng (Array.length tag_pool))

let rcolor rng = color_pool.(Random.State.int rng (Array.length color_pool))

(* One random mutating op as a Tcl script. [ids] mirrors the live id set
   (identical in both apps since the stream is identical). *)
let random_op rng ids next_id =
  let pick_id () = List.nth !ids (Random.State.int rng (List.length !ids)) in
  let coords4 () =
    Printf.sprintf "%d %d %d %d" (rint rng (-60) 340) (rint rng (-40) 240)
      (rint rng (-60) 340) (rint rng (-40) 240)
  in
  let choice = if !ids = [] then 0 else Random.State.int rng 12 in
  match choice with
  | 0 | 1 | 2 -> (
    let id = !next_id in
    next_id := id + 1;
    ids := !ids @ [ id ];
    let tags = if Random.State.bool rng then " -tags " ^ rtag rng else "" in
    match Random.State.int rng 3 with
    | 0 ->
      Printf.sprintf ".c create rectangle %s -fill {%s} -outline {%s}%s"
        (coords4 ()) (rcolor rng) (rcolor rng) tags
    | 1 ->
      Printf.sprintf ".c create line %s -fill {%s}%s" (coords4 ())
        (rcolor rng) tags
    | _ ->
      Printf.sprintf ".c create text %d %d -text {w%d}%s" (rint rng (-60) 340)
        (rint rng (-40) 240) (rint rng 0 99) tags)
  | 3 ->
    let id = pick_id () in
    ids := List.filter (fun i -> i <> id) !ids;
    Printf.sprintf ".c delete %d" id
  | 4 ->
    Printf.sprintf ".c move %s %d %d"
      (if Random.State.bool rng then string_of_int (pick_id ()) else rtag rng)
      (rint rng (-30) 30) (rint rng (-30) 30)
  | 5 ->
    Printf.sprintf ".c itemconfigure %s -fill {%s}"
      (if Random.State.bool rng then string_of_int (pick_id ()) else rtag rng)
      (rcolor rng)
  | 6 ->
    Printf.sprintf ".c %s %s"
      (if Random.State.bool rng then "raise" else "lower")
      (if Random.State.bool rng then string_of_int (pick_id ()) else rtag rng)
  | 7 ->
    if Random.State.bool rng then
      Printf.sprintf ".c addtag %s withtag %d" (rtag rng) (pick_id ())
    else Printf.sprintf ".c dtag %d %s" (pick_id ()) (rtag rng)
  | 8 ->
    Printf.sprintf ".c scale %s %d %d %.2f %.2f" (rtag rng)
      (rint rng (-20) 20) (rint rng (-20) 20)
      (0.5 +. Random.State.float rng 1.5)
      (0.5 +. Random.State.float rng 1.5)
  | 11 ->
    (* Resize the window, below and above its first 300x200, so items
       enter and leave the view without moving. *)
    Printf.sprintf ".c configure -width %d -height %d" (rint rng 120 480)
      (rint rng 80 320)
  | 10 ->
    (* Replace an item's coordinates with as many new ones as it has. *)
    let id = pick_id () in
    Printf.sprintf
      "eval .c coords %d [lrange {%s} 0 [expr {[llength [.c coords %d]] - 1}]]"
      id (coords4 ()) id
  | _ ->
    (* Relative restack: distinct ids only (self-reference is an error). *)
    let a = pick_id () and b = pick_id () in
    if a = b then Printf.sprintf ".c raise %d" a
    else
      Printf.sprintf ".c %s %d %d"
        (if Random.State.bool rng then "raise" else "lower")
        a b

(* Queries whose answers must match between index and oracle. *)
let probe_queries rng =
  let r () =
    Printf.sprintf "%d %d %d %d" (rint rng (-80) 360) (rint rng (-60) 260)
      (rint rng (-80) 360) (rint rng (-60) 260)
  in
  [
    ".c find all";
    ".c itemcount";
    Printf.sprintf ".c find overlapping %s" (r ());
    Printf.sprintf ".c find enclosed %s" (r ());
    Printf.sprintf ".c find closest %d %d" (rint rng (-80) 360)
      (rint rng (-60) 260);
    Printf.sprintf ".c find closest %d %d %d" (rint rng (-80) 360)
      (rint rng (-60) 260) (rint rng 0 40);
    Printf.sprintf ".c find withtag %s" (rtag rng);
    Printf.sprintf ".c bbox %s" (rtag rng);
  ]

let canvas_widget app = Tk.Core.lookup_exn app ".c"

(* Drive [rounds] batches; on each batch apply the same random ops to both
   apps, drain (partial repaint path), and compare every probe; then force
   a full redraw on the indexed app and require the raster output to be
   byte-identical to what the damage path left. Returns a transcript for
   the two-run identity check. *)
let differential_run seed =
  let rng = Random.State.make [| seed |] in
  let server_i, app_i = canvas_app ~indexed:true ~name:"cv-index" () in
  let _server_l, app_l = canvas_app ~indexed:false ~name:"cv-linear" () in
  let ids = ref [] and next_id = ref 1 in
  let transcript = Buffer.create 4096 in
  let label what = Printf.sprintf "seed %d: %s" seed what in
  let run app script =
    match Tcl.Interp.eval_value app.Tk.Core.interp script with
    | Ok v -> v
    | Error msg ->
      Alcotest.failf "seed %d: script %S failed: %s" seed script msg
  in
  let check_string what = check_string (label what) in
  let check_bool what = check_bool (label what) in
  for round = 1 to 25 do
    for _ = 1 to 8 do
      let op = random_op rng ids next_id in
      Buffer.add_string transcript (op ^ "\n");
      let ri = run app_i op and rl = run app_l op in
      check_string ("op result: " ^ op) rl ri
    done;
    (* Drain both: indexed app takes the damage path where possible. *)
    Tk.Core.update app_i;
    Tk.Core.update app_l;
    List.iter
      (fun q ->
        let ri = run app_i q and rl = run app_l q in
        check_string (Printf.sprintf "round %d: %s" round q) rl ri;
        Buffer.add_string transcript (q ^ " -> " ^ ri ^ "\n"))
      (probe_queries rng);
    (* A small targeted edit so the partial-repaint path runs every round
       (the wide-ranging batch above usually unions into a deopt-to-full). *)
    let tick = run app_i ".c create rectangle 2 2 6 6" in
    check_string "tick ids agree" (run app_l ".c create rectangle 2 2 6 6")
      tick;
    next_id := !next_id + 1;
    Tk.Core.update app_i;
    Tk.Core.update app_l;
    ignore (run app_i (".c delete " ^ tick));
    ignore (run app_l (".c delete " ^ tick));
    Tk.Core.update app_i;
    Tk.Core.update app_l;
    (* Damage vs full: the keyed op store after partial repaints must be
       indistinguishable from a from-scratch redraw. *)
    let damaged = Raster.render server_i () in
    Tk.Core.schedule_redraw (canvas_widget app_i);
    Tk.Core.update app_i;
    let full = Raster.render server_i () in
    check_string (Printf.sprintf "round %d: damage raster = full" round) full
      damaged;
    Buffer.add_string transcript damaged
  done;
  (* Tag-index consistency, both directions, through the Tcl surface. *)
  List.iter
    (fun app ->
      let all =
        String.split_on_char ' ' (run app ".c find all")
        |> List.filter (fun s -> s <> "")
      in
      Array.iter
        (fun tag ->
          let members =
            String.split_on_char ' ' (run app (".c find withtag " ^ tag))
            |> List.filter (fun s -> s <> "")
          in
          List.iter
            (fun id ->
              let tags = run app (".c gettags " ^ id) in
              check_bool
                (Printf.sprintf "withtag %s member %s carries the tag" tag id)
                true
                (List.mem tag (String.split_on_char ' ' tags)))
            members;
          List.iter
            (fun id ->
              let tags = String.split_on_char ' ' (run app (".c gettags " ^ id)) in
              if List.mem tag tags then
                check_bool
                  (Printf.sprintf "item %s with tag %s is in withtag" id tag)
                  true (List.mem id members))
            all)
        tag_pool)
    [ app_i; app_l ];
  (* The run must actually have exercised the machinery it claims to. *)
  check_bool "indexed app used the grid" true
    (metric app_i "tk.canvas.index_queries" > 0);
  check_bool "oracle app used linear scans" true
    (metric app_l "tk.canvas.linear_scans" > 0);
  check_bool "damage path ran" true
    (metric app_i "tk.canvas.damage_redraws" > 0);
  check_bool "damage coalescing happened" true
    (metric app_i "tk.damage.coalesced" > 0);
  Buffer.contents transcript

(* The window's retained ops, in paint order. *)
let canvas_ops server app =
  match Server.lookup_window server (canvas_widget app).Tk.Core.win with
  | Some win -> Window.ops_in_order win
  | None -> Alcotest.fail "no window for .c"

(* Check that the damage path left the ops a full redraw leaves. *)
let check_ops_match_full server app what =
  let damaged = canvas_ops server app in
  Tk.Core.schedule_redraw (canvas_widget app);
  Tk.Core.update app;
  let full = canvas_ops server app in
  check_bool
    (Printf.sprintf "%s: %d ops after damage, %d after full redraw" what
       (List.length damaged) (List.length full))
    true (damaged = full)

let differential_tests =
  [
    ( "offscreen move and delete: damage ops = full redraw ops",
      fun () ->
        let server, app = canvas_app () in
        ignore (run app ".c create rectangle 10 10 20 20");
        ignore (run app ".c create rectangle 400 400 410 410 -tags off");
        Tk.Core.update app;
        ignore (run app ".c move off 20 20");
        Tk.Core.update app;
        check_ops_match_full server app "after move";
        ignore (run app ".c delete off");
        Tk.Core.update app;
        check_ops_match_full server app "after delete" );
    ( "randomized stream: index = linear oracle, damage raster = full",
      fun () -> ignore (differential_run seed) );
    ( "two runs on the fixed seed are identical",
      fun () ->
        let t1 = differential_run seed in
        let t2 = differential_run seed in
        check_string "transcripts equal" t1 t2 );
    ( "16 more seeds: index = linear oracle, damage raster = full",
      fun () -> List.iter (fun s -> ignore (differential_run s)) seeds );
    ( "a full redraw retains ops only for items in view",
      fun () ->
        (* gui_events' set-up: 9,950 items on a lattice over a plane 8x
           the 300x200 view each way, and a 50-item cluster in view.  The
           view shows 117 lattice items and the cluster; with background
           and relief that is 169 ops, where drawing every item left
           10,002. *)
        let server, app = canvas_app () in
        let buf = Buffer.create 400_000 in
        for k = 0 to 9_949 do
          let x = k mod 100 * 24 and y = k / 100 * 24 in
          Printf.bprintf buf ".c create rectangle %d %d %d %d\n" x y (x + 6)
            (y + 4)
        done;
        for k = 0 to 49 do
          let x = 60 + (k mod 10 * 9) and y = 50 + (k / 10 * 9) in
          Printf.bprintf buf ".c create rectangle %d %d %d %d -tags hot\n" x
            y (x + 6) (y + 4)
        done;
        ignore (run app (Buffer.contents buf));
        Tk.Core.schedule_redraw (canvas_widget app);
        Tk.Core.update app;
        let ops = List.length (canvas_ops server app) in
        check_bool (Printf.sprintf "%d ops retained" ops) true (ops = 169);
        ignore (run app ".c move hot 1 1");
        Tk.Core.update app;
        check_ops_match_full server app "after a drag step" );
    ( "widening the window draws the items it uncovers",
      fun () ->
        let server, app = canvas_app () in
        ignore (run app ".c create rectangle 10 10 20 20");
        ignore (run app ".c create rectangle 400 10 410 20 -tags far");
        Tk.Core.update app;
        let before = List.length (canvas_ops server app) in
        ignore (run app ".c configure -width 500");
        Tk.Core.update app;
        check_bool "the window grew" true
          ((canvas_widget app).Tk.Core.width = 500);
        let after = List.length (canvas_ops server app) in
        check_bool
          (Printf.sprintf "%d ops before, %d after" before after)
          true
          (before = 3 && after = 4);
        check_ops_match_full server app "after widening";
        ignore (run app ".c move far 10 0");
        Tk.Core.update app;
        check_ops_match_full server app "after a move in the new view" );
  ]

(* ------------------------------------------------------------------ *)
(* O(dirty) repaint accounting *)

let counter_tests =
  [
    ( "move-one in a populated canvas repaints O(dirty), not O(n)",
      fun () ->
        let _, app = canvas_app () in
        ignore
          (run app
             "for {set i 0} {$i < 400} {incr i} { .c create rectangle \
              [expr ($i%20)*15] [expr ($i/20)*10] [expr ($i%20)*15+8] \
              [expr ($i/20)*10+6] }");
        let hot = run app ".c create rectangle 290 190 296 196 -tags hot" in
        ignore hot;
        Tk.Core.update app;
        let full_before = metric app "tk.canvas.full_redraws" in
        let considered_before = metric app "tk.canvas.items_considered" in
        ignore (run app ".c move hot 1 1");
        Tk.Core.update app;
        check_bool "no full redraw" true
          (metric app "tk.canvas.full_redraws" = full_before);
        check_bool "one damage redraw more" true
          (metric app "tk.canvas.damage_redraws" > 0);
        let considered =
          metric app "tk.canvas.items_considered" - considered_before
        in
        check_bool
          (Printf.sprintf "considered %d of 401 items" considered)
          true
          (considered < 20) );
    ( "a create with a full redraw pending allocates at most 80 minor words",
      fun () ->
        (* A set-up script's creates, before the first repaint: the
           coordinates go from the words straight into the item's array
           (99 minor words per create when they went through a list). *)
        let _, app = canvas_app () in
        Tk.Core.schedule_redraw (canvas_widget app);
        let n = 1000 in
        let creates =
          Array.init n (fun k ->
              let x = k mod 100 * 24 and y = k / 100 * 24 in
              List.map string_of_int [ x; y; x + 6; y + 4 ]
              |> List.append [ ".c"; "create"; "rectangle" ])
        in
        let before = Gc.minor_words () in
        Array.iter
          (fun words ->
            match Tcl.Interp.eval_words app.Tk.Core.interp words with
            | Tcl.Interp.Tcl_ok, _ -> ()
            | _, msg -> Alcotest.failf "create failed: %s" msg)
          creates;
        let per_create = (Gc.minor_words () -. before) /. float n in
        check_bool
          (Printf.sprintf "%.1f minor words per create" per_create)
          true (per_create <= 80.0) );
    ( "a damage repaint looks up one colour's GC once",
      fun () ->
        let _, app = canvas_app () in
        ignore
          (run app
             "for {set i 0} {$i < 20} {incr i} { .c create rectangle [expr \
              {10 + $i * 5}] 10 [expr {13 + $i * 5}] 14 -fill red -outline \
              {} -tags hot }");
        Tk.Core.update app;
        ignore (run app ".c move hot 1 1");
        Tk.Core.reset_metrics app;
        Tk.Core.update app;
        check_bool "one damage repaint, no full redraw" true
          (metric app "tk.canvas.damage_redraws" = 1
          && metric app "tk.canvas.full_redraws" = 0);
        check_bool "20 items drawn" true
          (metric app "tk.canvas.items_drawn" = 20);
        let lookups =
          metric app "rescache_hits" + metric app "rescache_misses"
        in
        check_bool
          (Printf.sprintf "%d rescache lookups" lookups)
          true (lookups = 1) );
    ( "damage covering the widget deopts to a full redraw",
      fun () ->
        let _, app = canvas_app () in
        ignore (run app ".c create rectangle 0 0 299 199 -tags big");
        Tk.Core.update app;
        let deopt_before = metric app "tk.damage.deopt_full" in
        ignore (run app ".c move big 1 0");
        Tk.Core.update app;
        check_bool "deopted" true
          (metric app "tk.damage.deopt_full" > deopt_before) );
  ]

let () =
  Alcotest.run "canvas"
    [
      ("surface", List.map (fun (n, f) -> Alcotest.test_case n `Quick f) surface_tests);
      ( "differential",
        List.map (fun (n, f) -> Alcotest.test_case n `Quick f) differential_tests );
      ("counters", List.map (fun (n, f) -> Alcotest.test_case n `Quick f) counter_tests);
    ]
