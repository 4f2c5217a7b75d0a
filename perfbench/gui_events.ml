(* gui_events: one application shaped like the repository's examples — a
   button bar whose -command updates a status message, an entry, a
   200-item listbox, a text widget, and a canvas of 10k items with a
   50-item "hot" tag that button-1 drags move.  Each op is one seeded
   gesture: a click, a keystroke into the text, a listbox pick, or one
   step of a canvas drag.  The benchmark injects it with the server's
   [inject_*] calls and then runs the event loop until the application is
   quiescent, so an op's latency is input to repaired screen.

   Why: Tk event dispatch, bindings, idle redraw and damage repair, and
   the canvas grid index do most of the work, while Tcl runs only short
   binding scripts whose text never changes (cached, no parse passes).

   Blocks are balanced so the program ends each one where it started:
   keystrokes come in runs of [line] characters cleared by Escape, and
   drags with button 1 (hot moves +2,+1 a step) and button 3 (-2,-1)
   alternate in equal numbers. *)

open Xsim

let classes = [| "click"; "key"; "pick"; "drag" |]
let line = 14 (* characters typed before Escape clears the text *)
let drag_steps = 8
let listbox_rows = 8
let canvas_items = 10_000
let hot_items = 50

(* Gesture units per block: clicks, keystroke runs of [line] + 1,
   picks, and drags of [drag_steps] ops (half button 1, half button 3):
   24 + 30 + 18 + 128 = 200 ops.  Drag steps, the costliest gesture, are
   64% of ops, so p50 and p99 both fall inside them, well away from the
   edge where the cheaper gestures end. *)
let clicks_per_block = 24
let key_runs = 2
let picks_per_block = 18
let drags_per_block = 16

let app_script =
  {|frame .bar
button .bar.b0 -text Open -command {click}
button .bar.b1 -text Save -command {click}
button .bar.b2 -text Find -command {click}
button .bar.b3 -text Quit -command {click}
pack append .bar .bar.b0 {left} .bar.b1 {left} .bar.b2 {left} .bar.b3 {left}
message .status -width 300 -text {clicks 000000}
entry .e -width 20
listbox .lb -geometry 20x8
text .t -width 40 -height 4
canvas .c -width 300 -height 200
pack append . .bar {top} .status {top} .e {top} .lb {top} .t {top} .c {top}
set clicks 0
proc click {} {
  global clicks
  incr clicks
  .status configure -text [format {clicks %06d} $clicks]
}
proc pick {} {
  .e delete 0 end
  .e insert 0 [.lb get [.lb curselection]]
}
bind .lb <ButtonRelease-1> {pick}
bind .t <Escape> {.t delete 1.0 end}
bind .c <B1-Motion> {.c move hot 2 1}
bind .c <B3-Motion> {.c move hot -2 -1}
focus .t|}

type gesture =
  | Click of int  (** button of the bar *)
  | Key of string  (** keysym *)
  | Pick of int  (** visible listbox row *)
  | Drag of { button : int; x0 : int; y0 : int; step : int }

let item k = Printf.sprintf "item%03d" k

let block rng =
  let keys = ref 0 in
  Workload.shuffled_classes rng
    [
      (0, clicks_per_block);
      (1, key_runs * (line + 1));
      (2, picks_per_block);
      (3, drags_per_block / 2);
      (4, drags_per_block / 2);
    ]
  |> Array.to_list
  |> List.concat_map (function
       | 0 -> [ Click (Random.State.int rng 4) ]
       | 1 ->
         incr keys;
         if !keys mod (line + 1) = 0 then [ Key "Escape" ]
         else [ Key (String.make 1 (Char.chr (97 + Random.State.int rng 26))) ]
       | 2 -> [ Pick (Random.State.int rng listbox_rows) ]
       | unit ->
         let button = if unit = 3 then 1 else 3 in
         (* Start points leave room for the whole path inside the view. *)
         let x0 = 10 + Random.State.int rng 250 in
         let y0 = 10 + Random.State.int rng 160 in
         List.init drag_steps (fun step -> Drag { button; x0; y0; step }))
  |> Array.of_list

let class_of = function Click _ -> 0 | Key _ -> 1 | Pick _ -> 2 | Drag _ -> 3

(* Top-left corner of a widget's window in root coordinates. *)
let origin server (w : Tk.Core.widget) =
  match Server.lookup_window server w.Tk.Core.win with
  | Some win -> Window.root_position win
  | None -> failwith ("no window for " ^ w.Tk.Core.path)

let setup ~seed =
  let rng = Random.State.make [| seed |] in
  let gestures = block rng in
  let server = Server.create () in
  let app = Tk_widgets.Tk_widgets_lib.new_app ~server ~name:"gui" () in
  let interp = app.Tk.Core.interp in
  let errors = ref 0 in
  Workload.count_background_errors app errors;
  ignore (Workload.run interp app_script);
  ignore
    (Workload.run interp
       (".lb insert end " ^ String.concat " " (List.init 200 item)));
  (* Background items on a 100x100 lattice over a plane 8x the view in
     each direction, so the view shows ~1/64 of them and the grid index
     has real work; the hot cluster sits in view.  The layout does not
     depend on the seed, so neither does the cost of a drag step. *)
  let buf = Buffer.create (canvas_items * 40) in
  for k = 0 to canvas_items - hot_items - 1 do
    let x = k mod 100 * 24 and y = k / 100 * 24 in
    Printf.bprintf buf ".c create rectangle %d %d %d %d\n" x y (x + 6) (y + 4)
  done;
  for k = 0 to hot_items - 1 do
    let x = 60 + (k mod 10 * 9) and y = 50 + (k / 10 * 9) in
    Printf.bprintf buf ".c create rectangle %d %d %d %d -tags hot\n" x y (x + 6)
      (y + 4)
  done;
  ignore (Workload.run interp (Buffer.contents buf));
  Tk.Core.update app;
  let hot_bbox = Workload.run interp ".c bbox hot" in
  let lookup = Tk.Core.lookup_exn app in
  let status = lookup ".status" and entry = lookup ".e" and text = lookup ".t" in
  let lb = lookup ".lb" and canvas = lookup ".c" in
  let centre path =
    let w = lookup path in
    let p = origin server w in
    (p.Geom.x + (w.Tk.Core.width / 2), p.Geom.y + (w.Tk.Core.height / 2))
  in
  let buttons = Array.init 4 (fun b -> centre (Printf.sprintf ".bar.b%d" b)) in
  let rows =
    let p = origin server lb in
    let font = Tk_widgets.Wutil.widget_font lb in
    let lh = Font.line_height font in
    let bw = Tk.Core.get_pixels lb "-borderwidth" in
    Array.init listbox_rows (fun r -> (p.Geom.x + 20, p.Geom.y + bw + (r * lh) + (lh / 2)))
  in
  let c0 = origin server canvas in
  (* The benchmark's model of what the screen should show. *)
  let clicks = ref 0 and typed = Buffer.create 32 and picked = ref "" in
  let b = Array.length gestures in
  let inject f =
    Probe.inject f;
    Probe.dispatch app;
    Probe.idle app
  in
  let run_op i =
    let e0 = !errors in
    let ok =
      match gestures.(i mod b) with
      | Click k ->
        let x, y = buttons.(k) in
        inject (fun () ->
            Server.inject_motion server ~x ~y;
            Server.inject_button server ~button:1 ~pressed:true;
            Server.inject_button server ~button:1 ~pressed:false);
        incr clicks;
        Tk.Core.cget status "-text" = Printf.sprintf "clicks %06d" !clicks
      | Key keysym ->
        inject (fun () ->
            Server.inject_key server ~keysym ~pressed:true;
            Server.inject_key server ~keysym ~pressed:false);
        if keysym = "Escape" then Buffer.clear typed
        else Buffer.add_string typed keysym;
        Tk_widgets.Text.cursor text = (1, Buffer.length typed)
      | Pick r ->
        let x, y = rows.(r) in
        inject (fun () ->
            Server.inject_motion server ~x ~y;
            Server.inject_button server ~button:1 ~pressed:true;
            Server.inject_button server ~button:1 ~pressed:false);
        picked := item r;
        Tk_widgets.Entry.contents entry = !picked
      | Drag { button; x0; y0; step } ->
        let m = app.Tk.Core.metrics in
        let fired = m.Tk.Metrics.binding_dispatches in
        let x = c0.Geom.x + x0 + (3 * (step + 1))
        and y = c0.Geom.y + y0 + (2 * (step + 1)) in
        inject (fun () ->
            if step = 0 then begin
              Server.inject_motion server ~x:(x - 3) ~y:(y - 2);
              Server.inject_button server ~button ~pressed:true
            end;
            Server.inject_motion server ~x ~y;
            if step = drag_steps - 1 then
              Server.inject_button server ~button ~pressed:false);
        m.Tk.Metrics.binding_dispatches = fired + 1
    in
    ok && !errors = e0
  in
  (* End-of-run oracles.  Whole blocks leave the text empty and the hot
     tag where it started, so the final checks also drive one known
     string and one known drag through the same paths. *)
  let final_checks () =
    let status_ok =
      Tk.Core.cget status "-text" = Printf.sprintf "clicks %06d" !clicks
    in
    let picked_ok = Tk_widgets.Entry.contents entry = !picked in
    let hot_home = Workload.run interp ".c bbox hot" = hot_bbox in
    Server.inject_string server "perfbench";
    Tk.Core.update app;
    let typed_ok = Tk_widgets.Text.contents text = Buffer.contents typed ^ "perfbench" in
    let x = c0.Geom.x + 100 and y = c0.Geom.y + 100 in
    Server.inject_motion server ~x ~y;
    Server.inject_button server ~button:1 ~pressed:true;
    for s = 1 to 5 do
      Server.inject_motion server ~x:(x + s) ~y:(y + s)
    done;
    Server.inject_button server ~button:1 ~pressed:false;
    Tk.Core.update app;
    let moved =
      match
        List.map int_of_string (String.split_on_char ' ' hot_bbox)
      with
      | [ x1; y1; x2; y2 ] ->
        Printf.sprintf "%d %d %d %d" (x1 + 10) (y1 + 5) (x2 + 10) (y2 + 5)
      | _ -> "?"
    in
    [
      ("status message shows the click count", status_ok);
      ("entry shows the last listbox pick", picked_ok);
      ("hot tag back where balanced drags leave it", hot_home);
      ("typed text equals what was typed", typed_ok);
      ("a 5-step drag moves the hot bbox by (10,5)",
        Workload.run interp ".c bbox hot" = moved);
      ( "canvas still holds every item",
        Tk_widgets.Canvas.item_count canvas = canvas_items );
      ("no background errors", !errors = 0);
    ]
  in
  {
    Workload.block = b;
    op_class = (fun i -> class_of gestures.(i mod b));
    run_op;
    counts = (fun () -> Counts.of_apps [ app ]);
    reset = (fun () -> Tk.Core.reset_metrics app);
    final_checks;
    teardown = (fun () -> Tk.Core.destroy_app app);
  }

let workload = { Workload.name = "gui_events"; classes; setup }
