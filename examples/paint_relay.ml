(* Section 7's performance vignette: "it is possible to paint with the
   mouse in one application, have all the mouse motion events bound into
   Tcl commands, which in turn use send to forward commands to another
   application in a different process, which finally draws the painted
   object in its own window" — with no noticeable lag.

   Here the painter app binds <B1-Motion> to a Tcl command that sends a
   'plot' command to the canvas app. The canvas app implements 'plot' as
   an application-specific primitive (OCaml code that draws into its
   window), registered with its interpreter exactly as in Figure 6. *)

open Xsim

let run app script =
  match Tcl.Interp.eval_value app.Tk.Core.interp script with
  | Ok v -> v
  | Error msg -> failwith (Printf.sprintf "[%s] %s: %s" app.Tk.Core.app_name script msg)

let () =
  let server = Server.create () in
  let painter = Tk_widgets.Tk_widgets_lib.new_app ~server ~name:"painter" () in
  let canvas = Tk_widgets.Tk_widgets_lib.new_app ~server ~name:"canvas" () in

  print_endline "== Section 7: painting relayed between applications ==";
  print_endline "";

  (* --- The canvas application: a frame plus one C-coded primitive. --- *)
  ignore (run canvas "frame .area -width 180 -height 90 -background white");
  ignore (run canvas "pack append . .area {top}");
  Tk.Core.update canvas;
  let plotted = ref 0 in
  Tcl.Interp.register_value canvas.Tk.Core.interp
    (Tcl.Interp.signature "plot" 2 ~max:2 ~usage:"plot x y")
    (fun _ words ->
      match words with
      | [ _; x; y ] ->
        let area = Tk.Core.lookup_exn canvas ".area" in
        let gc = Tk.Core.widget_gc area ~fg:"black" () in
        (match (int_of_string_opt x, int_of_string_opt y) with
        | Some x, Some y ->
          Server.fill_rect canvas.Tk.Core.conn area.Tk.Core.win gc
            (Geom.rect ~x ~y ~width:6 ~height:6);
          incr plotted
        | _ -> ());
        ""
      | _ -> raise Tcl.Interp.Usage);

  (* --- The painter: motion events with button 1 held are forwarded. --- *)
  ignore (run painter "frame .pad -width 180 -height 90 -background gray90");
  ignore (run painter "pack append . .pad {top}");
  ignore (run painter {|bind .pad <B1-Motion> {send canvas "plot %x %y"}|});
  Tk.Core.update painter;

  (* Drag a stroke across the painter's pad. *)
  let pad = Tk.Core.lookup_exn painter ".pad" in
  let win = Option.get (Server.lookup_window server pad.Tk.Core.win) in
  let origin = Window.root_position win in
  print_endline "Dragging the mouse across the painter's pad...";
  Server.inject_motion server ~x:(origin.Geom.x + 5) ~y:(origin.Geom.y + 20);
  Server.inject_button server ~button:1 ~pressed:true;
  let points = 24 in
  let t0 = Unix.gettimeofday () in
  for i = 1 to points do
    Server.inject_motion server
      ~x:(origin.Geom.x + 5 + (i * 6))
      ~y:(origin.Geom.y + 20 + (i * 2));
    Tk.Core.update_all server
  done;
  Server.inject_button server ~button:1 ~pressed:false;
  Tk.Core.update_all server;
  let elapsed = Unix.gettimeofday () -. t0 in

  Printf.printf "Motion events relayed via send: %d; points drawn: %d\n"
    points !plotted;
  Printf.printf "Wall time for the stroke: %.3f ms (%.0f us per point)\n"
    (elapsed *. 1000.0)
    (elapsed *. 1e6 /. float_of_int points);
  print_endline "";
  print_endline "The canvas application's window (painted remotely):";
  print_string
    (Raster.render server ~window:(Tk.Core.main_widget canvas).Tk.Core.win ())
