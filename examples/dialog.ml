(* Section 5's claim: "Tk contains no special support for dialog boxes.
   The basic commands for creating and arranging widgets are already
   sufficient: even in the normal case, dialogs are created by writing
   short Tcl scripts."

   This example defines a modal confirmation dialog entirely in Tcl — a
   procedure any application could paste in — using only frame, message,
   button, pack, grab and tkwait. The dialog is created while the
   application runs, grabs the pointer so clicks elsewhere are ignored,
   waits for an answer, and cleans itself up. *)

open Xsim

let run app script =
  match Tcl.Interp.eval_value app.Tk.Core.interp script with
  | Ok v -> v
  | Error msg -> failwith (Printf.sprintf "%s: %s" script msg)

(* The whole dialog implementation: a short Tcl script (§5). *)
let dialog_library =
  {|proc ask {question} {
  global dialog_answer
  frame .dlg -borderwidth 2 -relief raised -background gray90
  message .dlg.msg -text $question -width 150
  button .dlg.yes -text Yes -command {set dialog_answer yes}
  button .dlg.no  -text No  -command {set dialog_answer no}
  pack append .dlg .dlg.msg {top fillx} .dlg.yes {left expand} .dlg.no {right expand}
  place .dlg -x 20 -y 30
  grab set .dlg
  tkwait variable dialog_answer
  grab release .dlg
  destroy .dlg
  return $dialog_answer
}|}

let () =
  let server = Server.create () in
  let app = Tk_widgets.Tk_widgets_lib.new_app ~server ~name:"dialog" () in

  print_endline "== Section 5: dialog boxes are just Tcl scripts ==";
  print_endline "";
  print_endline dialog_library;
  print_endline "";

  (* The application proper: one button that wants confirmation. *)
  ignore (run app "label .status -text {Document: unsaved changes}");
  ignore (run app "button .quit -text Quit -command {
    set answer [ask {Really quit?}]
    .status configure -text \"You answered: $answer\"
  }");
  ignore (run app "pack append . .status {top fillx} .quit {top}");
  ignore (run app dialog_library);
  Tk.Core.update app;

  (* Answer asynchronously: after the dialog appears, a timer clicks Yes
     (tkwait pumps the event loop, so the timer fires while ask waits). *)
  ignore
    (run app
       "after 30 {\n\
       \  print \"dialog is up; grab current = [grab current]\\n\"\n\
       \  print [screendump_stub]\n\
       \  .dlg.yes invoke\n\
        }");
  Tcl.Interp.register_value app.Tk.Core.interp
    (Tcl.Interp.signature "screendump_stub" 0 ~max:0 ~usage:"screendump_stub")
    (fun _ _ ->
      Raster.render server ~window:(Tk.Core.main_widget app).Tk.Core.win ());

  print_endline "Clicking [Quit] pops the dialog and waits for an answer:";
  ignore (run app ".quit invoke");
  Tk.Core.update app;
  print_endline "";
  Printf.printf "Status line now reads: %s\n" (run app ".status cget -text");
  Printf.printf "Dialog cleaned up: .dlg exists = %s\n"
    (run app "winfo exists .dlg")
