(* wish: the windowing shell (paper §5).

   Runs Tcl scripts against a Tk application on a simulated X display:

     wish -f script.tcl        run a script (as in Figure 9's "#!wish -f")
     wish                      interactive command loop on stdin

   Because the display is simulated, wish adds three commands beyond
   standard Tk so scripts can be driven and observed headlessly:

     screendump ?window?       print an ASCII rendering of the display
     inject motion X Y | button N | key KEYSYM | string TEXT
                               synthesize user input
     serverstats               print the connection's request counters
     faultstats                print injected/absorbed fault counters
     crashtest at N | kill APP | status
                               arm the crash plan / kill a peer / report

   Two observability commands are part of the standard command set (so
   they also work in embedded apps and tests, not just wish):

     xtrace on ?cap?|off|dump|clear|status
                               per-request wire trace (bounded ring)
     xstat ?reset|get NAME?    every counter the stack keeps, as a Tcl
                               list of name/value pairs

   The -faults N flag arms the server's fault-injection plan so every
   N-th request is rejected with an X protocol error — a robustness
   torture test for scripts and widgets (use faultstats to verify that
   every injected fault was absorbed).

   The -crash-at N flag arms the crash plan: the application's X
   connection dies abruptly (as if the client was killed) the moment its
   request counter reaches N. The interpreter survives — every
   subsequent X request degrades gracefully — so scripts can verify the
   failure story of a client outliving its display connection.

   The -mailbox N flag bounds the application's incoming-send mailbox
   (default 64): a flood of send requests beyond N is refused with a
   distinct overflow error to the sender instead of queueing without
   limit. Scripts can read or adjust the bound with [send mailbox].

   The -safe-send flag evaluates incoming send scripts in a -safe slave
   interpreter (hidden exit/exec-alikes/interp/test hooks) instead of
   the main one; -limit-ms N additionally arms an N-millisecond time
   limit around each incoming script (and, without -safe-send, switches
   the guard to limits-on-the-main-interpreter mode). Scripts can read
   or adjust both with [send guard] and [send limit]. *)

open Xsim

let run_script app ~lint path =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error msg ->
    Printf.eprintf "wish: couldn't read %s: %s\n" path msg;
    exit 1
  | contents ->
    (* -lint: report diagnostics through the background-error pipeline
       (tkerror/bgerror when defined, stderr otherwise), then source the
       script anyway — lint is advisory in wish; tclcheck is the gate. *)
    if lint then
      List.iter
        (fun d ->
          app.Tk.Core.error_handler (Tcl.Lint.format_diag ~file:path d))
        (Tcl.Lint.analyze app.Tk.Core.interp contents);
    (match Tcl.Interp.eval app.Tk.Core.interp contents with
    | Tcl.Interp.Tcl_error, msg ->
      Printf.eprintf "wish: error in %s: %s\n" path msg;
      exit 1
    | _ -> Tk.Core.update app)

(* A command is complete when its braces, brackets and quotes balance
   (so multi-line procs can be typed at the prompt, as in real wish) —
   the same predicate [info complete] exposes to scripts. *)
let command_complete = Tcl.Lint.complete

let interactive app =
  Tcl.Interp.set_history_recording app.Tk.Core.interp true;
  let rec loop pending =
    print_string (if pending = "" then "% " else "> ");
    flush stdout;
    match In_channel.input_line stdin with
    | None -> ()
    | Some line ->
      let script = if pending = "" then line else pending ^ "\n" ^ line in
      if not (command_complete script) then loop script
      else begin
        Tcl.Interp.record_history_event app.Tk.Core.interp script;
        (match Tcl.Interp.eval app.Tk.Core.interp script with
        | Tcl.Interp.Tcl_ok, "" -> ()
        | Tcl.Interp.Tcl_ok, v -> print_endline v
        | _, msg -> Printf.printf "error: %s\n" msg);
        Tk.Core.update app;
        if not app.Tk.Core.app_destroyed then loop ""
      end
  in
  loop ""

let () =
  let args = Array.to_list Sys.argv in
  let no_cache = ref false in
  let lint = ref false in
  let mailbox = ref 0 in
  let safe_send = ref false in
  let limit_ms = ref 0 in
  let rec parse script name stay faults crash_at = function
    | [] -> (script, name, stay, faults, crash_at)
    | "-f" :: path :: rest -> parse (Some path) name stay faults crash_at rest
    | "-name" :: n :: rest -> parse script (Some n) stay faults crash_at rest
    | "-stay" :: rest -> parse script name true faults crash_at rest
    | "-lint" :: rest ->
      (* Static-check the script before sourcing it (diagnostics go
         through tkerror/bgerror); the script still runs. *)
      lint := true;
      parse script name stay faults crash_at rest
    | "-no-compile-cache" :: rest ->
      (* Ablation switch: run everything through the reference
         character-at-a-time evaluator instead of the parse-once cache
         and its bytecode VM. *)
      no_cache := true;
      parse script name stay faults crash_at rest
    | "-faults" :: n :: rest -> (
      match int_of_string_opt n with
      | Some every when every >= 0 -> parse script name stay every crash_at rest
      | Some _ | None ->
        Printf.eprintf "wish: -faults expects a non-negative integer\n";
        exit 2)
    | "-crash-at" :: n :: rest -> (
      match int_of_string_opt n with
      | Some at when at >= 0 -> parse script name stay faults at rest
      | Some _ | None ->
        Printf.eprintf "wish: -crash-at expects a non-negative integer\n";
        exit 2)
    | "-safe-send" :: rest ->
      safe_send := true;
      parse script name stay faults crash_at rest
    | "-limit-ms" :: n :: rest -> (
      match int_of_string_opt n with
      | Some ms when ms > 0 ->
        limit_ms := ms;
        parse script name stay faults crash_at rest
      | Some _ | None ->
        Printf.eprintf "wish: -limit-ms expects a positive integer\n";
        exit 2)
    | "-mailbox" :: n :: rest -> (
      match int_of_string_opt n with
      | Some limit when limit > 0 ->
        mailbox := limit;
        parse script name stay faults crash_at rest
      | Some _ | None ->
        Printf.eprintf "wish: -mailbox expects a positive integer\n";
        exit 2)
    | path :: rest when script = None && Sys.file_exists path ->
      parse (Some path) name stay faults crash_at rest
    | arg :: _ ->
      Printf.eprintf
        "usage: wish ?-f script? ?-name appName? ?-stay? ?-lint? \
         ?-faults n? ?-crash-at n? ?-mailbox n? ?-safe-send? \
         ?-limit-ms n? ?-no-compile-cache?\n";
      Printf.eprintf "unknown argument: %s\n" arg;
      exit 2
  in
  let script, name, stay, faults, crash_at =
    parse None None false 0 0 (List.tl args)
  in
  let app_name =
    match (name, script) with
    | Some n, _ -> n
    | None, Some path -> Filename.remove_extension (Filename.basename path)
    | None, None -> "wish"
  in
  let server = Server.create () in
  (* Armed before the application exists, so even the main window and the
     send communication window are created under fire. *)
  if faults > 0 then Server.set_fault_plan server ~fail_every_nth:faults ();
  let app =
    Tk_widgets.Tk_widgets_lib.new_app ~app_class:"Wish" ~server ~name:app_name ()
  in
  (* The crash plan counts requests from connection time, so creating the
     application has already consumed some of the budget — just as a real
     client crashes wherever in its life request N happens to fall. *)
  if crash_at > 0 then Server.set_crash_plan app.Tk.Core.conn ~at_request:crash_at;
  if !mailbox > 0 then app.Tk.Core.send.Tk.Core.mailbox_limit <- !mailbox;
  if !safe_send then app.Tk.Core.send.Tk.Core.guard_mode <- Tk.Core.Guard_safe;
  if !limit_ms > 0 then begin
    app.Tk.Core.send.Tk.Core.guard_time_ms <- !limit_ms;
    if app.Tk.Core.send.Tk.Core.guard_mode = Tk.Core.Guard_off then
      app.Tk.Core.send.Tk.Core.guard_mode <- Tk.Core.Guard_limits
  end;
  if !no_cache then Tcl.Interp.set_compile_enabled app.Tk.Core.interp false;
  Sim_commands.install app;
  (* Make the command line available as $argv / $argc, as wish does. *)
  Tcl.Interp.set_var app.Tk.Core.interp "argv" "";
  Tcl.Interp.set_var app.Tk.Core.interp "argc" "0";
  (try
     match script with
     | Some path ->
       run_script app ~lint:!lint path;
       if stay then Tk.Core.mainloop app
     | None -> interactive app
   with Tcl.Cmd_control.Exit_program code -> exit code)
