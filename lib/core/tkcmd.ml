let failf = Tcl.Interp.failf

let ok = Tcl.Interp.ok

(* ------------------------------------------------------------------ *)
(* bind (paper §3.2, Figure 7) *)

let cmd_bind app : Tcl.Interp.command =
 fun _interp words ->
  match words with
  | [ _; path ] ->
    ignore (Core.lookup_exn app path);
    ok (Tcl.Tcl_list.format (Core.bound_sequences app ~path))
  | [ _; path; sequence ] ->
    ignore (Core.lookup_exn app path);
    ok (Option.value (Core.binding_script app ~path ~sequence) ~default:"")
  | [ _; path; sequence; script ] ->
    ignore (Core.lookup_exn app path);
    Core.bind_widget app ~path ~sequence ~script;
    ok ""
  | _ -> raise Tcl.Interp.Usage

(* ------------------------------------------------------------------ *)
(* destroy *)

let cmd_destroy app : Tcl.Interp.command =
 fun _interp words ->
  match words with
  | _ :: (_ :: _ as paths) ->
    List.iter
      (fun path ->
        match Core.lookup app path with
        | Some w when not w.Core.destroyed -> Core.destroy_widget w
        | Some _ | None -> ())
      paths;
    ok ""
  | _ -> raise Tcl.Interp.Usage

(* ------------------------------------------------------------------ *)
(* winfo *)

let rec root_xy app w =
  match Path.parent w.Core.path with
  | None -> (w.Core.x, w.Core.y)
  | Some p -> (
    match Core.lookup app p with
    | Some parent ->
      let px, py = root_xy app parent in
      (px + w.Core.x, py + w.Core.y)
    | None -> (w.Core.x, w.Core.y))

(* The [winfo] subcommands that read one window. *)
let window_info app = function
  | "class" -> Some (fun w -> w.Core.wclass.Core.cname)
  | "children" ->
    Some
      (fun w ->
        Tcl.Tcl_list.format (List.map (fun c -> c.Core.path) (Core.children w)))
  | "parent" ->
    Some (fun w -> Option.value (Path.parent w.Core.path) ~default:"")
  | "name" -> Some (fun w -> Path.basename w.Core.path)
  | "width" -> Some (fun w -> string_of_int w.Core.width)
  | "height" -> Some (fun w -> string_of_int w.Core.height)
  | "x" -> Some (fun w -> string_of_int w.Core.x)
  | "y" -> Some (fun w -> string_of_int w.Core.y)
  | "rootx" -> Some (fun w -> string_of_int (fst (root_xy app w)))
  | "rooty" -> Some (fun w -> string_of_int (snd (root_xy app w)))
  | "reqwidth" -> Some (fun w -> string_of_int w.Core.req_width)
  | "reqheight" -> Some (fun w -> string_of_int w.Core.req_height)
  | "geometry" ->
    Some
      (fun w ->
        Printf.sprintf "%dx%d+%d+%d" w.Core.width w.Core.height w.Core.x
          w.Core.y)
  | "ismapped" -> Some (fun w -> if w.Core.mapped then "1" else "0")
  | "id" -> Some (fun w -> Printf.sprintf "0x%x" w.Core.win)
  | _ -> None

let cmd_winfo app : Tcl.Interp.command =
 fun _interp words ->
  match words with
  | [ _; "exists"; path ] -> (
    match Core.lookup app path with
    | Some w when not w.Core.destroyed -> ok "1"
    | Some _ | None -> ok "0")
  | [ _; "interps" ] -> ok (Tcl.Tcl_list.format (Sendcmd.interps app))
  | [ _; "name" ] -> ok app.Core.app_name
  | [ _; "screenwidth" ] ->
    ok
      (string_of_int
         (Xsim.Server.root_window app.Core.server).Xsim.Window.width)
  | [ _; "screenheight" ] ->
    ok
      (string_of_int
         (Xsim.Server.root_window app.Core.server).Xsim.Window.height)
  | [ _; "containing"; xs; ys ] -> (
    match (int_of_string_opt xs, int_of_string_opt ys) with
    | Some x, Some y -> (
      let root = Xsim.Server.root_window app.Core.server in
      match Xsim.Window.window_at root { Xsim.Geom.x; y } with
      | Some win -> (
        match Hashtbl.find_opt app.Core.by_xid win.Xsim.Window.id with
        | Some w -> ok w.Core.path
        | None -> ok "")
      | None -> ok "")
    | _ -> failf "expected integer coordinates")
  | [ _; option; path ] -> (
    match window_info app option with
    | Some info -> ok (info (Core.lookup_exn app path))
    | None -> raise Tcl.Interp.Usage)
  | _ -> raise Tcl.Interp.Usage

(* ------------------------------------------------------------------ *)
(* focus (paper §3.7) *)

let cmd_focus app : Tcl.Interp.command =
 fun _interp words ->
  match words with
  | [ _ ] -> ok (Option.value app.Core.focus_path ~default:"none")
  | [ _; "none" ] ->
    Core.set_focus app None;
    ok ""
  | [ _; path ] ->
    ignore (Core.lookup_exn app path);
    Core.set_focus app (Some path);
    ok ""
  | _ -> raise Tcl.Interp.Usage

(* ------------------------------------------------------------------ *)
(* option (paper §3.5) *)

let cmd_option app : Tcl.Interp.command =
 fun _interp words ->
  match words with
  | [ _; "add"; pattern; value ] ->
    Optiondb.add app.Core.options ~pattern value;
    ok ""
  | [ _; "add"; pattern; value; priority ] -> (
    match int_of_string_opt priority with
    | Some p ->
      Optiondb.add app.Core.options ~priority:p ~pattern value;
      ok ""
    | None -> failf "bad priority level \"%s\"" priority)
  | [ _; "get"; path; name; cls ] -> (
    let w = Core.lookup_exn app path in
    let chain =
      (* The chain for the window itself (without the final option). *)
      let rec prefixes acc p =
        match Path.parent p with
        | None -> acc
        | Some parent -> prefixes (p :: acc) parent
      in
      (app.Core.app_name, app.Core.app_class)
      :: List.filter_map
           (fun p ->
             Option.map
               (fun widget ->
                 (Path.basename p, widget.Core.wclass.Core.cname))
               (Core.lookup app p))
           (prefixes [] w.Core.path)
    in
    match Optiondb.get app.Core.options ~name_chain:chain ~name ~cls with
    | Some v -> ok v
    | None -> ok "")
  | [ _; "clear" ] ->
    Optiondb.clear app.Core.options;
    ok ""
  | [ _; "readfile"; path ] -> (
    match In_channel.with_open_text path In_channel.input_all with
    | contents -> (
      match Optiondb.load_string app.Core.options contents with
      | Ok _ -> ok ""
      | Error msg -> failf "%s" msg)
    | exception Sys_error msg -> failf "couldn't read file \"%s\": %s" path msg)
  | _ -> raise Tcl.Interp.Usage

(* ------------------------------------------------------------------ *)
(* after, update, tkwait *)

let cmd_after app : Tcl.Interp.command =
 fun _interp words ->
  match words with
  | [ _; "cancel"; id ] ->
    (* Ids look like "after#42". *)
    (match String.index_opt id '#' with
    | Some i -> (
      match
        int_of_string_opt (String.sub id (i + 1) (String.length id - i - 1))
      with
      | Some n -> ignore (Dispatch.cancel app.Core.disp n)
      | None -> ())
    | None -> ());
    ok ""
  | [ _; ms ] -> (
    match int_of_string_opt ms with
    | Some ms ->
      (* Blocking form: sleep on the dispatcher clock while keeping the
         application alive.  Using the pluggable clock (not wall time)
         means a virtual clock advances deterministically through
         blocking sleeps — which is also what lets time limits fire at
         exact virtual ticks in scripts like [while 1 {after 1}]. *)
      let disp = app.Core.disp in
      let deadline = Dispatch.now_ms disp + ms in
      let rec wait () =
        Core.update app;
        let now = Dispatch.now_ms disp in
        if now < deadline then begin
          Dispatch.sleep_ms disp (min (deadline - now) 2);
          wait ()
        end
      in
      wait ();
      ok ""
    | None -> failf "expected integer but got \"%s\"" ms)
  | _ :: ms :: (_ :: _ as script_words) -> (
    match int_of_string_opt ms with
    | Some ms ->
      let script = String.concat " " script_words in
      let id =
        Dispatch.after app.Core.disp ~ms (fun () ->
            Core.eval_callback app ~context:"after script" script)
      in
      ok (Printf.sprintf "after#%d" id)
    | None -> failf "expected integer but got \"%s\"" ms)
  | _ -> raise Tcl.Interp.Usage

let cmd_grab app : Tcl.Interp.command =
 fun _interp words ->
  let grab path =
    ignore (Core.lookup_exn app path);
    app.Core.grab_path <- Some path;
    ok ""
  in
  match words with
  | [ _; "current" ] -> ok (Option.value app.Core.grab_path ~default:"")
  | [ _; "release"; _path ] ->
    app.Core.grab_path <- None;
    ok ""
  | [ _; "set"; path ] -> grab path
  | [ _; path ] when path <> "" && path.[0] = '.' -> grab path
  | _ -> raise Tcl.Interp.Usage

let cmd_update app : Tcl.Interp.command =
 fun _interp words ->
  match words with
  | [ _ ] ->
    Core.update app;
    ok ""
  | [ _; "idletasks" ] ->
    ignore (Dispatch.run_idle app.Core.disp);
    ok ""
  | _ -> raise Tcl.Interp.Usage

let cmd_tkwait app : Tcl.Interp.command =
 fun _interp words ->
  (* Both forms pump the event loop, so timers, bindings and incoming
     sends keep running while we wait. *)
  let pump continue_waiting =
    let guard = ref 1_000_000 in
    while continue_waiting () && !guard > 0 do
      Core.update app;
      decr guard;
      if continue_waiting () then ignore (Unix.select [] [] [] 0.001)
    done
  in
  match words with
  | [ _; "window"; path ] ->
    pump (fun () ->
        match Core.lookup app path with
        | Some w -> not w.Core.destroyed
        | None -> false);
    ok ""
  | [ _; "variable"; name ] ->
    let initial = Tcl.Interp.get_var app.Core.interp name in
    pump (fun () -> Tcl.Interp.get_var app.Core.interp name = initial);
    ok ""
  | _ -> raise Tcl.Interp.Usage

(* ------------------------------------------------------------------ *)
(* xtrace / xstat: wire-traffic observability (§7's evaluation currency
   is "server traffic avoided"; these let scripts see and assert it) *)

let cmd_xtrace app : Tcl.Interp.command =
 fun _interp words ->
  let conn = app.Core.conn in
  match words with
  | [ _; "on" ] ->
    Xsim.Server.set_tracing conn true;
    ok ""
  | [ _; "on"; capacity ] -> (
    match int_of_string_opt capacity with
    | Some c when c > 0 ->
      Xsim.Server.set_tracing ~capacity:c conn true;
      ok ""
    | Some _ | None -> failf "expected positive integer but got \"%s\"" capacity)
  | [ _; "off" ] ->
    Xsim.Server.set_tracing conn false;
    ok ""
  | [ _; "dump" ] -> ok (Xsim.Server.trace_dump conn)
  | [ _; "clear" ] ->
    Xsim.Server.clear_trace conn;
    ok ""
  | [ _; "status" ] ->
    ok
      (Printf.sprintf "%s %d"
         (if Xsim.Server.tracing conn then "on" else "off")
         (Xsim.Server.trace_length conn))
  | _ -> raise Tcl.Interp.Usage

let cmd_xstat app : Tcl.Interp.command =
 fun _interp words ->
  match words with
  | [ _ ] ->
    ok
      (Tcl.Tcl_list.format
         (List.concat_map
            (fun (name, value) -> [ name; value ])
            (Core.metrics_snapshot app)))
  | [ _; "reset" ] ->
    Core.reset_metrics app;
    ok ""
  | [ _; "get"; name ] -> (
    match Core.metric app name with
    | Some v -> ok v
    | None -> failf "unknown counter \"%s\"" name)
  | _ -> raise Tcl.Interp.Usage

(* ------------------------------------------------------------------ *)
(* wm: a minimal window-manager interface (we are our own WM) *)

let cmd_wm app : Tcl.Interp.command =
 fun _interp words ->
  match words with
  | [ _; "title"; path ] ->
    ignore (Core.lookup_exn app path);
    ok app.Core.title
  | [ _; "title"; path; title ] ->
    let w = Core.lookup_exn app path in
    app.Core.title <- title;
    (* Published as WM_NAME so the (simulated) window manager can draw a
       title bar, as twm does in the paper's Figure 10. *)
    Core.absorb app ~default:() (fun () ->
        Xsim.Server.change_property app.Core.conn w.Core.win
          ~prop:Xsim.Atom.wm_name ~ptype:Xsim.Atom.string title);
    ok ""
  | [ _; "geometry"; path; geometry ] -> (
    let w = Core.lookup_exn app path in
    (* WxH, WxH+X+Y or +X+Y *)
    let parse_signed s i =
      (* at s.[i] = '+' or '-' *)
      let sign = if s.[i] = '-' then -1 else 1 in
      let j = ref (i + 1) in
      while !j < String.length s && s.[!j] >= '0' && s.[!j] <= '9' do
        incr j
      done;
      (sign * int_of_string (String.sub s (i + 1) (!j - i - 1)), !j)
    in
    match
      (let s = geometry in
       let size, rest =
         match String.index_opt s 'x' with
         | Some _ when s.[0] <> '+' && s.[0] <> '-' -> (
           let xi = String.index s 'x' in
           let wid = int_of_string (String.sub s 0 xi) in
           let j = ref (xi + 1) in
           while
             !j < String.length s && s.[!j] >= '0' && s.[!j] <= '9'
           do
             incr j
           done;
           let hei = int_of_string (String.sub s (xi + 1) (!j - xi - 1)) in
           (Some (wid, hei), !j))
         | _ -> (None, 0)
       in
       let pos =
         if rest < String.length s && (s.[rest] = '+' || s.[rest] = '-') then begin
           let x, j = parse_signed s rest in
           if j < String.length s && (s.[j] = '+' || s.[j] = '-') then
             let y, _ = parse_signed s j in
             Some (x, y)
           else None
         end
         else None
       in
       (size, pos))
    with
    | exception _ -> failf "bad geometry specifier \"%s\"" geometry
    | size, pos ->
      let x = match pos with Some (x, _) -> x | None -> w.Core.x in
      let y = match pos with Some (_, y) -> y | None -> w.Core.y in
      let width = match size with Some (wd, _) -> wd | None -> w.Core.width in
      let height = match size with Some (_, h) -> h | None -> w.Core.height in
      Core.move_resize w ~x ~y ~width ~height;
      ok "")
  | [ _; "geometry"; path ] ->
    let w = Core.lookup_exn app path in
    ok
      (Printf.sprintf "%dx%d+%d+%d" w.Core.width w.Core.height w.Core.x
         w.Core.y)
  | [ _; "withdraw"; path ] ->
    Core.unmap_widget (Core.lookup_exn app path);
    ok ""
  | [ _; "deiconify"; path ] ->
    Core.map_widget (Core.lookup_exn app path);
    ok ""
  | _ -> raise Tcl.Interp.Usage

(* ------------------------------------------------------------------ *)
(* lint: the static checker as a Tcl command.  Analysis never executes
   the script — it returns a list of {line col severity message}
   elements and touches nothing but the tcl.lint.* counters.  -safe
   additionally reports reachable uses of safe-profile hidden
   commands. *)

let lint_signature =
  Tcl.Interp.signature "lint" 1 ~max:1 ~switches:[ Tcl.Interp.Flag "-safe" ]
    ~usage:"lint ?-safe? script"

let cmd_lint _app : Tcl.Interp.command =
 fun interp words ->
  match Tcl.Interp.switches lint_signature (List.tl words) with
  | found, [ script ] ->
    let safe = found <> [] in
    ok (Tcl.Lint.to_tcl_list (Tcl.Lint.analyze ~safe interp script))
  | _ -> raise Tcl.Interp.Usage

(* Every command this module defines, with its signature: built once,
   so installing an application allocates no table. *)
let commands =
  let sg = Tcl.Interp.signature and sub = Tcl.Interp.subsig in
  [
    (* The bind pattern validator hooks Bindpattern into Lint (which,
       living in the tcl library, cannot see it directly). *)
    ( sg "bind" 1 ~max:3 ~usage:"bind window ?pattern? ?command?"
        ~checks:
          [
            {
              Tcl.Interp.chk_arg = 2;
              chk =
                (fun seq ->
                  match Bindpattern.parse_sequence seq with
                  | Ok _ -> None
                  | Error msg -> Some msg);
            };
          ],
      cmd_bind );
    (sg "destroy" 1 ~usage:"destroy window ?window ...?", cmd_destroy);
    ( sg "winfo" 1 ~max:3 ~usage:"winfo option ?arg?"
        ~subs:
          [
            sub "children" 1 ~max:1;
            sub "class" 1 ~max:1;
            sub "containing" 2 ~max:2;
            sub "exists" 1 ~max:1;
            sub "geometry" 1 ~max:1;
            sub "height" 1 ~max:1;
            sub "id" 1 ~max:1;
            sub "interps" 0 ~max:0;
            sub "ismapped" 1 ~max:1;
            sub "name" 0 ~max:1;
            sub "parent" 1 ~max:1;
            sub "reqheight" 1 ~max:1;
            sub "reqwidth" 1 ~max:1;
            sub "rootx" 1 ~max:1;
            sub "rooty" 1 ~max:1;
            sub "screenheight" 0 ~max:0;
            sub "screenwidth" 0 ~max:0;
            sub "width" 1 ~max:1;
            sub "x" 1 ~max:1;
            sub "y" 1 ~max:1;
          ],
      cmd_winfo );
    (sg "focus" 0 ~max:1 ~usage:"focus ?window?", cmd_focus);
    ( sg "option" 1 ~usage:"option add|get|clear|readfile ..."
        ~subs:
          [
            sub "add" 2 ~max:3;
            sub "clear" 0 ~max:0;
            sub "get" 3 ~max:3;
            sub "readfile" 1 ~max:1;
          ],
      cmd_option );
    (sg "after" 1 ~usage:"after ms ?command?", cmd_after);
    ( sg "update" 0 ~max:1 ~usage:"update ?idletasks?"
        ~subs:[ sub "idletasks" 0 ~max:0 ],
      cmd_update );
    ( sg "tkwait" 2 ~max:2 ~usage:"tkwait variable|window name"
        ~subs:[ sub "variable" 1 ~max:1; sub "window" 1 ~max:1 ],
      cmd_tkwait );
    ( sg "grab" 1 ~max:2 ~usage:"grab set|release|current ?window?"
        ~subs:
          [
            sub "current" 0 ~max:0;
            sub "release" 1 ~max:1;
            sub "set" 1 ~max:1;
          ],
      cmd_grab );
    ( sg "wm" 2 ~usage:"wm option window ?arg?"
        ~subs:
          [
            sub "deiconify" 1 ~max:1;
            sub "geometry" 1 ~max:2;
            sub "title" 1 ~max:2;
            sub "withdraw" 1 ~max:1;
          ],
      cmd_wm );
    ( sg "xtrace" 1 ~max:2 ~usage:"xtrace on ?capacity?|off|dump|clear|status"
        ~subs:
          [
            sub "clear" 0 ~max:0;
            sub "dump" 0 ~max:0;
            sub "off" 0 ~max:0;
            sub "on" 0 ~max:1;
            sub "status" 0 ~max:0;
          ],
      cmd_xtrace );
    ( sg "xstat" 0 ~max:2 ~usage:"xstat ?reset|get counter?"
        ~subs:[ sub "get" 1 ~max:1; sub "reset" 0 ~max:0 ],
      cmd_xstat );
    (lint_signature, cmd_lint);
  ]

let install app =
  List.iter
    (fun (s, cmd) -> Tcl.Interp.register app.Core.interp s (cmd app))
    commands;
  Pack.install app;
  Place.install app;
  Selection.install app;
  Sendcmd.install app
