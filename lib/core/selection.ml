open Xsim

let failf = Tcl.Interp.failf

let result_property = "TK_SELECTION_RESULT"

(* Answer a SelectionRequest using the registered handler. *)
let answer app (r : Event.selection_request) =
  let data =
    match (app.Core.sel.Core.sel_provider, app.Core.sel.Core.sel_tcl_handler) with
    | Some provider, _ -> ( try Some (provider ()) with _ -> None)
    | None, Some script -> (
      (* Tk appends the byte range to the handler script; handlers run at
         global scope. *)
      match
        Tcl.Interp.with_level app.Core.interp 0 (fun () ->
            Tcl.Interp.eval app.Core.interp (script ^ " 0 1000000"))
      with
      | Tcl.Interp.Tcl_ok, v -> Some v
      | _ -> None)
    | None, None -> None
  in
  match data with
  | Some data ->
    Server.send_selection_notify app.Core.conn ~requestor:r.Event.sr_requestor
      ~selection:r.Event.sr_selection ~target:r.Event.sr_target
      ~property:(Some r.Event.sr_property) ~data:(Some data)
  | None ->
    Server.send_selection_notify app.Core.conn ~requestor:r.Event.sr_requestor
      ~selection:r.Event.sr_selection ~target:r.Event.sr_target
      ~property:None ~data:None

let own w ~provider =
  let app = w.Core.app in
  app.Core.sel.Core.sel_owner_path <- Some w.Core.path;
  app.Core.sel.Core.sel_provider <- Some provider;
  app.Core.sel.Core.sel_tcl_handler <- None;
  Server.set_selection_owner app.Core.conn ~selection:Atom.primary w.Core.win

let own_with_script w ~script =
  let app = w.Core.app in
  app.Core.sel.Core.sel_owner_path <- Some w.Core.path;
  app.Core.sel.Core.sel_provider <- None;
  app.Core.sel.Core.sel_tcl_handler <- Some script;
  Server.set_selection_owner app.Core.conn ~selection:Atom.primary w.Core.win

let disown app =
  app.Core.sel.Core.sel_owner_path <- None;
  app.Core.sel.Core.sel_provider <- None;
  app.Core.sel.Core.sel_tcl_handler <- None;
  Server.set_selection_owner app.Core.conn ~selection:Atom.primary Xid.none

let owner_path app = app.Core.sel.Core.sel_owner_path

let default_timeout_ms = 2000

let get ?(timeout_ms = default_timeout_ms) app =
  let prop = Server.intern_atom app.Core.conn result_property in
  let owner =
    Core.absorb app ~default:Xid.none @@ fun () ->
    Server.get_selection_owner app.Core.conn ~selection:Atom.primary
  in
  app.Core.sel.Core.sel_pending <- Some None;
  Server.convert_selection app.Core.conn ~selection:Atom.primary
    ~target:Atom.string ~property:prop ~requestor:app.Core.comm_win;
  (* Pump every local application so the owner (possibly another app on
     this display) can answer; in real X this is the sender blocking in
     its event loop. The wait is bounded by a deadline on the dispatcher
     clock, and an owner whose window vanished mid-conversion (it
     crashed) is detected without waiting the deadline out. *)
  let disp = app.Core.disp in
  let deadline = Dispatch.now_ms disp + timeout_ms in
  let owner_gone () =
    owner <> Xid.none
    && not
         (Core.absorb app ~default:true @@ fun () ->
          Server.window_exists app.Core.conn owner)
  in
  let rec wait backoff =
    Core.update_all app.Core.server;
    match app.Core.sel.Core.sel_pending with
    | Some (Some _) | None -> `Settled
    | Some None ->
      if owner_gone () then `Owner_died
      else if Dispatch.now_ms disp >= deadline then `Timed_out
      else begin
        Dispatch.sleep_ms disp backoff;
        wait (min (backoff * 2) 64)
      end
  in
  let outcome = wait 1 in
  let pending = app.Core.sel.Core.sel_pending in
  app.Core.sel.Core.sel_pending <- None;
  match (outcome, pending) with
  | _, Some (Some data) -> data
  | (`Owner_died | `Timed_out), _ ->
    (* The owner crashed or hung mid-conversion. Clear the dangling
       ownership server-side so later requests fail fast instead of
       repeating the timeout. *)
    (Core.absorb app ~default:() @@ fun () ->
     if
       Server.get_selection_owner app.Core.conn ~selection:Atom.primary
       = owner
     then
       Server.set_selection_owner app.Core.conn ~selection:Atom.primary
         Xid.none);
    if outcome = `Owner_died then
      failf "selection owner died during PRIMARY conversion"
    else
      failf
        "selection owner is not responding (PRIMARY conversion timed out \
         after %d ms)"
        timeout_ms
  | `Settled, _ ->
    failf "PRIMARY selection doesn't exist or form \"STRING\" not defined"

(* Event interceptor: selection requests for windows we own, clears, and
   the notify that completes our own [get]. *)
let pre_handler app (d : Event.delivery) =
  match d.Event.event with
  | Event.Selection_request r ->
    answer app r;
    true
  | Event.Selection_clear { selection } when selection = Atom.primary ->
    (* Forward to the widget whose window lost the selection so it can
       un-highlight. The app-level owner state is cleared only if that
       widget is still the recorded owner (it may have been superseded by
       a newer claim within this application already). *)
    (match Hashtbl.find_opt app.Core.by_xid d.Event.window with
    | Some w when not w.Core.destroyed ->
      w.Core.wclass.Core.handle_event w d.Event.event;
      if app.Core.sel.Core.sel_owner_path = Some w.Core.path then begin
        app.Core.sel.Core.sel_owner_path <- None;
        app.Core.sel.Core.sel_provider <- None;
        app.Core.sel.Core.sel_tcl_handler <- None
      end
    | Some _ | None -> ());
    true
  | Event.Selection_notify n when d.Event.window = app.Core.comm_win ->
    (match n.Event.sn_property with
    | None -> app.Core.sel.Core.sel_pending <- Some None
    | Some prop -> (
      match Server.get_property app.Core.conn app.Core.comm_win ~prop with
      | Some p ->
        Server.delete_property app.Core.conn app.Core.comm_win ~prop;
        app.Core.sel.Core.sel_pending <- Some (Some p.Window.prop_data)
      | None -> app.Core.sel.Core.sel_pending <- Some None));
    (* A refused conversion must not leave [get] waiting forever. *)
    (match (n.Event.sn_property, app.Core.sel.Core.sel_pending) with
    | None, Some None -> app.Core.sel.Core.sel_pending <- None
    | _ -> ());
    true
  | _ -> false

let command app : Tcl.Interp.command =
 fun _interp words ->
  let ok = Tcl.Interp.ok in
  (* Handler scripts registered with [selection handle], waiting for the
     window to claim ownership. *)
  let handlers = app.Core.sel.Core.sel_handlers in
  match words with
  | [ _; "get" ] -> ok (get app)
  | [ _; "clear" ] ->
    disown app;
    ok ""
  | [ _; "own" ] -> ok (Option.value (owner_path app) ~default:"")
  | [ _; "own"; path ] ->
    let w = Core.lookup_exn app path in
    (match Hashtbl.find_opt handlers path with
    | Some script -> own_with_script w ~script
    | None -> own w ~provider:(fun () -> ""));
    ok ""
  | [ _; "handle"; path; script ] ->
    ignore (Core.lookup_exn app path);
    Hashtbl.replace handlers path script;
    (* If this window already owns the selection, switch its handler. *)
    if owner_path app = Some path then
      app.Core.sel.Core.sel_tcl_handler <- Some script;
    ok ""
  | _ -> raise Tcl.Interp.Usage

let selection_signature =
  Tcl.Interp.(
    signature "selection" 1 ~usage:"selection option ?arg arg ...?"
      ~subs:
        [
          subsig "clear" 0 ~max:0;
          subsig "get" 0 ~max:0;
          subsig "handle" 2 ~max:2;
          subsig "own" 0 ~max:1;
        ])

let install app =
  app.Core.pre_handlers <- pre_handler :: app.Core.pre_handlers;
  Tcl.Interp.register app.Core.interp selection_signature (command app)
