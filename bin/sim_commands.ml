(* Simulation-only commands shared by wish and tclcheck: both binaries
   register the same commands (wish runs them so scripts can be driven
   headlessly, tclcheck reads their signatures), so a script that runs
   under wish also lints clean under tclcheck. *)

open Xsim

let install app =
  let interp = app.Tk.Core.interp in
  let sg = Tcl.Interp.signature and sub = Tcl.Interp.subsig in
  Tcl.Interp.register_value interp
    (sg "screendump" 0 ~max:1 ~usage:"screendump ?window?")
    (fun _ words ->
      match words with
      | [ _ ] -> Raster.render app.Tk.Core.server ()
      | [ _; path ] ->
        let w = Tk.Core.lookup_exn app path in
        Raster.render app.Tk.Core.server ~window:w.Tk.Core.win ()
      | _ -> raise Tcl.Interp.Usage);
  Tcl.Interp.register_value interp
    (sg "inject" 2 ~max:3
       ~usage:"inject motion x y | button n | key keysym | string text"
       ~subs:
         [
           sub "button" 1 ~max:1;
           sub "key" 1 ~max:1;
           sub "motion" 2 ~max:2;
           sub "press" 1 ~max:1;
           sub "release" 1 ~max:1;
           sub "string" 1 ~max:1;
         ])
    (fun _ words ->
      let server = app.Tk.Core.server in
      let int_arg s =
        match int_of_string_opt s with
        | Some i -> i
        | None -> Tcl.Interp.failf "expected integer but got \"%s\"" s
      in
      (match words with
      | [ _; "motion"; x; y ] ->
        Server.inject_motion server ~x:(int_arg x) ~y:(int_arg y)
      | [ _; "button"; n ] ->
        Server.inject_button server ~button:(int_arg n) ~pressed:true;
        Server.inject_button server ~button:(int_arg n) ~pressed:false
      | [ _; "press"; n ] ->
        Server.inject_button server ~button:(int_arg n) ~pressed:true
      | [ _; "release"; n ] ->
        Server.inject_button server ~button:(int_arg n) ~pressed:false
      | [ _; "key"; keysym ] ->
        Server.inject_key server ~keysym ~pressed:true;
        Server.inject_key server ~keysym ~pressed:false
      | [ _; "string"; text ] -> Server.inject_string server text
      | _ -> raise Tcl.Interp.Usage);
      Tk.Core.update app;
      "");
  Tcl.Interp.register_value interp
    (sg "serverstats" 0 ~max:0 ~usage:"serverstats")
    (fun _ words ->
      if List.length words > 1 then raise Tcl.Interp.Usage;
      let s = Server.stats app.Tk.Core.conn in
      Printf.sprintf
        "requests %d round-trips %d resources %d windows %d draws %d \
         properties %d"
        s.Server.total_requests s.Server.round_trips s.Server.resource_allocs
        s.Server.window_requests s.Server.draw_requests
        s.Server.property_requests);
  Tcl.Interp.register_value interp
    (sg "faultstats" 0 ~max:0 ~usage:"faultstats")
    (fun _ words ->
      if List.length words > 1 then raise Tcl.Interp.Usage;
      let server = app.Tk.Core.server in
      Printf.sprintf "injected %d absorbed %d fallbacks %d"
        (Server.faults_injected server)
        (Server.faults_absorbed server)
        (Tk.Rescache.fallbacks app.Tk.Core.cache));
  Tcl.Interp.register_value interp
    (sg "crashtest" 1 ~max:2 ~usage:"crashtest at n | kill app | status"
       ~subs:[ sub "at" 1 ~max:1; sub "kill" 1 ~max:1; sub "status" 0 ~max:0 ])
    (fun _ words ->
      let int_arg s =
        match int_of_string_opt s with
        | Some i -> i
        | None -> Tcl.Interp.failf "expected integer but got \"%s\"" s
      in
      match words with
      | [ _; "at"; n ] ->
        Server.set_crash_plan app.Tk.Core.conn ~at_request:(int_arg n);
        ""
      | [ _; "kill"; name ] -> (
        (* Abruptly kill a peer application's connection — the driver for
           two-interpreter crash scenarios (the peer's interpreter lives
           on with a dead connection, exactly like a wish under
           -crash-at). Killing our own name is allowed: it crashes this
           application's connection in place. *)
        match
          List.find_opt
            (fun a -> a.Tk.Core.app_name = name)
            (Tk.Core.local_apps app.Tk.Core.server)
        with
        | Some peer ->
          Server.kill_connection peer.Tk.Core.conn;
          ""
        | None -> Tcl.Interp.failf "no application named \"%s\"" name)
      | [ _; "status" ] ->
        Printf.sprintf "alive %d crashed %d crash-at %d requests %d"
          (if Server.connection_alive app.Tk.Core.conn then 1 else 0)
          (if Server.connection_crashed app.Tk.Core.conn then 1 else 0)
          (Server.crash_plan app.Tk.Core.conn)
          (Server.stats app.Tk.Core.conn).Server.total_requests
      | _ -> raise Tcl.Interp.Usage)
