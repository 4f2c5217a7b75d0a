(* The client crash lifecycle (ROADMAP: robustness). A peer that dies or
   hangs mid-request must surface as a clean, bounded error, never a hung
   event loop. Exercises Server.kill_connection and the "die at request
   N" crash plan, Server.close reaping semantics, the hardened send RPC
   (deadline wait on the dispatcher clock, liveness ping, distinct
   died/timed-out errors), registry ghost collection, and selection-owner
   death — all under a deterministic virtual clock. *)

open Xsim

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let contains ~needle haystack =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let run app script =
  match Tcl.Interp.eval_value app.Tk.Core.interp script with
  | Ok v -> v
  | Error msg -> Alcotest.failf "script %S failed: %s" script msg

let expect_error app script =
  match Tcl.Interp.eval_value app.Tk.Core.interp script with
  | Ok v -> Alcotest.failf "script %S unexpectedly returned %S" script v
  | Error msg -> msg

(* Two registered interpreters on one display, quiesced so the next
   server request is the one the test provokes. *)
let fresh_pair () =
  let server = Server.create () in
  let a = Tk_widgets.Tk_widgets_lib.new_app ~server ~name:"alpha" () in
  let b = Tk_widgets.Tk_widgets_lib.new_app ~server ~name:"beta" () in
  Tk.Core.update_all server;
  (server, a, b)

let new_window conn parent =
  Server.create_window conn ~parent ~x:0 ~y:0 ~width:20 ~height:20
    ~border_width:0

let drain conn =
  let rec go acc =
    match Server.next_event conn with
    | Some d -> go (d :: acc)
    | None -> List.rev acc
  in
  go []

let has_event events ~window pred =
  List.exists
    (fun (d : Event.delivery) -> d.Event.window = window && pred d.Event.event)
    events

(* Make the peer deaf: its interpreter stays alive but it never again
   answers sends or selection conversions. *)
let hang app = app.Tk.Core.pre_handlers <- []

(* ------------------------------------------------------------------ *)
(* Server-level crash lifecycle *)

let kill_tests =
  [
    ( "kill_connection reaps windows and rejects further requests",
      fun () ->
        let server = Server.create () in
        let a = Server.connect server ~name:"victim" in
        let b = Server.connect server ~name:"survivor" in
        let wa = new_window a (Server.root server) in
        let wa_child = new_window a wa in
        let wb = new_window b (Server.root server) in
        Server.kill_connection a;
        check_bool "own top gone" true (Server.lookup_window server wa = None);
        check_bool "own child gone" true
          (Server.lookup_window server wa_child = None);
        check_bool "survivor window alive" true
          (Server.lookup_window server wb <> None);
        check_bool "dead" false (Server.connection_alive a);
        check_bool "marked crashed" true (Server.connection_crashed a);
        check_bool "survivor alive" true (Server.connection_alive b);
        (match Server.alloc_color a "red" with
        | _ -> Alcotest.fail "expected an X_error"
        | exception Xerror.X_error e ->
          check_string "code" "BadConnection" (Xerror.code_name e.Xerror.code));
        (* Killing twice is harmless. *)
        Server.kill_connection a );
    ( "survivors receive DestroyNotify for a crashed client's windows",
      fun () ->
        let server = Server.create () in
        let a = Server.connect server ~name:"victim" in
        let b = Server.connect server ~name:"survivor" in
        let wa = new_window a (Server.root server) in
        (* A survivor window nested inside the dying client's tree. *)
        let nested = new_window b wa in
        ignore (drain b);
        Server.kill_connection a;
        let events = drain b in
        check_bool "nested window destroyed with the subtree" true
          (Server.lookup_window server nested = None);
        check_bool "DestroyNotify for the nested survivor window" true
          (has_event events ~window:nested (fun e -> e = Event.Destroy_notify));
        check_bool "DestroyNotify broadcast for the dead top-level" true
          (has_event events ~window:wa (fun e -> e = Event.Destroy_notify)) );
    ( "crash plan kills the connection exactly at request N",
      fun () ->
        let server = Server.create () in
        let conn = Server.connect server ~name:"doomed" in
        let base = (Server.stats conn).Server.total_requests in
        Server.set_crash_plan conn ~at_request:(base + 3);
        check_int "armed" (base + 3) (Server.crash_plan conn);
        check_bool "request 1 fine" true (Server.alloc_color conn "red" <> None);
        check_bool "request 2 fine" true (Server.alloc_color conn "blue" <> None);
        (match Server.alloc_color conn "green" with
        | _ -> Alcotest.fail "expected the crash at request 3"
        | exception Xerror.X_error e ->
          check_string "code" "BadConnection" (Xerror.code_name e.Xerror.code));
        check_bool "dead afterwards" false (Server.connection_alive conn);
        check_bool "crashed, not closed" true (Server.connection_crashed conn) );
    ( "close reaps windows, clears selections, notifies survivors",
      fun () ->
        let server = Server.create () in
        let survivor = Server.connect server ~name:"survivor" in
        let closing = Server.connect server ~name:"closing" in
        let w = new_window closing (Server.root server) in
        Server.set_selection_owner closing ~selection:Atom.primary w;
        ignore (drain survivor);
        Server.close closing;
        check_bool "window destroyed" true (Server.lookup_window server w = None);
        check_int "selection cleared" Xid.none
          (Server.get_selection_owner survivor ~selection:Atom.primary);
        let events = drain survivor in
        check_bool "survivor saw the DestroyNotify" true
          (has_event events ~window:w (fun e -> e = Event.Destroy_notify));
        check_bool "survivor saw the SelectionClear" true
          (has_event events ~window:w (function
            | Event.Selection_clear { selection } -> selection = Atom.primary
            | _ -> false));
        check_bool "closed, not crashed" false (Server.connection_crashed closing) );
    ( "a pending selection conversion is refused when the owner dies",
      fun () ->
        let server = Server.create () in
        let owner = Server.connect server ~name:"owner" in
        let requestor = Server.connect server ~name:"requestor" in
        let wo = new_window owner (Server.root server) in
        let wr = new_window requestor (Server.root server) in
        Server.set_selection_owner owner ~selection:Atom.primary wo;
        let prop = Server.intern_atom requestor "RESULT" in
        Server.convert_selection requestor ~selection:Atom.primary
          ~target:Atom.string ~property:prop ~requestor:wr;
        ignore (drain requestor);
        (* The owner received the SelectionRequest but dies before
           answering: the requestor must be unblocked with a refusal. *)
        Server.kill_connection owner;
        let events = drain requestor in
        check_bool "refusing SelectionNotify delivered" true
          (has_event events ~window:wr (function
            | Event.Selection_notify n -> n.Event.sn_property = None
            | _ -> false)) );
  ]

(* ------------------------------------------------------------------ *)
(* The hardened send RPC *)

let send_tests =
  [
    ( "killing the peer mid-send yields a died error within the deadline",
      fun () ->
        let server, a, b = fresh_pair () in
        ignore (Tk.Dispatch.use_virtual_clock a.Tk.Core.disp : int -> unit);
        (* The peer crashes on its very next request — which is the one it
           makes while picking up the incoming send. *)
        Server.set_crash_plan b.Tk.Core.conn
          ~at_request:((Server.stats b.Tk.Core.conn).Server.total_requests + 1);
        let msg = expect_error a "send beta set x 1" in
        check_bool "reported as died" true (contains ~needle:"died" msg);
        check_bool "not reported as a timeout" false
          (contains ~needle:"timed out" msg);
        check_bool "well before the deadline" true
          (Tk.Dispatch.now_ms a.Tk.Core.disp < Tk.Sendcmd.default_timeout_ms);
        check_bool "peer connection dead" false
          (Server.connection_alive b.Tk.Core.conn);
        ignore server );
    ( "send to a hung peer times out with a distinct error",
      fun () ->
        let _server, a, b = fresh_pair () in
        ignore (Tk.Dispatch.use_virtual_clock a.Tk.Core.disp : int -> unit);
        hang b;
        (match Tk.Sendcmd.send ~timeout_ms:400 a ~target:"beta" "set x 1" with
        | Ok v -> Alcotest.failf "hung peer unexpectedly answered %S" v
        | Error msg ->
          check_bool "reported as timed out" true
            (contains ~needle:"timed out" msg);
          check_bool "not reported as died" false (contains ~needle:"died" msg));
        check_bool "deadline consumed on the virtual clock" true
          (Tk.Dispatch.now_ms a.Tk.Core.disp >= 400);
        check_bool "peer still alive" true
          (Server.connection_alive b.Tk.Core.conn) );
    ( "Tcl-level send to a hung peer reports the timeout",
      fun () ->
        let _server, a, b = fresh_pair () in
        ignore (Tk.Dispatch.use_virtual_clock a.Tk.Core.disp : int -> unit);
        hang b;
        let msg = expect_error a "send beta set x 1" in
        check_bool "timed out" true (contains ~needle:"timed out" msg) );
    ( "a sync send and a future to a hung peer report one timeout message",
      fun () ->
        let _server, a, b = fresh_pair () in
        ignore (Tk.Dispatch.use_virtual_clock a.Tk.Core.disp : int -> unit);
        hang b;
        let expected =
          "send to application \"beta\" timed out after 100 ms (interpreter \
           is alive but unresponsive)"
        in
        check_string "sync send fails" "1"
          (run a "catch {send -timeout 100 beta set x 1} m");
        check_string "sync send message" expected (run a "set m");
        check_string "future message" expected
          (expect_error a "send wait [send -future -timeout 100 beta set x 1]")
    );
    ( "send still works between live peers under the deadline machinery",
      fun () ->
        let _server, a, _b = fresh_pair () in
        ignore (Tk.Dispatch.use_virtual_clock a.Tk.Core.disp : int -> unit);
        check_string "round trip" "42" (run a "send beta expr 41+1");
        (* An answered send never sleeps: the clock did not move. *)
        check_int "no time consumed" 0 (Tk.Dispatch.now_ms a.Tk.Core.disp) );
  ]

(* ------------------------------------------------------------------ *)
(* Registry hygiene: winfo interps is ghost-free *)

let registry_tests =
  [
    ( "a crashed peer vanishes from winfo interps",
      fun () ->
        let _server, a, b = fresh_pair () in
        check_bool "listed while alive" true
          (contains ~needle:"beta" (run a "winfo interps"));
        Server.kill_connection b.Tk.Core.conn;
        let interps = run a "winfo interps" in
        check_bool "ghost-free" false (contains ~needle:"beta" interps);
        check_bool "survivor still listed" true
          (contains ~needle:"alpha" interps) );
    ( "a forged ghost entry in the raw property is collected on read",
      fun () ->
        let _server, a, _b = fresh_pair () in
        (* Bypass write_registry's filtering: append a ghost entry to the
           raw root-window shard property "ghost" hashes to, as a
           crashed-without-cleanup peer would leave behind. *)
        let conn = a.Tk.Core.conn in
        let root = Server.root a.Tk.Core.server in
        let prop =
          Server.intern_atom conn
            (Tk.Core.registry_shard_property (Tk.Core.shard_of_name "ghost"))
        in
        let raw =
          match Server.get_property conn root ~prop with
          | Some p -> p.Window.prop_data
          | None -> ""
        in
        Server.change_property conn root ~prop ~ptype:Atom.string
          (raw ^ " {ghost 424242}");
        check_bool "ghost never listed" false
          (List.mem "ghost" (Tk.Sendcmd.interps a));
        (* The read garbage-collected the property itself. *)
        (match Server.get_property conn root ~prop with
        | Some p ->
          check_bool "property rewritten without the ghost" false
            (contains ~needle:"ghost" p.Window.prop_data)
        | None -> Alcotest.fail "registry property vanished") );
    ( "write_registry refuses to persist ghost entries",
      fun () ->
        let _server, a, _b = fresh_pair () in
        let entries = Tk.Core.read_registry a in
        Tk.Core.write_registry a (entries @ [ ("ghost", 999999) ]);
        check_bool "ghost filtered on write" false
          (List.mem_assoc "ghost" (Tk.Core.read_registry a)) );
  ]

(* ------------------------------------------------------------------ *)
(* Selection-owner death *)

let selection_tests =
  [
    ( "selection get fails cleanly when the owner was killed",
      fun () ->
        let _server, a, b = fresh_pair () in
        Tk.Selection.own (Tk.Core.main_widget b) ~provider:(fun () -> "payload");
        check_string "works while owner lives" "payload" (run a "selection get");
        Server.kill_connection b.Tk.Core.conn;
        let msg = expect_error a "selection get" in
        check_bool "clean Tcl error" true
          (contains ~needle:"PRIMARY selection" msg);
        check_int "ownership cleared server-side" Xid.none
          (Server.get_selection_owner a.Tk.Core.conn ~selection:Atom.primary) );
    ( "selection get from a hung owner times out and clears ownership",
      fun () ->
        let _server, a, b = fresh_pair () in
        ignore (Tk.Dispatch.use_virtual_clock a.Tk.Core.disp : int -> unit);
        Tk.Selection.own (Tk.Core.main_widget b) ~provider:(fun () -> "payload");
        Tk.Core.update_all a.Tk.Core.server;
        hang b;
        (match Tk.Selection.get ~timeout_ms:300 a with
        | v -> Alcotest.failf "hung owner unexpectedly answered %S" v
        | exception Tcl.Interp.Tcl_failure msg ->
          check_bool "reports the timeout" true
            (contains ~needle:"timed out" msg));
        check_bool "deadline consumed on the virtual clock" true
          (Tk.Dispatch.now_ms a.Tk.Core.disp >= 300);
        (* The dangling ownership was cleared so the next request fails
           fast instead of repeating the timeout. *)
        check_int "ownership cleared server-side" Xid.none
          (Server.get_selection_owner a.Tk.Core.conn ~selection:Atom.primary);
        let msg = expect_error a "selection get" in
        check_bool "fails fast afterwards" true
          (contains ~needle:"PRIMARY selection" msg) );
    ( "owner window destroyed mid-conversion is detected as dead",
      fun () ->
        let _server, a, b = fresh_pair () in
        ignore (Tk.Dispatch.use_virtual_clock a.Tk.Core.disp : int -> unit);
        (* Own via a subordinate window of a hung app, and schedule that
           window's destruction on the owner's timer queue: it fires
           inside [get]'s first event-loop pump, i.e. after the
           conversion has started, so the requestor's mid-wait owner ping
           is what notices the window is gone — well before the
           deadline. *)
        ignore (run b "frame .f -width 10 -height 10");
        Tk.Core.update_all a.Tk.Core.server;
        let fw = Tk.Core.lookup_exn b ".f" in
        Tk.Selection.own fw ~provider:(fun () -> "payload");
        ignore (run b "after 0 {destroy .f}");
        hang b;
        (match Tk.Selection.get ~timeout_ms:1000 a with
        | v -> Alcotest.failf "dead owner unexpectedly answered %S" v
        | exception Tcl.Interp.Tcl_failure msg ->
          check_bool "reports the death" true (contains ~needle:"died" msg));
        check_bool "well before the deadline" true
          (Tk.Dispatch.now_ms a.Tk.Core.disp < 1000) );
  ]

(* ------------------------------------------------------------------ *)
(* Deterministic clock plumbing *)

let clock_tests =
  [
    ( "use_virtual_clock drives after-timers deterministically",
      fun () ->
        let server = Server.create () in
        let a = Tk_widgets.Tk_widgets_lib.new_app ~server ~name:"clock" () in
        let advance = Tk.Dispatch.use_virtual_clock a.Tk.Core.disp in
        ignore (run a "set fired 0; after 100 {set fired 1}");
        Tk.Core.update a;
        check_string "not yet" "0" (run a "set fired");
        advance 99;
        Tk.Core.update a;
        check_string "still not due" "0" (run a "set fired");
        advance 1;
        Tk.Core.update a;
        check_string "fires exactly on the deadline" "1" (run a "set fired") );
    ( "sleep_ms advances a virtual clock instead of blocking",
      fun () ->
        let d = Tk.Dispatch.create () in
        ignore (Tk.Dispatch.use_virtual_clock d : int -> unit);
        check_int "starts at zero" 0 (Tk.Dispatch.now_ms d);
        Tk.Dispatch.sleep_ms d 250;
        check_int "advanced" 250 (Tk.Dispatch.now_ms d) );
  ]

let suite name tests =
  (name, List.map (fun (doc, f) -> Alcotest.test_case doc `Quick f) tests)

let () =
  Alcotest.run "crash"
    [
      suite "kill" kill_tests;
      suite "send" send_tests;
      suite "registry" registry_tests;
      suite "selection" selection_tests;
      suite "clock" clock_tests;
    ]
