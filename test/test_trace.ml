(* Wire-traffic observability (ISSUE 3): the per-connection protocol
   trace ring, the metrics registry behind xstat, the paper §7-style
   traffic budgets, and the event-loop bugfix regressions (deadline
   rounding, no-files poll timeout, destroy-then-sweep redraws). *)

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

let contains ~needle haystack =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* Read one counter out of an `xstat` Tcl list. *)
let xstat_get app name =
  let listing = run app "xstat" in
  match Tcl.Tcl_list.parse listing with
  | Error msg -> Alcotest.failf "xstat output unparsable: %s" msg
  | Ok words ->
    let rec find = function
      | k :: v :: rest -> if k = name then v else find rest
      | _ -> Alcotest.failf "counter %s missing from xstat" name
    in
    find words

let xstat_int app name =
  match int_of_string_opt (xstat_get app name) with
  | Some i -> i
  | None -> Alcotest.failf "counter %s is not an integer" name

(* ------------------------------------------------------------------ *)
(* The trace ring itself *)

let ring_tests =
  [
    ( "requests are traced with serial, kind and outcome",
      fun () ->
        let server = Server.create () in
        let conn = Server.connect server ~name:"t" in
        Server.set_tracing conn true;
        let w =
          Server.create_window conn ~parent:(Server.root server) ~x:0 ~y:0
            ~width:10 ~height:10 ~border_width:0
        in
        Server.map_window conn w;
        ignore (Server.alloc_color conn "red");
        let records = Server.trace conn in
        check_int "three records" 3 (List.length records);
        let kinds = List.map (fun r -> Server.kind_name r.Trace.kind) records in
        check_bool "window ops then resource" true
          (kinds = [ "window"; "window"; "resource" ]);
        check_bool "all ok" true
          (List.for_all (fun r -> r.Trace.outcome = Trace.Ok) records);
        let serials = List.map (fun r -> r.Trace.serial) records in
        check_bool "serials increase" true (List.sort compare serials = serials)
    );
    ( "tracing off records nothing; clear empties the ring",
      fun () ->
        let server = Server.create () in
        let conn = Server.connect server ~name:"t" in
        ignore (Server.alloc_color conn "red");
        check_int "off: empty" 0 (Server.trace_length conn);
        Server.set_tracing conn true;
        ignore (Server.alloc_color conn "blue");
        check_int "on: one" 1 (Server.trace_length conn);
        Server.clear_trace conn;
        check_int "cleared" 0 (Server.trace_length conn) );
    ( "the ring is bounded and keeps the newest records",
      fun () ->
        let server = Server.create () in
        let conn = Server.connect server ~name:"t" in
        Server.set_tracing ~capacity:16 conn true;
        for _ = 1 to 50 do
          ignore (Server.alloc_color conn "red")
        done;
        check_int "capped at capacity" 16 (Server.trace_length conn);
        let serials =
          List.map (fun r -> r.Trace.serial) (Server.trace conn)
        in
        (* 50 requests; the ring holds the last 16 of them. *)
        check_int "oldest surviving serial" 35 (List.hd serials);
        check_int "newest serial" 50 (List.nth serials 15) );
    ( "injected faults appear with outcome injected-fault",
      fun () ->
        let server = Server.create () in
        let conn = Server.connect server ~name:"t" in
        Server.set_tracing conn true;
        Server.script_fault server Xerror.BadAlloc;
        (match Server.alloc_color conn "red" with
        | _ -> Alcotest.fail "expected X_error"
        | exception Xerror.X_error _ -> ());
        match Server.trace conn with
        | [ r ] ->
          check_string "outcome" "injected-fault"
            (Trace.outcome_name r.Trace.outcome)
        | records -> Alcotest.failf "expected 1 record, got %d" (List.length records)
    );
    ( "absorption upgrades the record to absorbed",
      fun () ->
        let server, app = fresh_app () in
        Server.set_tracing app.Tk.Core.conn true;
        Server.script_fault server Xerror.BadAlloc;
        (* The rescache absorbs the fault and degrades to a fallback. *)
        check_bool "degraded lookup succeeded" true
          (Tk.Rescache.color app.Tk.Core.cache "turquoise" <> None);
        let absorbed =
          List.filter
            (fun r -> r.Trace.outcome = Trace.Absorbed)
            (Server.trace app.Tk.Core.conn)
        in
        check_int "one absorbed record" 1 (List.length absorbed);
        check_bool "no raw injected-fault left" true
          (List.for_all
             (fun r -> r.Trace.outcome <> Trace.Injected_fault)
             (Server.trace app.Tk.Core.conn)) );
    ( "requests on a dead connection are traced as BadConnection",
      fun () ->
        let server = Server.create () in
        let conn = Server.connect server ~name:"t" in
        Server.set_tracing conn true;
        Server.kill_connection conn;
        (match Server.alloc_color conn "red" with
        | _ -> Alcotest.fail "expected X_error"
        | exception Xerror.X_error e ->
          check_string "code" "BadConnection" (Xerror.code_name e.Xerror.code));
        match Server.trace conn with
        | [ r ] ->
          check_string "outcome" "BadConnection"
            (Trace.outcome_name r.Trace.outcome)
        | records -> Alcotest.failf "expected 1 record, got %d" (List.length records)
    );
    ( "trace_dump renders one line per record with the outcome",
      fun () ->
        let server = Server.create () in
        let conn = Server.connect server ~name:"t" in
        Server.set_tracing conn true;
        ignore (Server.alloc_color conn "red");
        Server.script_fault server Xerror.BadMatch;
        (try ignore (Server.alloc_color conn "blue")
         with Xerror.X_error _ -> ());
        let dump = Server.trace_dump conn in
        check_bool "mentions resource class" true (contains ~needle:"resource" dump);
        check_bool "mentions ok" true (contains ~needle:"ok" dump);
        check_bool "mentions injected-fault" true
          (contains ~needle:"injected-fault" dump) );
  ]

(* ------------------------------------------------------------------ *)
(* Paper §7-style traffic budgets through the Tcl commands *)

let budget_tests =
  [
    ( "second button creation costs strictly fewer requests (§3.3)",
      fun () ->
        let _server, app = fresh_app () in
        ignore (run app "xtrace on");
        ignore (run app "xstat reset");
        ignore (run app "button .b1 -text One");
        ignore (run app "pack append . .b1 {top}");
        ignore (run app "update");
        let first = xstat_int app "requests_total" in
        ignore (run app "xstat reset");
        ignore (run app "button .b2 -text Two");
        ignore (run app "pack append . .b2 {top}");
        ignore (run app "update");
        let second = xstat_int app "requests_total" in
        check_bool
          (Printf.sprintf "second (%d) < first (%d)" second first)
          true (second < first);
        (* The saving is the resource cache: the second button allocates
           no new colors/fonts/GCs at all. *)
        check_int "second button resource allocs" 0
          (xstat_int app "requests_resource");
        check_bool "trace saw the requests" true
          (xstat_int app "trace_records" > 0) );
    ( "creating a button costs a bounded number of requests",
      fun () ->
        let _server, app = fresh_app () in
        ignore (run app "xstat reset");
        ignore (run app "button .b1 -text One");
        ignore (run app "pack append . .b1 {top}");
        ignore (run app "update");
        let first = xstat_int app "requests_total" in
        (* Window create + configure + map + clear/draws + a handful of
           resource allocs. Generous ceiling: catches regressions that
           chat with the server per option or per redraw. *)
        check_bool (Printf.sprintf "%d <= 40" first) true (first <= 40) );
    ( "cache-off ablation multiplies resource traffic",
      fun () ->
        let requests enabled =
          let _server, app = fresh_app () in
          Tk.Rescache.set_enabled app.Tk.Core.cache enabled;
          ignore (run app "xstat reset");
          for i = 0 to 9 do
            ignore
              (run app
                 (Printf.sprintf
                    "button .b%d -text b%d -foreground black -background \
                     gray75"
                    i i))
          done;
          ignore (run app "update");
          (xstat_int app "requests_resource", xstat_int app "requests_total")
        in
        let on_resource, on_total = requests true in
        let off_resource, off_total = requests false in
        check_bool
          (Printf.sprintf "resource allocs at least double: on=%d off=%d"
             on_resource off_resource)
          true
          (off_resource >= 2 * max 1 on_resource);
        check_bool
          (Printf.sprintf "total requests grow: on=%d off=%d" on_total
             off_total)
          true (off_total > on_total) );
    ( "xtrace dump shows injected faults from Tcl",
      fun () ->
        let server, app = fresh_app () in
        ignore (run app "xtrace on");
        Server.script_fault server Xerror.BadAlloc;
        (* A fresh color forces a server request; the cache absorbs the
           fault, so the script level never sees an error. *)
        ignore (run app "button .b -text hi -foreground orange");
        ignore (run app "update");
        let dump = run app "xtrace dump" in
        check_bool "absorbed fault visible in dump" true
          (contains ~needle:"absorbed" dump);
        ignore (run app "xtrace clear");
        check_string "status after clear" "on 0" (run app "xtrace status") );
    ( "xstat reset zeroes the per-app counters",
      fun () ->
        let _server, app = fresh_app () in
        ignore (run app "button .b -text hi");
        ignore (run app "update");
        check_bool "some requests counted" true
          (xstat_int app "requests_total" > 0);
        ignore (run app "xstat reset");
        check_int "requests zeroed" 0 (xstat_int app "requests_total");
        check_int "redraws zeroed" 0 (xstat_int app "redraws_scheduled") );
  ]

(* ------------------------------------------------------------------ *)
(* Metrics registry *)

let metrics_tests =
  [
    ( "redraw coalescing is counted",
      fun () ->
        let _server, app = fresh_app () in
        ignore (run app "button .b -text hi");
        ignore (run app "pack append . .b {top}");
        ignore (run app "update");
        ignore (run app "xstat reset");
        (* Three reconfigures before the idle sweep: one scheduled redraw,
           two collapsed into it. *)
        let w = Tk.Core.lookup_exn app ".b" in
        Tk.Core.schedule_redraw w;
        Tk.Core.schedule_redraw w;
        Tk.Core.schedule_redraw w;
        Tk.Core.update app;
        check_int "scheduled" 1 (xstat_int app "redraws_scheduled");
        check_int "collapsed" 2 (xstat_int app "redraws_collapsed");
        check_int "drawn" 1 (xstat_int app "redraws_drawn") );
    ( "binding dispatches are counted",
      fun () ->
        let server, app = fresh_app () in
        ignore (run app "button .b -text hi");
        ignore (run app "pack append . .b {top}");
        ignore (run app "update");
        ignore (run app "bind .b z {set hit 1}");
        ignore (run app "xstat reset");
        let w = Tk.Core.lookup_exn app ".b" in
        let win = Option.get (Server.lookup_window server w.Tk.Core.win) in
        let p = Window.root_position win in
        Server.inject_motion server ~x:(p.Geom.x + 2) ~y:(p.Geom.y + 2);
        Tk.Core.update app;
        Server.inject_key server ~keysym:"z" ~pressed:true;
        Tk.Core.update app;
        check_string "binding ran" "1" (run app "set hit");
        check_int "one dispatch" 1 (xstat_int app "binding_dispatches") );
    ( "timer and idle sweeps are counted with virtual-clock latency",
      fun () ->
        let disp = Tk.Dispatch.create () in
        let advance = Tk.Dispatch.use_virtual_clock disp in
        Tk.Dispatch.when_idle disp (fun () -> ());
        ignore (Tk.Dispatch.run_idle disp);
        ignore (Tk.Dispatch.after disp ~ms:10 (fun () -> Tk.Dispatch.sleep_ms disp 7));
        advance 10;
        ignore (Tk.Dispatch.run_due_timers disp);
        let c = Tk.Dispatch.counters disp in
        check_int "timers fired" 1 c.Tk.Dispatch.timers_fired;
        check_int "idles run" 1 c.Tk.Dispatch.idles_run;
        check_int "two sweeps" 2 c.Tk.Dispatch.sweeps;
        (* The timer callback slept 7 virtual ms: that is the sweep's
           latency on the pluggable clock, deterministically. *)
        check_bool "sweep latency = 7ms" true
          (abs_float (c.Tk.Dispatch.sweep_ms_last -. 7.0) < 0.001) );
  ]

(* ------------------------------------------------------------------ *)
(* Event-loop bugfix regressions *)

let eventloop_tests =
  [
    ( "next_deadline_ms rounds up instead of truncating to 0",
      fun () ->
        let disp = Tk.Dispatch.create () in
        let now = ref 0.0 in
        Tk.Dispatch.set_clock disp (fun () -> !now);
        ignore (Tk.Dispatch.after disp ~ms:1 (fun () -> ()));
        (* 0.4 ms later the timer is due in 0.6 ms: must report 1, not 0 —
           Some 0 makes the mainloop poll with zero timeout and spin. *)
        now := 0.0004;
        (match Tk.Dispatch.next_deadline_ms disp with
        | Some ms -> check_int "rounded up" 1 ms
        | None -> Alcotest.fail "expected a deadline");
        (* Once overdue it reports 0. *)
        now := 0.002;
        match Tk.Dispatch.next_deadline_ms disp with
        | Some ms -> check_int "overdue" 0 ms
        | None -> Alcotest.fail "expected a deadline" );
    ( "poll_files honors the timeout when no files are registered",
      fun () ->
        let disp = Tk.Dispatch.create () in
        let _advance = Tk.Dispatch.use_virtual_clock disp in
        check_int "t0" 0 (Tk.Dispatch.now_ms disp);
        Tk.Dispatch.poll_files disp ~timeout:0.02;
        (* The virtual sleeper advanced the clock by the full timeout:
           the call slept instead of returning immediately. *)
        check_int "slept 20 virtual ms" 20 (Tk.Dispatch.now_ms disp) );
    ( "a widget destroyed between scheduling and the idle sweep is not drawn",
      fun () ->
        let _server, app = fresh_app () in
        ignore (run app "button .b -text hi");
        ignore (run app "pack append . .b {top}");
        ignore (run app "update");
        ignore (run app "xstat reset");
        let w = Tk.Core.lookup_exn app ".b" in
        Tk.Core.schedule_redraw w;
        (* Destroy after scheduling, before the sweep runs. *)
        ignore (run app "destroy .b");
        Tk.Core.update app;
        check_int "redraw was skipped" 1
          (xstat_int app "redraws_skipped_dead");
        check_int "nothing drawn for it" 0 (xstat_int app "redraws_drawn");
        check_bool "app alive" true (not app.Tk.Core.app_destroyed) );
    ( "connect is O(1): many connections stay usable and reap cleanly",
      fun () ->
        let server = Server.create () in
        let conns =
          List.init 200 (fun i ->
              Server.connect server ~name:(Printf.sprintf "c%d" i))
        in
        (* Each creates a window; survivors hear about a peer's death. *)
        let wins =
          List.map
            (fun c ->
              Server.create_window c ~parent:(Server.root server) ~x:0 ~y:0
                ~width:5 ~height:5 ~border_width:0)
            conns
        in
        ignore wins;
        let victim = List.nth conns 100 in
        Server.kill_connection victim;
        check_bool "victim dead" false (Server.connection_alive victim);
        let survivor = List.nth conns 0 in
        check_bool "survivor got DestroyNotify" true
          (Server.pending survivor > 0);
        check_bool "survivor still works" true
          (Server.window_exists survivor (Server.root server)) );
  ]

let suite name tests =
  (name, List.map (fun (doc, f) -> Alcotest.test_case doc `Quick f) tests)

let () =
  Alcotest.run "trace"
    [
      suite "ring" ring_tests;
      suite "budget" budget_tests;
      suite "metrics" metrics_tests;
      suite "eventloop" eventloop_tests;
    ]
