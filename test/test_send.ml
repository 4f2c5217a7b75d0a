(* The fleet-scale send fabric: async/broadcast send, futures, mailbox
   backpressure, the sharded registry under churn, the self-send fast
   path, stale-entry retry, and the deterministic crash-storm harness
   (ROADMAP: robustness at 1000 interpreters). *)

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

let new_app ~server ~name () = Tk.Main.create ~server ~name ()

let fresh_pair () =
  let server = Server.create () in
  let a = new_app ~server ~name:"alpha" () in
  let b = new_app ~server ~name:"beta" () in
  Tk.Core.update_all server;
  (server, a, b)

let virtualize app =
  ignore (Tk.Dispatch.use_virtual_clock app.Tk.Core.disp : int -> unit)

let metrics app = app.Tk.Core.metrics

(* ------------------------------------------------------------------ *)
(* Self-send fast path: differentially identical to the wire path *)

(* Run the same send sequence in two identical single-app worlds, one
   with the fast path on and one forced onto the wire, and require
   byte-identical results, error codes and errorInfo. *)
let self_send_differential () =
  let observe fast_path =
    let server = Server.create () in
    let a = new_app ~server ~name:"solo" () in
    a.Tk.Core.send.Tk.Core.self_fast_path <- fast_path;
    let ok_code, ok_val =
      Tcl.Interp.eval a.Tk.Core.interp "send solo set x ok-roundtrip"
    in
    let err_code, err_val =
      Tcl.Interp.eval a.Tk.Core.interp
        "send solo {if 1 {error {boom from afar}}}"
    in
    let info = Tcl.Interp.get_error_info a.Tk.Core.interp in
    ( (ok_code = Tcl.Interp.Tcl_ok, ok_val),
      (err_code = Tcl.Interp.Tcl_error, err_val),
      info )
  in
  let fast = observe true in
  let wire = observe false in
  let (f_ok, f_err, f_info) = fast and (w_ok, w_err, w_info) = wire in
  check_bool "ok status identical" (fst w_ok) (fst f_ok);
  check_string "ok result identical" (snd w_ok) (snd f_ok);
  check_bool "error status identical" (fst w_err) (fst f_err);
  check_string "error result identical" (snd w_err) (snd f_err);
  check_string "errorInfo byte-identical" w_info f_info;
  check_bool "errorInfo captured the remote frame" true
    (contains ~needle:"boom from afar" f_info)

(* The same comparison on generated scripts under every guard mode with a
   command budget.  Each script runs in a fresh single-app world, once
   per path; the two runs must agree on status, result, errorInfo and the
   outcome counters of both ends of the send.  Runaway loops only go to
   guarded receivers, and [exit]/[interp] only to the safe slave, where
   the guard stops them. *)
let gself_script mode =
  let open QCheck.Gen in
  let digit = int_bound 9 in
  let commands =
    [
      map2 (Printf.sprintf "set v%d %d") (int_bound 2) digit;
      map2 (Printf.sprintf "expr {%d * %d}") digit digit;
      map (Printf.sprintf "list a {b %d}") digit;
      map (Printf.sprintf "error {boom %d}") digit;
      return "incr never_set";
      return "expr {1 / 0}";
      return "no_such_command x";
    ]
    @ (if mode = "off" then [] else [ return "while 1 {set spin 1}" ])
    @ if mode = "safe" then [ return "exit 7"; return "interp create x" ]
      else []
  in
  map (String.concat "; ") (list_size (int_range 1 3) (oneof commands))

let self_send_generated () =
  let observe mode fast_path script =
    let server = Server.create () in
    let a = new_app ~server ~name:"solo" () in
    ignore (run a ("send guard " ^ mode ^ "; send limit commands 200"));
    a.Tk.Core.send.Tk.Core.self_fast_path <- fast_path;
    let status, result =
      Tcl.Interp.eval a.Tk.Core.interp
        (Tcl.Tcl_list.format [ "send"; "solo"; script ])
    in
    let m = metrics a in
    ( (status = Tcl.Interp.Tcl_ok, result,
       Tcl.Interp.get_error_info a.Tk.Core.interp),
      Tk.Metrics.
        [ m.sends_ok; m.sends_error; m.sends_denied; m.sends_limited;
          m.recv_denied; m.recv_limited ] )
  in
  let show ((ok, result, info), counters) =
    Printf.sprintf "ok=%b %S errorInfo=%S counters=%s" ok result info
      (String.concat "," (List.map string_of_int counters))
  in
  (* Which sender outcomes were reached: ok, error, denied, limited. *)
  let reached = Array.make 4 false in
  let agree mode script =
    let fast = observe mode true script and wire = observe mode false script in
    List.iteri (fun i n -> if i < 4 && n > 0 then reached.(i) <- true) (snd fast);
    fast = wire
    || QCheck.Test.fail_reportf "guard %s, script %S:\n  fast: %s\n  wire: %s"
         mode script (show fast) (show wire)
  in
  let scripts mode = QCheck.make ~print:Fun.id (gself_script mode) in
  QCheck.Test.check_exn ~rand:(Random.State.make [| 16 |])
    (QCheck.Test.make ~name:"self-send fast path = wire" ~count:150
       (QCheck.triple (scripts "off") (scripts "limits") (scripts "safe"))
       (fun (off, limits, safe) ->
         agree "off" off && agree "limits" limits && agree "safe" safe));
  check_bool "reached ok, error, denied and limited" true
    (Array.for_all Fun.id reached)

let fast_path_tests =
  [
    ("self-send: fast path and wire path are differentially identical",
     self_send_differential);
    ( "self-send: generated scripts under every guard mode agree on both paths",
      self_send_generated );
    ( "self-send takes the fast path and is counted",
      fun () ->
        let server = Server.create () in
        let a = new_app ~server ~name:"solo" () in
        check_string "round trip" "7" (run a "send solo expr 3+4");
        check_int "fast path counted" 1 (metrics a).Tk.Metrics.sends_self;
        a.Tk.Core.send.Tk.Core.self_fast_path <- false;
        check_string "wire self-send still works" "8" (run a "send solo expr 4+4");
        check_int "wire path not miscounted as fast" 1
          (metrics a).Tk.Metrics.sends_self );
  ]

(* ------------------------------------------------------------------ *)
(* Stale registry entries: re-read once, retry the fresh entry *)

let shard_prop app name =
  Server.intern_atom app.Tk.Core.conn
    (Tk.Core.registry_shard_property (Tk.Core.shard_of_name name))

let raw_shard app name =
  match
    Server.get_property app.Tk.Core.conn
      (Server.root app.Tk.Core.server)
      ~prop:(shard_prop app name)
  with
  | Some p -> p.Window.prop_data
  | None -> ""

let write_raw_shard app name data =
  Server.change_property app.Tk.Core.conn
    (Server.root app.Tk.Core.server)
    ~prop:(shard_prop app name) ~ptype:Atom.string data

(* A window that once existed and is now gone — what a crashed peer's
   registry entry points at. *)
let dead_window app =
  let conn = app.Tk.Core.conn in
  let w =
    Server.create_window conn ~parent:(Server.root app.Tk.Core.server) ~x:0
      ~y:0 ~width:5 ~height:5 ~border_width:0
  in
  Server.destroy_window conn w;
  w

let stale_tests =
  [
    ( "stale entry shadowing a live one: send retries the fresh entry",
      fun () ->
        let _server, a, b = fresh_pair () in
        virtualize a;
        (* Simulate a crash racing re-registration: the shard holds a
           dead entry for "beta" in front of the live one, as if the old
           incarnation crashed between our lookup and our post. *)
        let dead = dead_window a in
        write_raw_shard a "beta"
          (Tcl.Tcl_list.format
             [ Tcl.Tcl_list.format [ "beta"; string_of_int dead ] ]
          ^ " " ^ raw_shard a "beta");
        let before = (metrics a).Tk.Metrics.ghosts_collected in
        check_string "send succeeded on the retried entry" "42"
          (run a "send beta expr 41+1");
        check_bool "the ghost was collected" true
          ((metrics a).Tk.Metrics.ghosts_collected > before);
        check_bool "registry is duplicate-free afterwards" true
          (List.length
             (List.filter
                (fun (n, _) -> n = "beta")
                (Tk.Core.read_registry a))
          = 1);
        ignore b );
    ( "stale entry with no fresh registration: no registered interpreter",
      fun () ->
        let _server, a, _b = fresh_pair () in
        virtualize a;
        let dead = dead_window a in
        write_raw_shard a "phantom"
          (Tcl.Tcl_list.format
             [ Tcl.Tcl_list.format [ "phantom"; string_of_int dead ] ]);
        let msg = expect_error a "send phantom set x 1" in
        check_bool "reported as unregistered" true
          (contains ~needle:"no registered interpreter" msg);
        check_bool "ghost never listed afterwards" false
          (List.mem "phantom" (Tk.Sendcmd.interps a)) );
  ]

(* ------------------------------------------------------------------ *)
(* Registry churn: register/rename/crash, no duplicates, no ghosts,
   sorted-stable *)

let sorted_strings l = List.sort compare l

let churn_tests =
  [
    ( "200 apps of register/rename/crash churn keep the registry clean",
      fun () ->
        let server = Server.create () in
        let anchor = new_app ~server ~name:"anchor" () in
        let pool = [| "editor"; "viewer"; "shell"; "debug" |] in
        let live = ref [] in
        let rng = ref 12345 in
        let draw bound =
          rng := ((!rng * 1103515245) + 12345) land 0x3FFFFFFF;
          !rng lsr 13 mod bound
        in
        (* Rename: drop the old entry, register the same comm window
           under a fresh (collision-probed) name. *)
        let rename app fresh =
          let comm = app.Tk.Core.comm_win in
          Tk.Core.write_registry anchor
            (List.filter
               (fun (n, _) -> n <> app.Tk.Core.app_name)
               (Tk.Core.read_registry anchor));
          app.Tk.Core.app_name <-
            Tk.Core.register_name app ~name:fresh ~comm
        in
        for i = 1 to 200 do
          let app =
            new_app ~server ~name:pool.(draw (Array.length pool)) ()
          in
          live := app :: !live;
          (match draw 4 with
          | 0 ->
            (* crash without cleanup *)
            Server.kill_connection app.Tk.Core.conn;
            live := List.filter (fun x -> x != app) !live
          | 1 when i mod 2 = 0 ->
            (* orderly exit *)
            Tk.Core.destroy_app app;
            live := List.filter (fun x -> x != app) !live
          | 2 -> rename app pool.(draw (Array.length pool))
          | _ -> ())
        done;
        let entries = Tk.Core.read_registry anchor in
        let names = List.map fst entries in
        check_bool "aggregate is sorted by name" true
          (names = sorted_strings names);
        check_int "no duplicate names"
          (List.length (List.sort_uniq compare names))
          (List.length names);
        (* every live app listed, nothing else but the anchor *)
        check_int "exactly the live apps plus the anchor"
          (List.length !live + 1)
          (List.length names);
        List.iter
          (fun app ->
            check_bool
              (Printf.sprintf "live app %s listed" app.Tk.Core.app_name)
              true
              (List.mem app.Tk.Core.app_name names))
          !live;
        (* reads are stable: a second aggregate read is identical *)
        check_bool "sorted-stable across reads" true
          (Tk.Core.read_registry anchor = entries) );
    ( "unique-name probing stays O(1): one shard read per probe",
      fun () ->
        let server = Server.create () in
        let a = new_app ~server ~name:"twin" () in
        let b = new_app ~server ~name:"twin" () in
        let c = new_app ~server ~name:"twin" () in
        check_string "first keeps the name" "twin" a.Tk.Core.app_name;
        check_string "second is suffixed" "twin #2" b.Tk.Core.app_name;
        check_string "third is suffixed" "twin #3" c.Tk.Core.app_name );
  ]

(* ------------------------------------------------------------------ *)
(* Mailbox backpressure *)

let mailbox_tests =
  [
    ( "a full mailbox refuses syncs with a distinct overflow error",
      fun () ->
        let _server, a, b = fresh_pair () in
        virtualize a;
        b.Tk.Core.send.Tk.Core.mailbox_limit <- 2;
        (* Flood the wire without letting the target drain, then ask
           synchronously: the whole batch parses at once, the first two
           fit, the rest — including the sync — are refused. *)
        for _ = 1 to 5 do
          match Tk.Sendcmd.send_async a ~target:"beta" "set x 1" with
          | Ok () -> ()
          | Error msg -> Alcotest.failf "async refused: %s" msg
        done;
        (match Tk.Sendcmd.send a ~target:"beta" "set x 2" with
        | Ok v -> Alcotest.failf "expected overflow, got %S" v
        | Error msg ->
          check_bool "overflow error names the mailbox" true
            (contains ~needle:"mailbox" msg));
        check_int "three asyncs and the sync were rejected" 4
          (metrics b).Tk.Metrics.mailbox_rejected;
        check_int "two asyncs were accepted" 2
          (metrics b).Tk.Metrics.mailbox_enqueued;
        check_bool "high water at the bound" true
          ((metrics b).Tk.Metrics.mailbox_high_water <= 2) );
    ( "send -retry rides out the overflow with jittered backoff",
      fun () ->
        let _server, a, b = fresh_pair () in
        virtualize a;
        b.Tk.Core.send.Tk.Core.mailbox_limit <- 2;
        for _ = 1 to 5 do
          ignore (Tk.Sendcmd.send_async a ~target:"beta" "set x 1")
        done;
        (match Tk.Sendcmd.send ~retry:true a ~target:"beta" "expr 1+1" with
        | Ok v -> check_string "retried to success" "2" v
        | Error msg -> Alcotest.failf "retry failed: %s" msg);
        check_bool "at least one retry recorded" true
          ((metrics a).Tk.Metrics.send_retries > 0);
        check_bool "retry consumed virtual time (backoff)" true
          (Tk.Dispatch.now_ms a.Tk.Core.disp > 0) );
    ( "async self-send defers to the own mailbox",
      fun () ->
        let server = Server.create () in
        let a = new_app ~server ~name:"solo" () in
        ignore (run a "set x before");
        check_string "not evaluated inline" ""
          (run a "send -async solo {set x after}");
        check_string "still the old value" "before" (run a "set x");
        Tk.Core.update a;
        check_string "evaluated from the mailbox" "after" (run a "set x") );
    ( "send mailbox gets and sets the bound from Tcl",
      fun () ->
        let server = Server.create () in
        let a = new_app ~server ~name:"solo" () in
        check_string "default bound" "64" (run a "send mailbox");
        ignore (run a "send mailbox 5");
        check_int "applied" 5 a.Tk.Core.send.Tk.Core.mailbox_limit;
        let msg = expect_error a "send mailbox zero" in
        check_bool "validates the argument" true
          (contains ~needle:"expected positive integer" msg) );
  ]

(* ------------------------------------------------------------------ *)
(* Async and futures *)

let async_future_tests =
  [
    ( "send -async is fire-and-forget and evaluated on the target's loop",
      fun () ->
        let _server, a, b = fresh_pair () in
        ignore (run b "set x before");
        check_string "returns immediately with nothing" ""
          (run a "send -async beta {set x after}");
        check_string "not yet evaluated" "before" (run b "set x");
        Tk.Core.update b;
        check_string "evaluated at the next drain" "after" (run b "set x");
        check_int "async counted" 1 (metrics a).Tk.Metrics.sends_async );
    ( "a future resolves ok and send wait returns the value",
      fun () ->
        let _server, a, _b = fresh_pair () in
        virtualize a;
        let handle = run a "send -future beta expr 6*7" in
        check_bool "handle shape" true (contains ~needle:"future#" handle);
        check_string "resolved value" "42"
          (run a (Printf.sprintf "send wait %s" handle));
        check_int "no pending futures left" 0 (Tk.Sendcmd.pending_futures a) );
    ( "send result polls without blocking and consumes on resolution",
      fun () ->
        let _server, a, b = fresh_pair () in
        let advance = Tk.Dispatch.use_virtual_clock a.Tk.Core.disp in
        (* A deaf target: the future stays pending until its deadline. *)
        b.Tk.Core.pre_handlers <- [];
        let handle = run a "send -future -timeout 300 beta expr 1" in
        check_string "pending while the peer is deaf" "pending"
          (run a (Printf.sprintf "send result %s" handle));
        advance 301;
        let r = run a (Printf.sprintf "send result %s" handle) in
        check_bool "resolved to timeout" true (contains ~needle:"timeout" r);
        let msg =
          expect_error a (Printf.sprintf "send result %s" handle)
        in
        check_bool "handle consumed" true
          (contains ~needle:"no such send future" msg) );
    ( "a future to a peer that dies resolves died, never lost",
      fun () ->
        let _server, a, b = fresh_pair () in
        virtualize a;
        let handle = run a "send -future beta set x 1" in
        Server.kill_connection b.Tk.Core.conn;
        let msg = expect_error a (Printf.sprintf "send wait %s" handle) in
        check_bool "died, not lost" true (contains ~needle:"died" msg);
        check_int "nothing pending" 0 (Tk.Sendcmd.pending_futures a);
        check_int "every future resolved"
          (metrics a).Tk.Metrics.futures_created
          (metrics a).Tk.Metrics.futures_resolved );
  ]

(* ------------------------------------------------------------------ *)
(* Broadcast *)

let broadcast_tests =
  [
    ( "send -all aggregates per-peer outcomes instead of aborting",
      fun () ->
        let server = Server.create () in
        let a = new_app ~server ~name:"hub" () in
        let _e1 = new_app ~server ~name:"editor1" () in
        let e2 = new_app ~server ~name:"editor2" () in
        let _v = new_app ~server ~name:"viewer" () in
        Tk.Core.update_all server;
        virtualize a;
        Server.kill_connection e2.Tk.Core.conn;
        let results = Tk.Sendcmd.broadcast a "expr 2+2" in
        let state name =
          let rec find = function
            | [] -> "missing"
            | (n, s, _) :: tl -> if n = name then s else find tl
          in
          find results
        in
        check_string "live editor answered" "ok" (state "editor1");
        check_string "viewer answered" "ok" (state "viewer");
        check_string "self answered" "ok" (state "hub");
        check_bool "dead editor reported died, broadcast not aborted" true
          (state "editor2" = "died" || state "editor2" = "missing");
        check_int "broadcast counted once" 1
          (metrics a).Tk.Metrics.sends_broadcast );
    ( "send -glob multicasts to the matching subset, sorted by name",
      fun () ->
        let server = Server.create () in
        let a = new_app ~server ~name:"hub" () in
        let _e1 = new_app ~server ~name:"editor1" () in
        let _e2 = new_app ~server ~name:"editor2" () in
        let _v = new_app ~server ~name:"viewer" () in
        Tk.Core.update_all server;
        virtualize a;
        let out = run a "send -glob editor* set who editors" in
        (match Tcl.Tcl_list.parse out with
        | Ok [ r1; r2 ] ->
          check_bool "editor1 first" true (contains ~needle:"editor1" r1);
          check_bool "editor2 second" true (contains ~needle:"editor2" r2)
        | Ok l -> Alcotest.failf "expected 2 results, got %d" (List.length l)
        | Error e -> Alcotest.failf "unparseable result: %s" e);
        check_bool "non-matching app untouched" true
          (expect_error a "send viewer set who" <> "editors") );
  ]

(* ------------------------------------------------------------------ *)
(* Guarded send evaluation (PR7): limits and -safe contexts on the
   receiving side, with the denied/limited outcomes in the taxonomy *)

(* Two apps on one shared virtual clock, like the storm harness: blocking
   [after] in the receiver advances time for the sender's deadline too. *)
let fresh_guarded_pair () =
  let server = Server.create () in
  let a = new_app ~server ~name:"alpha" () in
  let b = new_app ~server ~name:"beta" () in
  let vnow = ref 0.0 in
  let clock () = !vnow in
  let sleep ms = vnow := !vnow +. (float_of_int ms /. 1000.0) in
  List.iter
    (fun app ->
      Tk.Dispatch.set_clock app.Tk.Core.disp clock;
      Tk.Dispatch.set_sleep app.Tk.Core.disp sleep)
    [ a; b ];
  Tk.Core.update_all server;
  (a, b)

let guard_tests =
  [
    ( "send guard / send limit surface",
      fun () ->
        let _server, a, _b = fresh_pair () in
        check_string "default off" "off" (run a "send guard");
        ignore (run a "send guard limits");
        check_string "limits armed" "limits" (run a "send guard");
        ignore (run a "send guard safe");
        check_string "safe mode" "safe" (run a "send guard");
        ignore (run a "send guard on");
        check_string "on is limits" "limits" (run a "send guard");
        ignore (run a "send guard off");
        check_string "off again" "off" (run a "send guard");
        check_bool "bad mode rejected" true
          (contains ~needle:"bad guard mode"
             (expect_error a "send guard paranoid"));
        ignore (run a "send limit time 25");
        check_string "time reads back" "25" (run a "send limit time");
        ignore (run a "send limit commands 500");
        check_string "commands reads back" "500" (run a "send limit commands");
        check_bool "bad limit kind rejected" true
          (contains ~needle:"bad limit type"
             (expect_error a "send limit cycles 5")) );
    ( "command budget kills a CPU runaway from the wire",
      fun () ->
        let a, b = fresh_guarded_pair () in
        ignore (run b "send guard limits");
        ignore (run b "send limit commands 200");
        let msg = expect_error a "send beta {while 1 {set spin 1}}" in
        check_string "limited message"
          "script in application \"beta\" exceeded its command limit" msg;
        check_int "sender counted it" 1 (metrics a).Tk.Metrics.sends_limited;
        check_int "receiver counted it" 1 (metrics b).Tk.Metrics.recv_limited;
        (* The guard re-arms per request: the receiver is not wedged. *)
        check_string "receiver still serves" "2" (run a "send beta {expr 1+1}") );
    ( "time limit kills a clock runaway from the wire",
      fun () ->
        let a, b = fresh_guarded_pair () in
        ignore (run b "send guard limits");
        ignore (run b "send limit time 25");
        let msg = expect_error a "send beta {while 1 {after 1}}" in
        check_string "limited message"
          "script in application \"beta\" exceeded its time limit" msg;
        check_string "receiver still serves" "ok"
          (run a "send beta {set again ok}") );
    ( "safe guard denies hidden commands and isolates state",
      fun () ->
        let a, b = fresh_guarded_pair () in
        ignore (run b "send guard safe");
        let msg = expect_error a "send beta {exit 7}" in
        check_string "denial message"
          "permission denied: command \"exit\" is hidden" msg;
        check_int "sender counted denial" 1 (metrics a).Tk.Metrics.sends_denied;
        check_int "receiver counted denial" 1 (metrics b).Tk.Metrics.recv_denied;
        (* Benign scripts run, but in the slave: the main interpreter's
           variables never see them. *)
        check_string "benign script runs" "99" (run a "send beta {set marker 99}");
        check_bool "main interp isolated" true
          (contains ~needle:"no such variable" (expect_error b "set marker")) );
    ( "guarded self-send matches the wire message byte for byte",
      fun () ->
        let server = Server.create () in
        let solo = new_app ~server ~name:"solo" () in
        ignore (run solo "send guard limits");
        ignore (run solo "send limit commands 100");
        let msg = expect_error solo "send solo {while 1 {set spin 1}}" in
        check_string "fast-path limited message"
          "script in application \"solo\" exceeded its command limit" msg;
        (* The limit unwound the *receiving* evaluation; once delivered
           as a reply it is an ordinary error the sender can catch —
           even though sender and receiver share an interpreter here. *)
        check_string "sender-side catch traps it"
          "script in application \"solo\" exceeded its command limit"
          (run solo "catch {send solo {while 1 {set spin 1}}} m; set m") );
    ( "overflow and limited are distinct outcomes with distinct messages",
      fun () ->
        let a, b = fresh_guarded_pair () in
        ignore (run b "send guard limits");
        ignore (run b "send limit commands 100");
        (* A limited reply... *)
        let limited = expect_error a "send beta {while 1 {set spin 1}}" in
        (* ...and an overflow refusal from a saturated mailbox: flood
           asyncs so the batch parses at once, then ask synchronously. *)
        b.Tk.Core.send.Tk.Core.mailbox_limit <- 2;
        for _ = 1 to 5 do
          match Tk.Sendcmd.send_async a ~target:"beta" "set x 1" with
          | Ok () -> ()
          | Error e -> Alcotest.failf "async send failed: %s" e
        done;
        let overflow =
          match
            Tk.Sendcmd.send_outcome ~timeout_ms:100 a ~target:"beta" "set y 2"
          with
          | Tk.Sendcmd.O_overflow v -> v
          | o -> Alcotest.failf "expected overflow, got %s" (Tk.Sendcmd.outcome_state o)
        in
        check_bool "limited names the limit" true
          (contains ~needle:"exceeded its command limit" limited);
        check_bool "overflow names the mailbox" true
          (contains ~needle:"mailbox of application \"beta\" is full" overflow);
        check_bool "messages are distinct" true (limited <> overflow) );
  ]

(* ------------------------------------------------------------------ *)
(* The crash-storm smoke: deterministic, fully resolved, conserved *)

let storm_tests =
  [
    ( "50-app crash-storm smoke: every send resolves, twice identically",
      fun () ->
        let cfg = Tk.Sendstorm.default in
        let r1 = Tk.Sendstorm.run cfg in
        let r2 = Tk.Sendstorm.run cfg in
        check_bool "two runs produce identical counters and outcomes" true
          (Tk.Sendstorm.counters_equal r1 r2);
        check_int "no unresolved futures" 0 r1.Tk.Sendstorm.unresolved_futures;
        check_bool "no lost futures" true
          (not (List.mem_assoc "lost" r1.Tk.Sendstorm.outcomes));
        check_bool "sends were issued" true (r1.Tk.Sendstorm.sends_issued > 0);
        (* Conservation: what the mailboxes accepted they drained. *)
        let counter name =
          try List.assoc name r1.Tk.Sendstorm.counters with Not_found -> 0
        in
        check_bool "mailboxes drained what they accepted" true
          (counter "tk.send.mailbox_drained" > 0
          && counter "tk.send.mailbox_drained"
             <= counter "tk.send.mailbox_enqueued");
        (* The taxonomy shows up under a 2% crash plan. *)
        check_bool "some sends succeeded" true
          (List.mem_assoc "ok" r1.Tk.Sendstorm.outcomes);
        check_bool "crashes landed" true (r1.Tk.Sendstorm.crashes_landed > 0);
        (* Every send resolved to exactly one known terminal state. *)
        List.iter
          (fun (state, _) ->
            check_bool ("known terminal state: " ^ state) true
              (List.mem state
                 [ "ok"; "error"; "died"; "timeout"; "overflow";
                   "sender-crashed" ]))
          r1.Tk.Sendstorm.outcomes );
    ( "200-app hostile storm: every runaway terminates, twice identically",
      fun () ->
        (* 1% hostile peers (seeded: two of 200) firing time-runaways,
           CPU-runaways and forbidden [exit] at a guarded fleet.  Crash
           and hang are off so the only way a send can fail to resolve
           quickly is a runaway outliving its budget — of which there
           must be none. *)
        let cfg =
          {
            Tk.Sendstorm.apps = 200;
            crash_percent = 0;
            hang_percent = 0;
            hostile_percent = 1;
            sends_per_app = 3;
            mailbox_limit = 16;
            timeout_ms = 200;
            guarded = true;
            guard_time_ms = 30;
            guard_cmds = 400;
            seed = 42;
          }
        in
        let r1 = Tk.Sendstorm.run cfg in
        let r2 = Tk.Sendstorm.run cfg in
        check_bool "two runs produce identical counters and outcomes" true
          (Tk.Sendstorm.counters_equal r1 r2);
        check_int "no unresolved futures" 0 r1.Tk.Sendstorm.unresolved_futures;
        let outcome name =
          try List.assoc name r1.Tk.Sendstorm.outcomes with Not_found -> 0
        in
        let counter name =
          try List.assoc name r1.Tk.Sendstorm.counters with Not_found -> 0
        in
        (* Every runaway was terminated by its guard — nothing waited
           out a deadline, nothing wedged a drain. *)
        check_int "no timeouts" 0 (outcome "timeout");
        check_bool "limits tripped" true (outcome "limited" > 0);
        check_bool "guard checks ran" true (counter "tcl.limit.checks" > 0);
        check_int "limit trips match the limited outcomes"
          (outcome "limited")
          (counter "tcl.limit.time_exceeded"
          + counter "tcl.limit.cmd_exceeded");
        check_int "denials match the denied outcomes" (outcome "denied")
          (counter "tcl.limit.denied");
        check_bool "benign traffic still flowed" true (outcome "ok" > 0);
        check_bool "mailboxes drained what they accepted" true
          (counter "tk.send.mailbox_drained"
          <= counter "tk.send.mailbox_enqueued");
        (* The guarded fleet serves follow-up traffic: the guards re-arm
           per request instead of wedging the receivers. *)
        check_bool "no losses" true
          (not (List.mem_assoc "lost" r1.Tk.Sendstorm.outcomes)) );
  ]

let () =
  Alcotest.run "send"
    [
      ("self-send fast path", List.map (fun (n, f) -> Alcotest.test_case n `Quick f) fast_path_tests);
      ("stale registry entries", List.map (fun (n, f) -> Alcotest.test_case n `Quick f) stale_tests);
      ("registry churn", List.map (fun (n, f) -> Alcotest.test_case n `Quick f) churn_tests);
      ("mailbox backpressure", List.map (fun (n, f) -> Alcotest.test_case n `Quick f) mailbox_tests);
      ("async and futures", List.map (fun (n, f) -> Alcotest.test_case n `Quick f) async_future_tests);
      ("broadcast", List.map (fun (n, f) -> Alcotest.test_case n `Quick f) broadcast_tests);
      ("guarded evaluation", List.map (fun (n, f) -> Alcotest.test_case n `Quick f) guard_tests);
      ("crash storm", List.map (fun (n, f) -> Alcotest.test_case n `Quick f) storm_tests);
    ]
