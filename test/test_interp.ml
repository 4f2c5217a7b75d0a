(* Interpreter isolation (PR7): slave interpreter trees, -safe hiding
   and hidden-command denial, alias marshalling into the master,
   resource limits (time on an injected clock, command budgets,
   granularity, trip stickiness), async cancellation, and per-interp
   recursion limits.  Everything here drives the [interp] command
   surface backed by the guard machinery in [Tcl.Interp]. *)

let new_interp () = Tcl.Builtins.new_interp ()

let run tcl script =
  match Tcl.Interp.eval_value tcl script with
  | Ok v -> v
  | Error msg -> Alcotest.failf "script %S failed: %s" script msg

let expect_error tcl script =
  match Tcl.Interp.eval_value tcl script with
  | Ok v -> Alcotest.failf "script %S unexpectedly succeeded with %S" script v
  | Error msg -> msg

let check_string = Alcotest.(check string)
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let contains ~needle haystack =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let slave tcl name =
  match Tcl.Interp.find_slave tcl name with
  | Some s -> s
  | None -> Alcotest.failf "slave %S not found" name

(* ------------------------------------------------------------------ *)
(* Slave tree lifecycle *)

let create_eval_delete () =
  let t = new_interp () in
  check_string "create returns path" "s" (run t "interp create s");
  check_string "exists" "1" (run t "interp exists s");
  check_string "slave evaluates" "7" (run t "interp eval s {expr {3 + 4}}");
  check_string "delete" "" (run t "interp delete s");
  check_string "gone" "0" (run t "interp exists s");
  let msg = expect_error t "interp eval s {set x 1}" in
  check_bool "eval after delete fails" true
    (contains ~needle:"could not find interpreter" msg)

let variables_are_isolated () =
  let t = new_interp () in
  ignore (run t "set x master");
  ignore (run t "interp create s");
  ignore (run t "interp eval s {set x slave}");
  check_string "master var untouched" "master" (run t "set x");
  check_string "slave var separate" "slave" (run t "interp eval s {set x}");
  ignore (run t "proc only_here {} {return yes}");
  let msg = expect_error t "interp eval s only_here" in
  check_bool "master procs invisible in slave" true
    (contains ~needle:"invalid command" msg)

let auto_names () =
  let t = new_interp () in
  check_string "first auto name" "interp0" (run t "interp create");
  check_string "second auto name" "interp1" (run t "interp create");
  check_string "both listed" "interp0 interp1" (run t "lsort [interp slaves]")

let duplicate_create_fails () =
  let t = new_interp () in
  ignore (run t "interp create s");
  let msg = expect_error t "interp create s" in
  check_bool "duplicate rejected" true
    (contains ~needle:"already exists" msg)

let nested_tree_and_recursive_teardown () =
  let t = new_interp () in
  ignore (run t "interp create a");
  ignore (run t "interp eval a {interp create b}");
  check_string "nested path exists" "1" (run t "interp exists {a b}");
  check_string "a's slaves" "b" (run t "interp slaves a");
  ignore (run t "interp eval a {interp eval b {set deep 3}}");
  ignore (run t "interp delete a");
  check_string "a gone" "0" (run t "interp exists a");
  check_string "descendant gone with it" "0" (run t "interp exists {a b}")

let delete_unknown_errors () =
  let t = new_interp () in
  let msg = expect_error t "interp delete nosuch" in
  check_bool "delete unknown" true
    (contains ~needle:"could not find interpreter" msg)

let slave_errors_propagate () =
  let t = new_interp () in
  ignore (run t "interp create s");
  let msg = expect_error t "interp eval s {error boom}" in
  check_string "slave error text" "boom" msg;
  check_string "master still fine" "ok" (run t "set y ok")

(* ------------------------------------------------------------------ *)
(* Safety: hiding, denial, invokehidden, expose *)

let safe_slave_denies_unsafe () =
  let t = new_interp () in
  ignore (run t "interp create -safe s");
  check_string "issafe" "1" (run t "interp issafe s");
  check_string "master is not safe" "0" (run t "interp issafe");
  let hidden = run t "interp hidden s" in
  check_bool "exit hidden" true (contains ~needle:"exit" hidden);
  let msg = expect_error t "interp eval s {exit 1}" in
  check_string "denial message"
    "permission denied: command \"exit\" is hidden" msg;
  let s = slave t "s" in
  check_bool "denial counted" true (Tcl.Interp.denied_count s > 0)

let denial_is_catchable () =
  let t = new_interp () in
  ignore (run t "interp create -safe s");
  check_string "catch sees the denial"
    "permission denied: command \"exit\" is hidden"
    (run t "interp eval s {catch {exit 1} m; set m}")

let safe_slave_cannot_escalate () =
  let t = new_interp () in
  ignore (run t "interp create -safe s");
  let msg = expect_error t "interp eval s {interp create evil}" in
  check_bool "interp machinery hidden" true
    (contains ~needle:"permission denied" msg);
  let msg = expect_error t "interp eval s {source /etc/passwd}" in
  check_bool "source hidden" true
    (contains ~needle:"permission denied" msg)

let hide_expose_roundtrip () =
  let t = new_interp () in
  ignore (run t "interp create s");
  ignore (run t "interp eval s {proc greet {} {return hi}}");
  check_string "visible before hide" "hi" (run t "interp eval s greet");
  ignore (run t "interp hide s greet");
  let msg = expect_error t "interp eval s greet" in
  check_bool "hidden now denied" true
    (contains ~needle:"permission denied" msg);
  check_string "master invokes hidden" "hi" (run t "interp invokehidden s greet");
  ignore (run t "interp expose s greet");
  check_string "visible again" "hi" (run t "interp eval s greet")

let expose_under_new_name () =
  let t = new_interp () in
  ignore (run t "interp create s");
  ignore (run t "interp eval s {proc orig {} {return v}}");
  ignore (run t "interp hide s orig");
  ignore (run t "interp expose s orig renamed");
  check_string "exposed under alias name" "v" (run t "interp eval s renamed")

(* ------------------------------------------------------------------ *)
(* Aliases: marshalled through the creating interpreter *)

let alias_marshals_into_master () =
  let t = new_interp () in
  ignore (run t "proc addup {a b} {expr {$a + $b}}");
  ignore (run t "interp create s");
  ignore (run t "interp alias s plus {} addup 10");
  check_string "bound word + slave args" "15" (run t "interp eval s {plus 5}");
  check_string "alias listed" "plus" (run t "interp aliases s");
  check_string "target query" "addup" (run t "interp alias s plus")

let alias_runs_in_master_scope () =
  let t = new_interp () in
  ignore (run t "set secret 42");
  ignore (run t "proc reveal {} {global secret; return $secret}");
  ignore (run t "interp create s");
  ignore (run t "interp alias s ask {} reveal");
  (* The alias body sees the master's globals; the slave still can't. *)
  check_string "alias reads master state" "42" (run t "interp eval s ask");
  let msg = expect_error t "interp eval s {set secret}" in
  check_bool "slave itself has no such var" true
    (contains ~needle:"no such variable" msg)

let alias_into_safe_slave () =
  let t = new_interp () in
  ignore (run t "proc audit {what} {return logged:$what}");
  ignore (run t "interp create -safe s");
  ignore (run t "interp alias s log {} audit");
  check_string "safe slave calls out through alias" "logged:boot"
    (run t "interp eval s {log boot}")

(* ------------------------------------------------------------------ *)
(* Resource limits *)

(* An injected limit clock that ticks 1 ms per read: time limits trip
   after a deterministic number of boundary checks. *)
let with_ticking_clock () =
  let t = new_interp () in
  let ticks = ref 0 in
  Tcl.Interp.set_limit_clock t
    (Some
       (fun () ->
         incr ticks;
         !ticks));
  (t, ticks)

let command_budget_kills_runaway () =
  let t = new_interp () in
  ignore (run t "interp create s");
  ignore (run t "interp limit s commands -value 50");
  check_string "query reads back" "50" (run t "interp limit s commands");
  let msg = expect_error t "interp eval s {while 1 {set spin 1}}" in
  check_string "runaway stopped" "command count limit exceeded" msg

let time_limit_on_injected_clock () =
  let master, _ticks = with_ticking_clock () in
  (* The slave inherits the master's limit clock at creation. *)
  ignore (run master "interp create s");
  ignore (run master "interp limit s time -value 5");
  let msg = expect_error master "interp eval s {while 1 {set spin 1}}" in
  check_string "time runaway stopped" "time limit exceeded" msg

let limit_trip_is_sticky_until_rearm () =
  let t = new_interp () in
  ignore (run t "interp create s");
  ignore (run t "interp limit s commands -value 20");
  ignore (expect_error t "interp eval s {while 1 {set spin 1}}");
  (* Still tripped: even a trivial script is refused... *)
  let msg = expect_error t "interp eval s {set a 1}" in
  check_string "sticky" "command count limit exceeded" msg;
  (* ...until the budget is re-armed (here: raised). *)
  ignore (run t "interp limit s commands -value 1000");
  check_string "re-armed budget admits work" "1" (run t "interp eval s {set a 1}");
  (* Disarming entirely also clears it. *)
  ignore (run t "interp limit s commands -value 0");
  check_string "disarmed" "ok" (run t "interp eval s {set b ok}")

let catch_cannot_swallow_limit () =
  let t = new_interp () in
  ignore (run t "interp create s");
  ignore (run t "interp limit s commands -value 30");
  (* The limit error unwinds through catch: the whole eval fails. *)
  let msg =
    expect_error t "interp eval s {catch {while 1 {set spin 1}} m; set m}"
  in
  check_string "catch no shield" "command count limit exceeded" msg

let granularity_thins_clock_reads () =
  let reads_with g =
    let master, ticks = with_ticking_clock () in
    ignore (run master "interp create s");
    ignore
      (run master
         (Printf.sprintf "interp limit s time -value 2000 -granularity %d" g));
    let before = !ticks in
    ignore (run master "interp eval s {set i 0; while {$i < 100} {incr i}}");
    !ticks - before
  in
  let fine = reads_with 1 and coarse = reads_with 10 in
  check_bool
    (Printf.sprintf "granularity 10 reads clock less (%d < %d)" coarse fine)
    true
    (coarse < fine)

let limit_bad_args () =
  let t = new_interp () in
  ignore (run t "interp create s");
  let msg = expect_error t "interp limit s cycles -value 5" in
  check_bool "bad limit type" true
    (contains ~needle:"should be time or commands" msg);
  let msg = expect_error t "interp limit s commands -value -3" in
  check_bool "negative value" true
    (contains ~needle:"non-negative" msg)

let limit_stats_account () =
  let t = new_interp () in
  ignore (run t "interp create s");
  ignore (run t "interp limit s commands -value 25");
  ignore (expect_error t "interp eval s {while 1 {set spin 1}}");
  let stats = Tcl.Interp.limit_stats (slave t "s") in
  let get k = int_of_string (List.assoc k stats) in
  check_bool "checks counted" true (get "checks" > 0);
  check_bool "cmd trip counted" true (get "cmd_exceeded" > 0);
  check_int "no time trip" 0 (get "time_exceeded")

(* ------------------------------------------------------------------ *)
(* Cancellation *)

(* A helper command inside the slave that requests its own cancellation
   mid-script — the single-threaded stand-in for an async signal. *)
let with_cancelling_slave ?unwind t =
  ignore (run t "interp create s");
  let s = slave t "s" in
  Tcl.Interp.register s
    (Tcl.Interp.signature "trip_cancel" 0 ~max:0 ~usage:"trip_cancel")
    (fun _ _ ->
      Tcl.Interp.cancel ?unwind s;
      (Tcl.Interp.Tcl_ok, ""));
  s

let cancel_stops_runaway () =
  let t = new_interp () in
  let _s = with_cancelling_slave t in
  let msg =
    expect_error t "interp eval s {set n 0; while 1 {incr n; trip_cancel}}"
  in
  check_string "cancelled" "eval canceled" msg

let plain_cancel_is_catchable () =
  let t = new_interp () in
  let _s = with_cancelling_slave t in
  check_string "catch traps plain cancel" "eval canceled"
    (run t "interp eval s {catch {while 1 {trip_cancel}} m; set m}")

let unwind_cancel_is_not_catchable () =
  let t = new_interp () in
  let _s = with_cancelling_slave ~unwind:true t in
  let msg =
    expect_error t "interp eval s {catch {while 1 {trip_cancel}} m; set m}"
  in
  check_string "unwind escapes catch" "eval unwound" msg

let script_level_cancel_is_one_shot () =
  let t = new_interp () in
  ignore (run t "interp create s");
  ignore (run t "interp cancel s");
  let msg = expect_error t "interp eval s {set a 1}" in
  check_string "pending cancel fires" "eval canceled" msg;
  check_string "consumed: next eval runs" "1" (run t "interp eval s {set a 1}")

let cancel_unwind_option () =
  let t = new_interp () in
  ignore (run t "interp create s");
  ignore (run t "interp cancel -unwind s");
  let msg = expect_error t "interp eval s {catch {set a 1} m; set m}" in
  check_string "-unwind through catch" "eval unwound" msg

(* ------------------------------------------------------------------ *)
(* Recursion limits *)

let recursionlimit_get_set () =
  let t = new_interp () in
  check_string "default" "1000" (run t "interp recursionlimit");
  check_string "set self" "50" (run t "interp recursionlimit 50");
  check_string "reads back" "50" (run t "interp recursionlimit");
  ignore (run t "interp create s");
  check_string "set slave" "20" (run t "interp recursionlimit s 20");
  check_string "slave reads back" "20" (run t "interp recursionlimit s");
  check_string "master unchanged" "50" (run t "interp recursionlimit")

let recursionlimit_stops_infinite_recursion () =
  let t = new_interp () in
  ignore (run t "interp create s");
  ignore (run t "interp recursionlimit s 40");
  ignore (run t "interp eval s {proc loop {} {loop}}");
  let msg = expect_error t "interp eval s loop" in
  (* The message proper; proc unwinding appends its traceback lines. *)
  check_bool "overflow message" true
    (contains ~needle:"too many nested evaluations (infinite loop?)" msg);
  (* Depth unwinds fully: the slave keeps working afterwards. *)
  check_string "slave recovered" "fine" (run t "interp eval s {set x fine}")

let deep_but_legal_recursion_still_works () =
  let t = new_interp () in
  ignore (run t "interp recursionlimit 2000");
  ignore (run t "proc count {n} {if {$n <= 0} {return 0}; expr {1 + [count [expr {$n - 1}]]}}");
  check_string "500 deep" "500" (run t "count 500")

(* ------------------------------------------------------------------ *)
(* Guard stats aggregate across the slave tree *)

let stats_shared_down_the_tree () =
  let t = new_interp () in
  ignore (run t "interp create -safe s");
  ignore (run t "interp eval s {catch {exit 1}}");
  (* The master's guard_stats see the slave's denial (shared record). *)
  check_bool "master counts slave denial" true (Tcl.Interp.denied_count t > 0);
  let stats = Tcl.Interp.interp_stats t in
  let get k = int_of_string (List.assoc k stats) in
  check_int "one live slave" 1 (get "slaves");
  check_int "one safe slave" 1 (get "safe_slaves");
  check_bool "creates counted" true (get "creates" >= 1);
  ignore (run t "interp delete s");
  let stats = Tcl.Interp.interp_stats t in
  let get k = int_of_string (List.assoc k stats) in
  check_int "none after delete" 0 (get "slaves");
  check_bool "deletes counted" true (get "deletes" >= 1)

let alias_calls_counted () =
  let t = new_interp () in
  ignore (run t "proc noop {} {}");
  ignore (run t "interp create s");
  ignore (run t "interp alias s n {} noop");
  ignore (run t "interp eval s {n; n; n}");
  let stats = Tcl.Interp.interp_stats t in
  check_int "three alias calls" 3
    (int_of_string (List.assoc "alias_calls" stats))

(* ------------------------------------------------------------------ *)
(* Subcommand surface errors *)

let bad_subcommand_reported () =
  let t = new_interp () in
  let msg = expect_error t "interp creat s" in
  check_bool "misspelled subcommand" true (contains ~needle:"creat" msg)

let to_alcotest = List.map (fun (n, f) -> Alcotest.test_case n `Quick f)

let () =
  Alcotest.run "interp"
    [
      ( "slaves",
        to_alcotest
          [
            ("create/eval/delete", create_eval_delete);
            ("variables are isolated", variables_are_isolated);
            ("auto names", auto_names);
            ("duplicate create fails", duplicate_create_fails);
            ("nested tree, recursive teardown",
             nested_tree_and_recursive_teardown);
            ("delete unknown errors", delete_unknown_errors);
            ("slave errors propagate", slave_errors_propagate);
          ] );
      ( "safety",
        to_alcotest
          [
            ("safe slave denies unsafe commands", safe_slave_denies_unsafe);
            ("denial is catchable", denial_is_catchable);
            ("safe slave cannot escalate", safe_slave_cannot_escalate);
            ("hide/expose roundtrip", hide_expose_roundtrip);
            ("expose under new name", expose_under_new_name);
          ] );
      ( "aliases",
        to_alcotest
          [
            ("alias marshals into master", alias_marshals_into_master);
            ("alias runs in master scope", alias_runs_in_master_scope);
            ("alias into safe slave", alias_into_safe_slave);
          ] );
      ( "limits",
        to_alcotest
          [
            ("command budget kills runaway", command_budget_kills_runaway);
            ("time limit on injected clock", time_limit_on_injected_clock);
            ("trip sticky until rearm", limit_trip_is_sticky_until_rearm);
            ("catch cannot swallow limit", catch_cannot_swallow_limit);
            ("granularity thins clock reads", granularity_thins_clock_reads);
            ("limit bad args", limit_bad_args);
            ("limit stats account", limit_stats_account);
          ] );
      ( "cancel",
        to_alcotest
          [
            ("cancel stops runaway", cancel_stops_runaway);
            ("plain cancel is catchable", plain_cancel_is_catchable);
            ("unwind cancel is not catchable", unwind_cancel_is_not_catchable);
            ("script-level cancel is one-shot", script_level_cancel_is_one_shot);
            ("cancel -unwind option", cancel_unwind_option);
          ] );
      ( "recursion",
        to_alcotest
          [
            ("recursionlimit get/set", recursionlimit_get_set);
            ("stops infinite recursion", recursionlimit_stops_infinite_recursion);
            ("deep but legal recursion works", deep_but_legal_recursion_still_works);
          ] );
      ( "stats",
        to_alcotest
          [
            ("stats shared down the tree", stats_shared_down_the_tree);
            ("alias calls counted", alias_calls_counted);
            ("bad subcommand reported", bad_subcommand_reported);
          ] );
    ]
