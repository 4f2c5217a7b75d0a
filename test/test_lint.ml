(* Tests for the static analyzer (lint.ml, the [lint] command and the
   signature registry behind them): a fixture corpus of seeded defects
   that must each be caught, a zero-false-positive sweep over known-good
   scripts (including examples/*.tcl), the non-execution guarantee, and
   the shared-usage-string contract between runtime and lint. *)

open Xsim

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let fresh_app ?(name = "lint") () =
  let server = Server.create () in
  let app = Tk_widgets.Tk_widgets_lib.new_app ~server ~name () in
  (server, app)

let run app script =
  match Tcl.Interp.eval_value app.Tk.Core.interp script with
  | Ok v -> v
  | Error msg -> Alcotest.failf "script %S failed: %s" script msg

let run_err app script =
  match Tcl.Interp.eval_value app.Tk.Core.interp script with
  | Ok v -> Alcotest.failf "script %S unexpectedly succeeded: %s" script v
  | Error msg -> msg

let contains ~needle haystack =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i =
    i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1))
  in
  nn = 0 || go 0

let lint app src = Tcl.Lint.analyze app.Tk.Core.interp src

let messages diags = List.map (fun d -> d.Tcl.Lint.message) diags

(* ------------------------------------------------------------------ *)
(* Seeded defects: each fixture is (name, script, expected substring).
   The analyzer must produce at least one diagnostic containing the
   substring. *)

let defect_fixtures =
  [
    ( "misspelled command name",
      "buton .b -text hi",
      "invalid command name \"buton\" (did you mean \"button\"?)" );
    ( "unknown configure option",
      "button .b -txt hi",
      "unknown option \"-txt\" (did you mean \"-text\"?)" );
    ("missing option value", "button .b -text", "value for \"-text\" missing");
    ("ambiguous option prefix", "button .b -fo x", "ambiguous option \"-fo\"");
    ( "set arity",
      "set",
      "wrong # args: should be \"set varName ?newValue?\"" );
    ( "lindex arity",
      "lindex {a b}",
      "wrong # args: should be \"lindex list index\"" );
    ("string bad subcommand", "string frobnicate x", "bad option \"frobnicate\"");
    ( "string subcommand arity",
      "string index abc",
      "wrong # args" );
    ( "array misspelled subcommand",
      "array nmaes a",
      "did you mean \"names\"" );
    ("info misspelled subcommand", "info exits foo", "did you mean \"exists\"");
    ( "use before set in a proc",
      "proc p {} {\n  puts $never\n}",
      "\"never\" may be used before being set in procedure \"p\"" );
    ( "regexp's string is not a match variable",
      "proc p {} {regexp x y m; return $y}",
      "\"y\" may be used before being set in procedure \"p\"" );
    ( "regexp's switches are not match variables",
      "proc p {} {regexp -nocase x y m; return $y}",
      "\"y\" may be used before being set in procedure \"p\"" );
    ( "dead code after return",
      "proc p {} {\n  return 1\n  puts x\n}",
      "unreachable command after \"return\"" );
    ( "dead code after error",
      "proc p {} {\n  error bad\n  puts x\n}",
      "unreachable command after \"error\"" );
    ( "dead code after break",
      "while 1 {\n  break\n  puts x\n}",
      "unreachable command after \"break\"" );
    ( "widget misspelled subcommand",
      "button .b\n.b confgure -text x",
      "bad option \"confgure\" for .b (did you mean \"configure\"?)" );
    ( "widget subcommand arity",
      "button .b\n.b invoke extra",
      "wrong # args for \".b invoke\"" );
    ( "widget cget arity",
      "button .b\n.b cget",
      "wrong # args: should be \".b cget option\"" );
    ( "widget cget unknown option",
      "button .b\n.b cget -nosuch",
      "unknown option \"-nosuch\"" );
    ( "bad binding event pattern",
      "button .b\nbind .b <Buton-1> {puts hi}",
      "bad event type or keysym" );
    ( "orphan widget path",
      "label .l.x -text hi",
      "bad window path name \".l.x\" (parent \".l\" is never created)" );
    ("wm misspelled subcommand", "wm titel . hi", "bad option \"titel\"");
    ("winfo misspelled subcommand", "winfo hieght .", "did you mean \"height\"");
    ( "proc called with too many args",
      "proc two {a b} {return $a}\ntwo 1 2 3",
      "called \"two\" with too many arguments" );
    ( "proc called with too few args",
      "proc two {a b} {return $a}\ntwo 1",
      "no value given for parameter \"b\" to \"two\"" );
    ( "listbox subcommand arity",
      "listbox .l\n.l get",
      "wrong # args for \".l get\"" );
    ( "scrollbar set arity",
      "scrollbar .s\n.s set 1 2",
      "wrong # args for \".s set\"" );
    ( "menu post arity",
      "menu .m\n.m post 5",
      "wrong # args for \".m post\"" );
    ( "pack misspelled subcommand",
      "button .b\npack appnd . .b {top}",
      "bad option \"appnd\"" );
    ( "option misspelled subcommand",
      "option ad Foo.bar baz",
      "bad option \"ad\"" );
    ( "bind arity",
      "button .b\nbind .b <Button-1> {puts hi} extra",
      "wrong # args" );
    ( "interp misspelled subcommand",
      "interp creat mini",
      "bad option \"creat\"" );
    ( "interp unknown -safe spelling",
      "interp create -saef mini",
      "bad option \"-saef\"" );
    ( "interp cancel unknown -unwind spelling",
      "interp cancel -unwnd mini",
      "bad option \"-unwnd\"" );
    ( "interp missing subcommand",
      "interp",
      "wrong # args" );
    ( "interp eval arity",
      "interp eval mini",
      "wrong # args" );
    ( "interp hide arity",
      "interp hide mini exit extra",
      "wrong # args" );
    ( "canvas misspelled subcommand",
      "canvas .c\n.c fnid overlapping 0 0 10 10",
      "bad option \"fnid\" for .c (did you mean \"find\"?)" );
    ( "canvas scale arity",
      "canvas .c\n.c scale all 0 0",
      "wrong # args for \".c scale\"" );
    ( "canvas gettags arity",
      "canvas .c\n.c gettags 1 extra",
      "wrong # args for \".c gettags\"" );
    ( "canvas addtag arity",
      "canvas .c\n.c addtag hot",
      "wrong # args for \".c addtag\"" );
  ]

let defect_tests =
  List.map
    (fun (name, script, needle) ->
      ( name,
        fun () ->
          let _, app = fresh_app () in
          let found = messages (lint app script) in
          if not (List.exists (contains ~needle) found) then
            Alcotest.failf "expected a diagnostic containing %S, got: %s"
              needle
              (String.concat " | " found) ))
    defect_fixtures

(* ------------------------------------------------------------------ *)
(* Known-good corpus: inline scripts in the style of the rest of the
   test suite and the paper's figures. Zero diagnostics allowed. *)

let clean_corpus =
  [
    "button .b -text go -command {set clicked 1}\npack append . .b {top}";
    "frame .f -width 60 -height 40\nbutton .f.b -text hi\n\
     pack append .f .f.b {top}";
    "proc greet {name} {return \"hi $name\"}\ngreet world";
    "proc f {} {\n  global x\n  set x 5\n  return $x\n}";
    "proc sum {} {\n  set total 0\n  foreach i {1 2 3} {incr total $i}\n\
     \  return $total\n}";
    "proc h {} {\n  upvar 1 y local\n  return $local\n}";
    "proc k {a} {\n  catch {incr missing}\n  return $a\n}";
    "set x 1\nif {$x} {puts yes} else {puts no}";
    "for {set i 0} {$i < 3} {incr i} {puts $i}";
    "listbox .l\n.l insert 0 a b c\n.l select from 0\n.l get 0";
    "entry .e\n.e insert 0 hello\n.e delete 0 2";
    "button .b\nbind .b <Control-q> {destroy .}";
    "menu .m\n.m add command -label Open -command {puts open}\n\
     .m add separator";
    "canvas .c\nset id [.c create line 0 0 10 10]\n.c move 1 5 5";
    "canvas .c\n.c create rectangle 0 0 20 20 -tags {box hot}\n\
     .c addtag warm withtag box\n.c dtag box hot\n.c gettags 1\n\
     .c find overlapping 0 0 5 5\n.c bbox box\n.c itemconfigure box -fill red\n\
     .c raise box\n.c lower box\n.c scale box 0 0 2.0 2.0\n.c delete box";
    "proc callback {} {puts pressed}\nbutton .b -command callback";
    "text .t\n.t insert 1.0 hello\n.t get 1.0 1.5";
    "scale .s\n.s set 5\n.s get";
    "scrollbar .sb\n.sb set 10 5 0 4\n.sb get";
    "wm title . Browser\nwm geometry . 80x24";
    "after 100 {puts tick}";
    "send otherApp {anything at all}";
    "set cmd puts\n$cmd hello";
    "set f /tmp\nif [file exists $f] {puts yes}";
    "main\nproc main {} {puts hi}";
    "proc unknown {args} {return \"\"}\nfrobnicate the args";
    "catch {exec ls /nonexistent} out\nputs $out";
    "proc varargs {a args} {return $a}\nvarargs 1 2 3 4";
    "interp create -safe mini\ninterp eval mini {set x 1}\n\
     interp delete mini";
    "proc p {s} {\n  regexp -nocase -indices {(a)} $s m g\n  return $g\n}";
    "interp create worker\nproc respond {q} {return yes}\n\
     interp alias worker ask {} respond\n\
     interp limit worker commands -value 1000\n\
     interp recursionlimit worker 500\ninterp cancel -unwind worker";
    (* helpers that set a caller's variable through upvar *)
    "proc w {n} {upvar 1 $n v; scan 5 %d v}; proc c {} {w a; return $a}";
    "proc w {n} {upvar 1 $n v; regexp a a v}; proc c {} {w a; return $a}";
    "proc w {n} {upvar 1 $n v; regsub a a b v}; proc c {} {w a; return $a}";
    "proc w {n} {upvar 1 $n v; if {1} {regexp a a v}}; proc c {} {w a; return \
     $a}";
    "proc w {n} {upvar 1 $n v; catch {scan 5 %d v}}; proc c {} {w a; return \
     $a}";
  ]

let clean_tests =
  List.mapi
    (fun i script ->
      ( Printf.sprintf "clean corpus #%d" (i + 1),
        fun () ->
          let _, app = fresh_app () in
          (* The corpus runs under wish, where the simulation commands
             exist; mirror that environment. *)
          List.iter
            (fun name ->
              Tcl.Interp.register_value app.Tk.Core.interp
                (Tcl.Interp.signature name 0 ~usage:name)
                (fun _ _ -> ""))
            [ "screendump"; "inject"; "serverstats"; "faultstats"; "crashtest" ];
          match messages (lint app script) with
          | [] -> ()
          | found ->
            Alcotest.failf "false positive on %S: %s" script
              (String.concat " | " found) ))
    clean_corpus

(* Every .tcl file under examples/ must lint clean (the CI gate runs the
   tclcheck binary over the same corpus). *)
let examples_sweep () =
  (* cwd is the test's build directory under [dune runtest], the
     workspace root under [dune exec]. *)
  let dir =
    if Sys.file_exists "../examples" then "../examples" else "examples"
  in
  let entries =
    match Sys.readdir dir with
    | entries -> Array.to_list entries
    | exception Sys_error msg -> Alcotest.failf "examples missing: %s" msg
  in
  let tcl = List.filter (fun e -> Filename.check_suffix e ".tcl") entries in
  check_bool "at least one example script" true (tcl <> []);
  List.iter
    (fun entry ->
      let _, app = fresh_app () in
      List.iter
        (fun name ->
          Tcl.Interp.register_value app.Tk.Core.interp
            (Tcl.Interp.signature name 0 ~usage:name)
            (fun _ _ -> ""))
        [ "screendump"; "inject"; "serverstats"; "faultstats"; "crashtest" ];
      let src =
        In_channel.with_open_text (Filename.concat dir entry)
          In_channel.input_all
      in
      match messages (lint app src) with
      | [] -> ()
      | found ->
        Alcotest.failf "false positive in %s: %s" entry
          (String.concat " | " found))
    tcl

(* Scripts from the rest of this test suite's style must also stay
   clean when linted through the [lint] Tcl command. *)
let lint_command_tests =
  [
    ( "lint returns diagnostics as a Tcl list",
      fun () ->
        let _, app = fresh_app () in
        let out = run app "lint {buton .b}" in
        check_bool "mentions invalid command" true
          (contains ~needle:"invalid command name" out);
        check_bool "has line and column" true (contains ~needle:"1 1" out) );
    ( "lint of a clean script returns empty",
      fun () ->
        let _, app = fresh_app () in
        check_string "no diagnostics" "" (run app "lint {set x 1}") );
    ( "lint arity",
      fun () ->
        let _, app = fresh_app () in
        let msg = run_err app "lint" in
        check_bool "usage" true
          (contains ~needle:"lint ?-safe? script" msg) );
  ]

(* ------------------------------------------------------------------ *)
(* The non-execution guarantee: linting a script performs no X requests
   and leaves no trace in the interpreter (no variables set, no widgets
   or procs created). *)

let non_execution_tests =
  [
    ( "lint executes nothing",
      fun () ->
        let _, app = fresh_app () in
        let requests_before =
          (Server.stats app.Tk.Core.conn).Server.total_requests
        in
        ignore
          (run app
             "lint {set foo 1\nbutton .zz -text hi\nproc ghost {} {}\nexit}");
        let requests_after =
          (Server.stats app.Tk.Core.conn).Server.total_requests
        in
        check_int "no X requests" requests_before requests_after;
        check_string "no variable set" "0" (run app "info exists foo");
        check_bool "no widget command created" false
          (Tcl.Interp.command_exists app.Tk.Core.interp ".zz");
        check_bool "no proc created" false
          (Tcl.Interp.command_exists app.Tk.Core.interp "ghost");
        (* And the interpreter still works normally afterwards. *)
        check_string "interp alive" "4" (run app "expr 2+2") );
  ]

(* ------------------------------------------------------------------ *)
(* Generated: lint's arity, subcommand and switch verdicts hold at
   runtime.

   Every registered signature, every subcommand of a closed table (and
   of its nested tables) and every widget class's subcommands (with cget
   and configure) is called with 0 to max+2 arguments of "1" (min+2 when
   unbounded), each call in a fresh application.  Every level that
   declares switches is also called with an undeclared "-bogus" switch,
   and with each value-taking switch followed by only the level's
   minimum count of words, so that taking its value leaves the level
   short.  A count out of bounds and every switch call must draw a shape
   error from lint (arity, subcommand, widget or options pass), and
   where lint reports one the runtime must fail with the same text, byte
   for byte, less lint's "did you mean" hint; where lint is silent, the
   runtime must not say "wrong # args".  A "1" is never a subcommand or
   a switch, so every call with a first argument against a closed table
   checks the "bad option" text too. *)

(* Shapes whose calls within bounds are not run: what those calls do
   depends on the argument values, or they leave the test process. *)
let shape_exclusions =
  [
    ("exit", "ends the process");
    ("send", "open table: an application name stands where a subcommand would");
    ("puts", "?-nonewline? and ?fileId? are told apart by value, not count");
    ("interp alias", "with three arguments the third's value picks the form");
    ("tkwait variable", "waits until the variable changes");
    ("exec", "runs a process");
    ("cd", "changes the working directory");
    ("open", "creates files");
  ]

type shape_call = {
  sc_key : string;  (* the shape, e.g. "info exists" or "Button invoke" *)
  sc_setup : string;  (* creates the widget for a widget call *)
  sc_words : string list;
  sc_in_bounds : bool;  (* false: lint must report a shape error *)
}

let shape_calls app =
  let interp = app.Tk.Core.interp in
  let ones k = List.init k (fun _ -> "1") in
  let call ~key ~setup words sc_in_bounds =
    { sc_key = key; sc_setup = setup; sc_words = words; sc_in_bounds }
  in
  (* One level: its counts, its switches, then (unless [open_table]) each
     entry of its table as a level of its own. *)
  let rec level ~key ~setup ~head ?(open_table = false) (x : Tcl.Interp.sub_sig)
      =
    let lo = x.sub_min and hi = x.sub_max in
    List.init
      ((if hi < 0 then lo else hi) + 3)
      (fun k ->
        call ~key ~setup (head @ ones k) (k >= lo && (hi < 0 || k <= hi)))
    @ (if x.sub_switches = [] then []
       else
         call ~key ~setup (head @ ("-bogus" :: ones lo)) false
         :: List.filter_map
              (function
                | Tcl.Interp.Value v ->
                  Some (call ~key ~setup (head @ (v :: ones lo)) false)
                | Tcl.Interp.Flag _ -> None)
              x.sub_switches)
    @
    if open_table then []
    else
      List.concat_map
        (fun (y : Tcl.Interp.sub_sig) ->
          level ~key:(key ^ " " ^ y.sub_name) ~setup
            ~head:(head @ [ y.sub_name ]) y)
        x.sub_subs
  in
  List.concat_map
    (fun name ->
      match Tcl.Interp.signature_of interp name with
      | Some s when name.[0] <> '.' ->
        level ~key:name ~setup:"" ~head:[ name ]
          ~open_table:s.Tcl.Interp.sig_open_subs
          (Tcl.Interp.subsig name s.sig_min ~max:s.sig_max
             ~switches:s.sig_switches ~subs:s.sig_subs)
        @ (match s.Tcl.Interp.sig_widget with
          | None -> []
          | Some ws ->
            level ~key:ws.ws_class ~setup:(name ^ " .w") ~head:[ ".w" ]
              (Tcl.Interp.subsig "" 1
                 ~subs:
                   (Tcl.Interp.subsig "cget" 1 ~max:1
                   :: Tcl.Interp.subsig "configure" 0
                   :: ws.ws_subs)))
      | _ -> [])
    (Tcl.Interp.command_names interp)

let strip_hint msg =
  let marker = " (did you mean" in
  let n = String.length msg and m = String.length marker in
  let rec find i =
    if i + m > n then msg
    else if String.sub msg i m = marker then String.sub msg 0 i
    else find (i + 1)
  in
  find 0

let starts_with prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let lint_matches_runtime () =
  let _, probe = fresh_app () in
  let calls = shape_calls probe in
  let excluded c = List.mem_assoc c.sc_key shape_exclusions in
  let failures = ref [] and checked = ref 0 in
  List.iter
    (fun c ->
      if not (c.sc_in_bounds && excluded c) then begin
        incr checked;
        let call = String.concat " " c.sc_words in
        let src = if c.sc_setup = "" then call else c.sc_setup ^ "\n" ^ call in
        let line = if c.sc_setup = "" then 1 else 2 in
        (* A shape error sits at the start of one of the call's words
           other than its script arguments, whose diagnostics are their
           own. *)
        let scripts =
          match
            Tcl.Interp.signature_of probe.Tk.Core.interp (List.hd c.sc_words)
          with
          | Some s -> s.Tcl.Interp.sig_scripts
          | None -> []
        in
        let rec starts i col = function
          | [] -> []
          | w :: rest ->
            (if List.mem i scripts then [] else [ col ])
            @ starts (i + 1) (col + String.length w + 1) rest
        in
        let starts = starts 0 1 c.sc_words in
        let predicted =
          List.filter
            (fun d ->
              d.Tcl.Lint.line = line
              && List.mem d.Tcl.Lint.col starts
              && d.Tcl.Lint.severity = Tcl.Lint.Error
              && List.mem d.Tcl.Lint.pass
                   [ "arity"; "subcommand"; "widget"; "options" ])
            (lint probe src)
        in
        let _, app = fresh_app () in
        let interp = app.Tk.Core.interp in
        Tcl.Interp.set_output interp ignore;
        if c.sc_setup <> "" then ignore (run app c.sc_setup);
        let status, msg = Tcl.Interp.eval_words interp c.sc_words in
        let fail fmt =
          Printf.ksprintf
            (fun m -> failures := (call ^ ": " ^ m) :: !failures)
            fmt
        in
        match predicted with
        | d :: _ ->
          let expected = strip_hint d.Tcl.Lint.message in
          if not (status = Tcl.Interp.Tcl_error && msg = expected) then
            fail "lint %S, runtime %S" expected msg
        | [] when not c.sc_in_bounds ->
          fail "lint silent on a misshapen call, runtime %S" msg
        | [] ->
          if status = Tcl.Interp.Tcl_error && starts_with "wrong # args" msg
          then
            fail "lint silent, runtime %S" msg
      end)
    calls;
  check_bool "some calls checked" true (!checked > 500);
  match List.rev !failures with
  | [] -> ()
  | found ->
    Alcotest.failf "%d of %d calls disagree:\n%s" (List.length found) !checked
      (String.concat "\n" found)

(* ------------------------------------------------------------------ *)
(* Enumerated: lint's def/use holds against the runtime's writes.

   Each form names n variables, which it sets (or may leave unset:
   [regexp] without a match variable, [global] in a helper, whose link
   replaces the upvar).  It is placed directly in a proc, in a helper
   that reaches the caller's variables through [upvar 1], and under
   [if {1}] and under [catch] in that helper; the proc then reads every
   variable.  Each program runs in a fresh interpreter on both tiers.
   Wherever [info exists] says the runtime set a variable, lint must not
   report it "may be used before being set".  The global [v0] is set
   first, so [global v0] links to a variable that exists. *)

let write_forms =
  let vars f vs = f (String.concat " " vs) in
  [
    ("set", 1, vars (Printf.sprintf "set %s 1"));
    ("append", 1, vars (Printf.sprintf "append %s x"));
    ("lappend", 1, vars (Printf.sprintf "lappend %s x"));
    ("catch, failing body", 1, vars (Printf.sprintf "catch {error boom} %s"));
    ("catch, succeeding body", 1, vars (Printf.sprintf "catch {expr 1} %s"));
    ("scan, 1 conversion", 1, vars (Printf.sprintf "scan 5 %%d %s"));
    ("scan, 2 conversions", 2, vars (Printf.sprintf "scan {5 6} {%%d %%d} %s"));
    ( "scan, 3 conversions",
      3,
      vars (Printf.sprintf "scan {5 6 7} {%%d %%d %%d} %s") );
    ("regexp, no match variable", 0, fun _ -> "regexp a a");
    ("regexp, 1 match variable", 1, vars (Printf.sprintf "regexp a a %s"));
    ("regexp, 2 match variables", 2, vars (Printf.sprintf "regexp (a) a %s"));
    ( "regexp, 3 match variables",
      3,
      vars (Printf.sprintf "regexp (a)(b) ab %s") );
    ("regexp -nocase", 1, vars (Printf.sprintf "regexp -nocase A a %s"));
    ("regexp -indices", 1, vars (Printf.sprintf "regexp -indices a a %s"));
    ("regexp --", 1, vars (Printf.sprintf "regexp -- -a -a %s"));
    ("regsub", 1, vars (Printf.sprintf "regsub a a b %s"));
    ("regsub -all", 1, vars (Printf.sprintf "regsub -all a aa b %s"));
    ("foreach", 1, vars (Printf.sprintf "foreach %s {1 2} {}"));
    ("global", 1, vars (Printf.sprintf "global %s"));
  ]

(* (placement, through a helper?, the form as placed) *)
let write_placements =
  [
    ("directly in a proc", false, Fun.id);
    ("in an upvar helper", true, Fun.id);
    ("under if in an upvar helper", true, fun f -> "if {1} {" ^ f ^ "}");
    ("under catch in an upvar helper", true, fun f -> "catch {" ^ f ^ "}");
  ]

(* The program with each variable read by [read]; the variables the
   caller reads. *)
let write_program ~helper ~place form n read =
  let names p = List.init n (Printf.sprintf "%s%d" p) in
  let locals = names "v" in
  let list vs = String.concat " " ("list" :: List.map read vs) in
  if not helper then
    ( Printf.sprintf "set v0 1\nproc c {} {%s; %s}\nc" (place (form locals))
        (list locals),
      locals )
  else
    let callers = names "a" in
    let upvar =
      if n = 0 then ""
      else
        String.concat " "
          ("upvar 1"
          :: List.map2 (fun f l -> "$" ^ f ^ " " ^ l) (names "n") locals)
        ^ "; "
    in
    ( Printf.sprintf "set v0 1\nproc w {%s} {%s%s}\nproc c {} {w %s; %s}\nc"
        (String.concat " " (names "n"))
        upvar
        (place (form locals))
        (String.concat " " callers) (list callers),
      callers )

let lint_agrees_with_runtime_writes () =
  let failures = ref [] and checked = ref 0 in
  List.iter
    (fun (form_name, n, form) ->
      List.iter
        (fun (place_name, helper, place) ->
          let what = form_name ^ ", " ^ place_name in
          let lint_src, vars =
            write_program ~helper ~place form n (fun v -> "$" ^ v)
          in
          let probe_src, _ =
            write_program ~helper ~place form n (fun v ->
                "[info exists " ^ v ^ "]")
          in
          let set_by ~compile =
            let tcl = Tcl.Builtins.new_interp () in
            Tcl.Interp.set_compile_enabled tcl compile;
            match Tcl.Interp.eval tcl probe_src with
            | Tcl.Interp.Tcl_ok, v -> String.split_on_char ' ' v
            | _, msg ->
              failures := (what ^ ": failed: " ^ msg) :: !failures;
              List.map (fun _ -> "0") vars
          in
          let reference = set_by ~compile:false and vm = set_by ~compile:true in
          if reference <> vm then
            failures := (what ^ ": the tiers disagree") :: !failures;
          let found =
            messages (Tcl.Lint.analyze (Tcl.Builtins.new_interp ()) lint_src)
          in
          List.iteri
            (fun i v ->
              if List.nth reference i = "1" || List.nth vm i = "1" then begin
                incr checked;
                let needle =
                  Printf.sprintf "\"%s\" may be used before being set" v
                in
                if List.exists (contains ~needle) found then
                  failures :=
                    Printf.sprintf "%s: lint says %s, the runtime set it" what
                      needle
                    :: !failures
              end)
            vars)
        write_placements)
    write_forms;
  check_int "variables the runtime set" 93 !checked;
  match List.rev !failures with
  | [] -> ()
  | found ->
    Alcotest.failf "%d disagreements in %d variables set at run time:\n%s"
      (List.length found) !checked
      (String.concat "\n" found)

(* ------------------------------------------------------------------ *)
(* Runtime and lint share one source of truth for messages. *)

let shared_message_tests =
  [
    ( "arity message matches the runtime word for word",
      fun () ->
        let _, app = fresh_app () in
        let runtime = run_err app "set" in
        match messages (lint app "set") with
        | [ linted ] -> check_string "same message" runtime linted
        | found ->
          Alcotest.failf "expected one diagnostic, got: %s"
            (String.concat " | " found) );
    ( "wm subcommand message matches the runtime",
      fun () ->
        let _, app = fresh_app () in
        let runtime = run_err app "wm titel . hi" in
        match messages (lint app "wm titel . hi") with
        | [ linted ] ->
          (* Lint appends a "did you mean" hint; the prefix is the
             runtime message verbatim. *)
          check_bool
            (Printf.sprintf "lint %S starts with runtime %S" linted runtime)
            true
            (String.length linted >= String.length runtime
            && String.sub linted 0 (String.length runtime) = runtime)
        | found ->
          Alcotest.failf "expected one diagnostic, got: %s"
            (String.concat " | " found) );
    ( "winfo subcommand message matches the runtime",
      fun () ->
        let _, app = fresh_app () in
        let runtime = run_err app "winfo hieght ." in
        check_bool "runtime routed through the registry" true
          (contains ~needle:"bad option \"hieght\": should be" runtime) );
    ( "proc arity message matches the runtime",
      fun () ->
        let _, app = fresh_app () in
        ignore (run app "proc two {a b} {return $a}");
        let runtime = run_err app "two 1" in
        match messages (lint app "proc two {a b} {return $a}\ntwo 1") with
        | [ linted ] -> check_string "same message" runtime linted
        | found ->
          Alcotest.failf "expected one diagnostic, got: %s"
            (String.concat " | " found) );
    ( "switch and nested-table errors match the runtime word for word",
      fun () ->
        List.iter
          (fun (setup, call) ->
            let _, app = fresh_app () in
            ignore (run app setup);
            let runtime = run_err app call in
            match messages (lint app (setup ^ "\n" ^ call)) with
            | [ linted ] -> check_string call runtime linted
            | found ->
              Alcotest.failf "%s: expected one diagnostic, got: %s" call
                (String.concat " | " found))
          [
            ("", "send -foo a b");
            ("", "interp create -x");
            ("", "lsort -foo {3 1 2}");
            ("", "lsearch -regexp {a b} a");
            ("", "regsub -foo a b c d");
            ("listbox .l", ".l select bogus 1");
            ("menu .m", ".m add bogus");
          ] );
    ( "every signature's arity and subcommand errors match the runtime",
      lint_matches_runtime );
  ]

(* ------------------------------------------------------------------ *)
(* info complete and the lint counters. *)

let info_complete_tests =
  [
    ( "info complete on balanced script",
      fun () ->
        let _, app = fresh_app () in
        check_string "complete" "1" (run app "info complete {puts hi}") );
    ( "info complete on open brace",
      fun () ->
        let _, app = fresh_app () in
        check_string "incomplete" "0" (run app "info complete \"proc f \\{\"") );
    ( "info complete on open quote",
      fun () ->
        let _, app = fresh_app () in
        check_string "incomplete" "0"
          (run app "info complete {puts \"unclosed}") );
  ]

let metrics_tests =
  [
    ( "tcl.lint counters in the metrics registry",
      fun () ->
        let _, app = fresh_app () in
        check_string "runs start at zero" "0"
          (Option.get (Tk.Core.metric app "tcl.lint.runs"));
        ignore (run app "lint {buton .b}");
        ignore (run app "lint {set x 1}");
        check_string "two runs" "2"
          (Option.get (Tk.Core.metric app "tcl.lint.runs"));
        check_string "one error" "1"
          (Option.get (Tk.Core.metric app "tcl.lint.errors"));
        check_string "xstat sees them" "2" (run app "xstat get tcl.lint.runs");
        ignore (run app "xstat reset");
        check_string "reset" "0" (run app "xstat get tcl.lint.runs") );
  ]

(* ------------------------------------------------------------------ *)
(* The whole-program tier (PR 10): call graph, abstract interpretation
   and the -safe capability checker.  [analyze_program ~whole:true] is
   what tclcheck runs; script-local [analyze] must never produce the
   whole-program-only reports. *)

let lint_whole ?(safe = false) app src =
  let out =
    Tcl.Lint.analyze_program ~safe ~whole:true app.Tk.Core.interp
      [ (Some "test.tcl", src) ]
  in
  List.map (fun (_, d) -> d.Tcl.Lint.message) out.Tcl.Lint.o_diags

(* Each fixture: (name, safe?, script, expected substring). *)
let whole_defect_fixtures =
  [
    ( "unreachable procedure",
      false,
      "proc orphan {} {return 1}\nputs hi",
      "procedure \"orphan\" is defined but never called" );
    ( "direct infinite recursion",
      false,
      "proc loopy {} {loopy}\nloopy",
      "\"loopy\" unconditionally calls \"loopy\": infinite recursion is \
       guaranteed" );
    ( "mutual infinite recursion",
      false,
      "proc ping {} {pong}\nproc pong {} {ping}\nping",
      "infinite recursion is guaranteed" );
    ( "divide by zero in expr",
      false,
      "set x [expr {1 / 0}]",
      "divide by zero" );
    ( "divide by zero through a constant variable",
      false,
      "set d 0\nexpr {10 / $d}",
      "divide by zero" );
    ( "mod by zero",
      false,
      "expr {5 % 0}",
      "divide by zero" );
    ( "float fed to an integer operator",
      false,
      "expr {1.5 % 2}",
      "expected integer but got \"1.5\"" );
    ( "non-numeric operand",
      false,
      "expr {\"abc\" + 1}",
      "expected number but got \"abc\"" );
    ( "non-boolean constant condition",
      false,
      "if {\"xyz\"} {puts hi}",
      "expected boolean value but got \"xyz\"" );
    ( "incr of a constant string",
      false,
      "set s hello\nincr s",
      "expected integer but got \"hello\" (reading value of variable \"s\" \
       to increment)" );
    ( "incr with a non-integer increment",
      false,
      "set i 0\nincr i 1.5",
      "expected integer but got \"1.5\" (reading increment)" );
    ( "incr of a kind that survives an unrelated branch",
      false,
      "set x ok\nif {[info exists y]} {puts maybe}\nincr x",
      "expected integer but got \"ok\"" );
    ( "constant lindex out of range",
      false,
      "lindex {a b c} 5",
      "constant index 5 is out of range for this 3-element list" );
    ( "dead code after a constant-true while",
      false,
      "while 1 {set spin 1}\nputs x",
      "unreachable command after \"while\"" );
    ( "dead code after an if whose arms all return",
      false,
      "proc p {x} {\n  if {$x} {return 1} else {return 0}\n  puts x\n}\np 1",
      "unreachable command after \"if\"" );
    ( "interprocedural use-before-set via upvar",
      false,
      "proc reader {} {\n  upvar 1 q local\n  puts $local\n}\n\
       proc caller {} {reader}\ncaller",
      "\"q\" may be used before being set in procedure \"caller\" (read via \
       upvar by \"reader\")" );
    ( "safe: direct hidden command",
      true,
      "exec ls",
      "hidden command \"exec\" would be denied in a safe interpreter" );
    ( "safe: hidden command inside a reachable proc",
      true,
      "proc cleanup {} {exec rm -f /tmp/x}\ncleanup",
      "hidden command \"exec\" would be denied in a safe interpreter" );
    ( "safe: aliased hidden command",
      true,
      "interp alias {} bye {} exit\nproc q {} {bye}\nq",
      "\"bye\" is an alias for hidden command \"exit\" and would be denied \
       in a safe interpreter" );
    ( "safe: hidden command under constant eval",
      true,
      "eval {exec ls}",
      "hidden command \"exec\" would be denied in a safe interpreter" );
    ( "safe: hidden command in a deferred after script",
      true,
      "proc attack {} {exit 7}\nafter 10 attack",
      "hidden command \"exit\" would be denied in a safe interpreter" );
    ( "send misspelled subcommand",
      false,
      "send wiat h",
      "\"wiat\" is not a send subcommand (did you mean \"wait\"?)" );
    ( "send misspelled option",
      false,
      "send -asinc calc {set x 1}",
      "bad option \"-asinc\"" );
    ( "send wait arity",
      false,
      "send wait",
      "wrong # args: should be \"send" );
    ( "send result misspelling",
      false,
      "send reslut h",
      "did you mean \"result\"" );
  ]

let whole_defect_tests =
  List.map
    (fun (name, safe, script, needle) ->
      ( name,
        fun () ->
          let _, app = fresh_app () in
          let found = lint_whole ~safe app script in
          if not (List.exists (contains ~needle) found) then
            Alcotest.failf "expected a diagnostic containing %S, got: %s"
              needle
              (String.concat " | " found) ))
    whole_defect_fixtures

(* Whole-program mode must stay quiet on these: reachability through
   mentions (callbacks, aliases), conditional recursion, terminators
   that only may fire, and hidden commands in provably dead code. *)
let whole_clean_fixtures =
  [
    ( "callback reference keeps a proc reachable",
      false,
      "proc cb {} {puts pressed}\nbutton .b -command cb" );
    ( "conditional recursion is not infinite recursion",
      false,
      "proc fact {n} {\n  if {$n < 2} {return 1}\n\
       \  return [expr $n * [fact [expr $n - 1]]]\n}\nfact 5" );
    ( "catch of an error does not kill the rest of the script",
      false,
      "catch {error boom}\nputs ok" );
    ( "a constant-false branch does not kill the rest of the script",
      false,
      "if {0} {error boom}\nputs ok" );
    ( "a loop body break does not kill code after the loop",
      false,
      "while 1 {\n  break\n}\nputs ok" );
    ( "safe: hidden command in an unreported dead branch",
      true,
      "if {0} {exec ls}\nputs ok" );
    ( "alias target mention keeps the proc live",
      false,
      "interp create worker\nproc respond {q} {return yes}\n\
       interp alias worker ask {} respond\ninterp delete worker" );
    ( "kinds reset across unknown branches",
      false,
      "set x 1\nif {[info exists y]} {set x hello}\nputs $x" );
  ]

let whole_clean_tests =
  List.map
    (fun (name, safe, script) ->
      ( name,
        fun () ->
          let _, app = fresh_app () in
          match lint_whole ~safe app script with
          | [] -> ()
          | found ->
            Alcotest.failf "false positive on %S: %s" script
              (String.concat " | " found) ))
    whole_clean_fixtures

(* Script-local [analyze] (the [lint] command, in-editor use) must not
   produce whole-program-only reports: a lone fragment defining helpers
   it never calls is normal. *)
let scope_tests =
  [
    ( "analyze does not report unreachable procs",
      fun () ->
        let _, app = fresh_app () in
        match messages (lint app "proc helper {} {return 1}") with
        | [] -> ()
        | found ->
          Alcotest.failf "script-local analyze leaked whole-program \
                          reports: %s"
            (String.concat " | " found) );
    ( "multi-file: procs resolve across files",
      fun () ->
        let _, app = fresh_app () in
        let out =
          Tcl.Lint.analyze_program ~whole:true app.Tk.Core.interp
            [
              (Some "lib.tcl", "proc two {a b} {return $a}");
              (Some "main.tcl", "two 1 2 3");
            ]
        in
        let arity =
          List.filter
            (fun (f, d) ->
              f = Some "main.tcl"
              && contains ~needle:"called \"two\" with too many arguments"
                   d.Tcl.Lint.message)
            out.Tcl.Lint.o_diags
        in
        check_int "arity error attributed to the calling file" 1
          (List.length arity);
        check_bool "call graph saw the cross-file edge" true
          (out.Tcl.Lint.o_edges > 0);
        check_int "both procs counted" 1 out.Tcl.Lint.o_procs );
  ]

(* lint -safe over PR 7's hostile storm scripts: every hidden
   invocation reported, nothing executed, the interpreter unharmed. *)
let safe_non_execution_tests =
  [
    ( "lint -safe executes nothing on a hostile script",
      fun () ->
        let _, app = fresh_app () in
        let out =
          run app
            "lint -safe {proc attack {} {exit 7}\nafter 10 attack\n\
             while 1 {after 1}}"
        in
        check_bool "exit flagged" true
          (contains ~needle:"hidden command \"exit\"" out);
        check_string "interp alive afterwards" "4" (run app "expr 2+2") );
    ( "lint -safe flags an aliased hidden command without executing",
      fun () ->
        let _, app = fresh_app () in
        let out =
          run app "lint -safe {interp alias {} leave {} exit\nleave}"
        in
        check_bool "alias flagged" true
          (contains
             ~needle:"\"leave\" is an alias for hidden command \"exit\"" out);
        check_bool "no alias actually created" false
          (Tcl.Interp.command_exists app.Tk.Core.interp "leave") );
  ]

let () =
  let wrap = List.map (fun (n, f) -> Alcotest.test_case n `Quick f) in
  Alcotest.run "lint"
    [
      ("seeded defects", wrap defect_tests);
      ("clean corpus", wrap clean_tests);
      ( "examples sweep",
        wrap [ ("every examples/*.tcl lints clean", examples_sweep) ] );
      ("lint command", wrap lint_command_tests);
      ("non-execution", wrap non_execution_tests);
      ("whole-program defects", wrap whole_defect_tests);
      ("whole-program clean", wrap whole_clean_tests);
      ("analysis scope", wrap scope_tests);
      ("safe and seed", wrap safe_non_execution_tests);
      ("shared messages", wrap shared_message_tests);
      ( "runtime writes",
        wrap
          [
            ( "no use-before-set warning for a variable the runtime set",
              lint_agrees_with_runtime_writes );
          ] );
      ("info complete", wrap info_complete_tests);
      ("metrics", wrap metrics_tests);
    ]
