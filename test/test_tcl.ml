(* Tests for the Tcl substrate: parser, substitution, control flow,
   procedures, expressions, lists, strings, introspection. *)

let new_interp () = Tcl.Builtins.new_interp ()

(* Evaluate and expect success. *)
let run tcl script =
  match Tcl.Interp.eval_value tcl script with
  | Ok v -> v
  | Error msg -> Alcotest.failf "script %S failed: %s" script msg

let run_fresh script = run (new_interp ()) script

let expect_error tcl script =
  match Tcl.Interp.eval_value tcl script with
  | Ok v -> Alcotest.failf "script %S unexpectedly succeeded with %S" script v
  | Error msg -> msg

let check_eval ?interp script expected () =
  let tcl = match interp with Some t -> t | None -> new_interp () in
  Alcotest.(check string) script expected (run tcl script)

let contains ~needle haystack =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* ------------------------------------------------------------------ *)
(* Figures 1-5: syntax *)

let syntax_tests =
  [
    ("simple command (Fig 1)", check_eval "set a 1000" "1000");
    ("semicolon separates commands (Fig 1)",
     check_eval "set a 1; set b 2; set a" "1");
    ("newline separates commands", check_eval "set a 1\nset b 2\nset b" "2");
    ("double quotes group (Fig 2)", check_eval {|set msg "Hello, world"|} "Hello, world");
    ("braces group (Fig 2)", check_eval "set x {a b {x1 x2}}" "a b {x1 x2}");
    ("braces suppress substitution", check_eval {|set a 5; set b {$a}|} "$a");
    ("quotes allow substitution", check_eval {|set a 5; set b "$a!"|} "5!");
    ("dollar substitution (Fig 3)", check_eval "set msg hi; set x $msg" "hi");
    ("braced variable name", check_eval "set ab 7; set x ${ab}" "7");
    ("bracket substitution (Fig 4)",
     check_eval "set x [set y 42]" "42");
    ("nested bracket substitution",
     check_eval "set x [set y [set z 9]]" "9");
    ("bracket result spliced into word",
     check_eval "set y 5; set x a[set y]b" "a5b");
    ("backslash escapes dollar (Fig 5)", check_eval {|set x \$a|} "$a");
    ("backslash newline in command",
     check_eval "set x \\\n 77" "77");
    ("backslash n", check_eval {|set x a\nb|} "a\nb");
    ("backslash hex", check_eval {|set x \x41|} "A");
    ("backslash octal", check_eval {|set x \101|} "A");
    ("comment at command start", check_eval "# a comment\nset x 3" "3");
    ("semicolon inside braces is literal",
     check_eval "set x {a;b}" "a;b");
    ("lone dollar is literal", check_eval "set x a$; set x" "a$");
    ("empty script yields empty", check_eval "" "");
    ("whitespace-only script", check_eval "  \n\t " "");
    ("array element set/get", check_eval "set a(1) x; set a(1)" "x");
    ("array index substitution",
     check_eval "set i 3; set a(3) v; set x $a($i)" "v");
    ("command substitution in array index",
     check_eval "set a(5) w; set x $a([expr 2+3])" "w");
  ]

let syntax_error_tests =
  [
    ( "missing close brace",
      fun () ->
        let msg = expect_error (new_interp ()) "set x {abc" in
        Alcotest.(check bool) "mentions brace" true (contains ~needle:"brace" msg) );
    ( "missing close quote",
      fun () ->
        let msg = expect_error (new_interp ()) "set x \"abc" in
        Alcotest.(check bool) "mentions quote" true (contains ~needle:"quote" msg) );
    ( "extra chars after brace",
      fun () ->
        let msg = expect_error (new_interp ()) "set x {a}b" in
        Alcotest.(check bool) "mentions extra" true (contains ~needle:"extra" msg) );
    ( "unknown command",
      fun () ->
        let msg = expect_error (new_interp ()) "definitely_not_a_command" in
        Alcotest.(check bool) "invalid command" true
          (contains ~needle:"invalid command name" msg) );
    ( "unset variable read",
      fun () ->
        let msg = expect_error (new_interp ()) "set x $nope" in
        Alcotest.(check bool) "can't read" true (contains ~needle:"can't read" msg) );
  ]

(* ------------------------------------------------------------------ *)
(* Control flow *)

let control_tests =
  [
    ("if true branch", check_eval "if 1 {set x yes} {set x no}" "yes");
    ("if false branch", check_eval "if 0 {set x yes} {set x no}" "no");
    ("if with then/else keywords",
     check_eval "if 0 then {set x a} else {set x b}" "b");
    ("if elseif chain",
     check_eval "set i 2; if {$i == 1} {set x a} elseif {$i == 2} {set x b} else {set x c}" "b");
    ("if with expression (Fig 3)",
     check_eval "set i 1; if $i<2 {set j 43}; set j" "43");
    ("if no else, false", check_eval "if 0 {set x y}" "");
    ("while loop", check_eval "set i 0; while {$i < 5} {incr i}; set i" "5");
    ("while with break",
     check_eval "set i 0; while 1 {incr i; if {$i >= 3} {break}}; set i" "3");
    ("while with continue",
     check_eval
       "set i 0; set n 0; while {$i < 5} {incr i; if {$i == 2} {continue}; incr n}; set n"
       "4");
    ("for loop",
     check_eval "set s 0; for {set i 1} {$i <= 4} {incr i} {incr s $i}; set s" "10");
    ("foreach", check_eval "set s x; foreach i {a b c} {append s $i}; set s" "xabc");
    ("foreach with braced elements",
     check_eval "set n 0; foreach i {a {b c} d} {incr n}; set n" "3");
    ("nested loops and break",
     check_eval
       "set n 0; foreach i {1 2 3} {foreach j {1 2 3} {if {$j == 2} break; incr n}}; set n"
       "3");
    ("catch ok is 0", check_eval "catch {set x 1}" "0");
    ("catch error is 1", check_eval "catch {error boom}" "1");
    ("catch stores message",
     check_eval "catch {error boom} msg; set msg" "boom");
    ("catch break is 3", check_eval "catch {break}" "3");
    ("catch return is 2", check_eval "catch {return abc}" "2");
    ("error propagates",
     fun () ->
       let msg = expect_error (new_interp ()) "if 1 {error deep}" in
       Alcotest.(check bool) "msg" true (contains ~needle:"deep" msg));
    ("eval concatenates args", check_eval "eval set x 5; set x" "5");
    ("eval a built script",
     check_eval "set cmd {set y 12}; eval $cmd; set y" "12");
    ("errorInfo records a stack trace",
     fun () ->
       let tcl = new_interp () in
       ignore (expect_error tcl "proc deep {} {error kaboom}\nproc mid {} {deep}\nmid");
       let info = run tcl "set errorInfo" in
       Alcotest.(check bool) "has message" true (contains ~needle:"kaboom" info);
       Alcotest.(check bool) "has while-executing" true
         (contains ~needle:"while executing" info);
       Alcotest.(check bool) "mentions deep" true (contains ~needle:"deep" info));
    ("errorInfo resets on a new error",
     fun () ->
       let tcl = new_interp () in
       ignore (expect_error tcl "error first");
       ignore (expect_error tcl "error second");
       let info = run tcl "set errorInfo" in
       Alcotest.(check bool) "second error" true (contains ~needle:"second" info);
       Alcotest.(check bool) "first gone" false (contains ~needle:"first" info));
    ("catch marks the error handled",
     check_eval "catch {error inner}; set x after; set x" "after");
    ("catch leaves errorInfo readable",
     fun () ->
       let tcl = new_interp () in
       ignore (run tcl "proc deep {} {error kapow}\ncatch {deep}");
       let info = run tcl "set errorInfo" in
       Alcotest.(check bool) "has message" true (contains ~needle:"kapow" info);
       Alcotest.(check bool) "has while-executing" true
         (contains ~needle:"while executing" info));
    ("info errorinfo returns the stack trace",
     fun () ->
       let tcl = new_interp () in
       Alcotest.(check string) "empty before any error" ""
         (run tcl "info errorinfo");
       ignore (run tcl "catch {error whammo}");
       let info = run tcl "info errorinfo" in
       Alcotest.(check bool) "matches the variable" true
         (info = run tcl "set errorInfo");
       Alcotest.(check bool) "has message" true
         (contains ~needle:"whammo" info));
  ]

(* ------------------------------------------------------------------ *)
(* Procedures, scopes *)

let proc_tests =
  [
    ("simple proc", check_eval "proc double {x} {expr $x * 2}; double 21" "42");
    ("proc implicit return value",
     check_eval "proc f {} {set a 1; set b 2}; f" "2");
    ("proc explicit return",
     check_eval "proc f {} {return early; set x late}; f" "early");
    ("proc default argument",
     check_eval "proc greet {{who world}} {return hi-$who}; greet" "hi-world");
    ("proc default overridden",
     check_eval "proc greet {{who world}} {return hi-$who}; greet tcl" "hi-tcl");
    ("proc args collector",
     check_eval "proc count {args} {llength $args}; count a b c d" "4");
    ("proc args empty", check_eval "proc count {args} {llength $args}; count" "0");
    ("locals do not leak",
     check_eval "set x outer; proc f {} {set x inner}; f; set x" "outer");
    ("global links variables",
     check_eval "set g 1; proc f {} {global g; set g 2}; f; set g" "2");
    ("upvar modifies caller's variable",
     check_eval
       "proc bump {name} {upvar $name v; incr v}; set n 7; bump n; set n" "8");
    ("upvar two levels",
     check_eval
       "proc outer {} {set local 5; inner; return $local}\n\
        proc inner {} {upvar 1 local x; incr x 10}\n\
        outer"
       "15");
    ("uplevel executes in caller scope",
     check_eval
       "proc setter {} {uplevel {set z 99}}; proc caller {} {setter; set z}; caller"
       "99");
    ("uplevel #0 reaches global",
     check_eval "proc f {} {uplevel #0 {set gg 5}}; f; set gg" "5");
    ("recursion: factorial",
     check_eval
       "proc fact {n} {if {$n <= 1} {return 1}; expr {$n * [fact [expr $n-1]]}}; fact 6"
       "720");
    ("recursion: fibonacci",
     check_eval
       "proc fib {n} {if {$n < 2} {return $n}; expr {[fib [expr $n-1]] + [fib [expr $n-2]]}}; fib 10"
       "55");
    ("too few arguments",
     fun () ->
       let msg = expect_error (new_interp ()) "proc f {a b} {}; f 1" in
       Alcotest.(check bool) "msg" true (contains ~needle:"no value given" msg));
    ("too many arguments",
     fun () ->
       let msg = expect_error (new_interp ()) "proc f {a} {}; f 1 2" in
       Alcotest.(check bool) "msg" true (contains ~needle:"too many" msg));
    ("rename proc",
     check_eval "proc f {} {return ok}; rename f g; g" "ok");
    ("rename to empty deletes",
     fun () ->
       let tcl = new_interp () in
       ignore (run tcl "proc f {} {return ok}; rename f {}");
       let msg = expect_error tcl "f" in
       Alcotest.(check bool) "deleted" true
         (contains ~needle:"invalid command name" msg));
    ("unknown handler invoked",
     check_eval
       "proc unknown {args} {return handled:[lindex $args 0]}; nosuchcmd x y"
       "handled:nosuchcmd");
    ("infinite recursion is caught",
     fun () ->
       let msg = expect_error (new_interp ()) "proc f {} {f}; f" in
       Alcotest.(check bool) "nested" true (contains ~needle:"nested" msg));
  ]

(* ------------------------------------------------------------------ *)
(* Expressions *)

let expr_case script expected = (script, check_eval script expected)

let expr_tests =
  List.map
    (fun (s, e) -> expr_case ("expr {" ^ s ^ "}") e)
    [
      ("1 + 2", "3");
      ("10 - 4 - 3", "3");
      ("2 + 3 * 4", "14");
      ("(2 + 3) * 4", "20");
      ("7 / 2", "3");
      ("-7 / 2", "-4");
      ("7 % 3", "1");
      ("-7 % 3", "2");
      ("1 << 4", "16");
      ("256 >> 2", "64");
      ("5 & 3", "1");
      ("5 | 3", "7");
      ("5 ^ 3", "6");
      ("~0", "-1");
      ("!0", "1");
      ("!5", "0");
      ("1 && 0", "0");
      ("1 || 0", "1");
      ("0 || 0", "0");
      ("1 < 2", "1");
      ("2 <= 2", "1");
      ("3 > 4", "0");
      ("3 >= 3", "1");
      ("3 == 3", "1");
      ("3 != 3", "0");
      ("1 ? 10 : 20", "10");
      ("0 ? 10 : 20", "20");
      ("1.5 + 1.5", "3.0");
      ("1.0 / 4", "0.25");
      ("2 < 10", "1");
      ("\"abc\" == \"abc\"", "1");
      ("\"abc\" < \"abd\"", "1");
      ("abs(-5)", "5");
      ("int(3.7)", "3");
      ("round(3.7)", "4");
      ("double(2)", "2.0");
      ("sqrt(16.0)", "4.0");
      ("pow(2, 10)", "1024.0");
      ("0x10 + 1", "17");
      ("1e2 + 1", "101.0");
    ]
  @ [
      ("expr with variables",
       check_eval "set a 4; set b 3; expr {$a * $b}" "12");
      ("expr with command substitution",
       check_eval "proc five {} {return 5}; expr {[five] + 1}" "6");
      ("expr unbraced gets double substitution",
       check_eval "set a 2; expr $a+$a" "4");
      ("short-circuit && skips command",
       check_eval "set n 0; proc bump {} {global n; incr n}; expr {0 && [bump]}; set n" "0");
      ("short-circuit || skips command",
       check_eval "set n 0; proc bump {} {global n; incr n}; expr {1 || [bump]}; set n" "0");
      ("divide by zero",
       fun () ->
         let msg = expect_error (new_interp ()) "expr {1 / 0}" in
         Alcotest.(check bool) "msg" true (contains ~needle:"divide by zero" msg));
      ("ternary chooses lazily-parsed branch",
       check_eval "expr {1 ? 2 : 3}" "2");
      ("boolean words", check_eval "expr {true && !false}" "1");
    ]

(* ------------------------------------------------------------------ *)
(* Lists *)

let list_tests =
  [
    ("list builds quoted list", check_eval "list a {b c} d" "a {b c} d");
    ("list quotes empty element", check_eval "list a {} b" "a {} b");
    ("list quotes spaces", check_eval {|list "x y"|} "{x y}");
    ("lindex", check_eval "lindex {a b c} 1" "b");
    ("lindex end", check_eval "lindex {a b c} end" "c");
    ("lindex out of range", check_eval "lindex {a b c} 9" "");
    ("lindex negative index", check_eval "lindex {a b c} -1" "");
    ("lrange inverted bounds", check_eval "lrange {a b c} 2 0" "");
    ("llength", check_eval "llength {a {b c} d}" "3");
    ("llength empty", check_eval "llength {}" "0");
    ("lrange", check_eval "lrange {a b c d e} 1 3" "b c d");
    ("lrange end", check_eval "lrange {a b c d} 2 end" "c d");
    ("lappend creates", check_eval "lappend l a b; set l" "a b");
    ("lappend extends", check_eval "set l {x}; lappend l y z" "x y z");
    ("lappend quotes", check_eval "lappend l {a b}; set l" "{a b}");
    ("linsert", check_eval "linsert {a c} 1 b" "a b c");
    ("linsert at end", check_eval "linsert {a b} end x" "a x b");
    ("lreplace", check_eval "lreplace {a b c d} 1 2 X Y Z" "a X Y Z d");
    ("lreplace delete", check_eval "lreplace {a b c} 1 1" "a c");
    ("lsearch found", check_eval "lsearch {a b c} b" "1");
    ("lsearch missing", check_eval "lsearch {a b c} z" "-1");
    ("lsearch glob", check_eval "lsearch {foo bar baz} b*" "1");
    ("lsearch exact", check_eval "lsearch -exact {foo b* bar} b*" "1");
    ("lsort ascii", check_eval "lsort {banana apple cherry}" "apple banana cherry");
    ("lsort integer", check_eval "lsort -integer {10 9 100 1}" "1 9 10 100");
    ("lsort decreasing", check_eval "lsort -decreasing {a c b}" "c b a");
    ("lsort real", check_eval "lsort -real {2.5 1.5 10.25}" "1.5 2.5 10.25");
    ("concat", check_eval "concat a {b c} { d }" "a b c d");
    ("split default", check_eval "split {a b  c}" "a b {} c");
    ("split on char", check_eval "split a:b:c :" "a b c");
    ("split every char", check_eval "split abc {}" "a b c");
    ("join default", check_eval "join {a b c}" "a b c");
    ("join with sep", check_eval "join {a b c} -" "a-b-c");
    ("legacy index alias (Fig 9)", check_eval "index {x y z} 0" "x");
    ("nested list extraction",
     check_eval "lindex [lindex {a {b c} d} 1] 1" "c");
  ]

(* Property: format/parse round-trip. *)
let list_roundtrip =
  QCheck.Test.make ~name:"tcl list format/parse roundtrip" ~count:500
    QCheck.(small_list (string_gen_of_size (Gen.int_bound 8) Gen.printable))
    (fun elements ->
      match Tcl.Tcl_list.parse (Tcl.Tcl_list.format elements) with
      | Ok parsed -> parsed = elements
      | Error _ -> false)

let quote_element_roundtrip =
  QCheck.Test.make ~name:"quote_element embeds any single element" ~count:500
    QCheck.(string_gen_of_size (Gen.int_bound 20) Gen.printable)
    (fun e ->
      match Tcl.Tcl_list.parse (Tcl.Tcl_list.quote_element e) with
      | Ok [ e' ] -> e' = e
      | Ok [] -> e = "" (* impossible: quote wraps empties in braces *)
      | _ -> false)

(* ------------------------------------------------------------------ *)
(* Strings, format, scan *)

let string_tests =
  [
    ("string length", check_eval "string length hello" "5");
    ("string index", check_eval "string index hello 1" "e");
    ("string index end", check_eval "string index hello end" "o");
    ("string range", check_eval "string range hello 1 3" "ell");
    ("string range end", check_eval "string range hello 2 end" "llo");
    ("string compare equal", check_eval "string compare abc abc" "0");
    ("string compare less", check_eval "string compare abc abd" "-1");
    ("string match star", check_eval "string match *.c foo.c" "1");
    ("string match question", check_eval "string match a?c abc" "1");
    ("string match set", check_eval "string match {[a-c]x} bx" "1");
    ("string match no", check_eval "string match *.c foo.h" "0");
    ("string tolower", check_eval "string tolower ABC" "abc");
    ("string toupper", check_eval "string toupper abc" "ABC");
    ("string trim", check_eval "string trim {  hi  }" "hi");
    ("string trimleft", check_eval "string trimleft xxhix x" "hix");
    ("string first", check_eval "string first lo hello" "3");
    ("string last", check_eval "string last l hello" "3");
    ("format %s (Fig 4)", check_eval {|format "x is %s" 4|} "x is 4");
    ("format %d", check_eval "format %d 42" "42");
    ("format width", check_eval "format %5d 42" "   42");
    ("format left align", check_eval "format %-5d| 42" "42   |");
    ("format zero pad", check_eval "format %05d 42" "00042");
    ("format hex", check_eval "format %x 255" "ff");
    ("format HEX alt", check_eval "format %#X 255" "0xFF");
    ("format float", check_eval "format %.2f 3.14159" "3.14");
    ("format %c", check_eval "format %c 65" "A");
    ("format percent", check_eval "format 100%% {}" "100%");
    ("format star width", check_eval "format %*d 6 42" "    42");
    ("format multiple", check_eval {|format "%s=%d" x 7|} "x=7");
    ("scan %d", check_eval "scan {x 42 y} {x %d} v; set v" "42");
    ("scan multiple", check_eval "scan {3 4} {%d %d} a b; set b" "4");
    ("scan returns count", check_eval "scan {10 20} {%d %d} a b" "2");
    ("scan %s", check_eval "scan {hello world} {%s} w; set w" "hello");
    ("scan %x", check_eval "scan ff %x v; set v" "255");
  ]

(* Glob property: glob pattern with only literals behaves like equality. *)
let glob_literal =
  QCheck.Test.make ~name:"glob literal pattern equals equality" ~count:300
    QCheck.(
      pair
        (string_gen_of_size (Gen.int_bound 12) (Gen.char_range 'a' 'z'))
        (string_gen_of_size (Gen.int_bound 12) (Gen.char_range 'a' 'z')))
    (fun (pattern, s) ->
      Tcl.Glob.matches ~pattern s = (pattern = s))

let glob_star_prefix =
  QCheck.Test.make ~name:"glob star matches any suffix" ~count:300
    QCheck.(
      pair
        (string_gen_of_size (Gen.int_bound 8) (Gen.char_range 'a' 'z'))
        (string_gen_of_size (Gen.int_bound 8) (Gen.char_range 'a' 'z')))
    (fun (prefix, suffix) ->
      Tcl.Glob.matches ~pattern:(prefix ^ "*") (prefix ^ suffix))

(* ------------------------------------------------------------------ *)
(* Introspection *)

let info_tests =
  [
    ("info exists true", check_eval "set x 1; info exists x" "1");
    ("info exists false", check_eval "info exists nope" "0");
    ("info body returns the body",
     check_eval "proc f {} {return 1}; info body f" "return 1");
    ("info args", check_eval "proc f {a b} {}; info args f" "a b");
    ("info default with default",
     check_eval "proc f {{a 5}} {}; info default f a v; set v" "5");
    ("info procs lists procs",
     check_eval "proc myproc {} {}; lsearch [info procs] myproc; expr {[lsearch [info procs] myproc] >= 0}" "1");
    ("info commands includes set",
     check_eval "expr {[lsearch [info commands] set] >= 0}" "1");
    ("info level at top", check_eval "info level" "0");
    ("info level in proc", check_eval "proc f {} {info level}; f" "1");
    ("info vars sees local",
     check_eval "proc f {} {set loc 1; info vars}; f" "loc");
    ("info cmdcount grows",
     fun () ->
       let tcl = new_interp () in
       let a = int_of_string (run tcl "info cmdcount") in
       let b = int_of_string (run tcl "set x 1; info cmdcount") in
       Alcotest.(check bool) "grows" true (b > a));
    ("commands can be created dynamically (paper §2)",
     check_eval
       "proc make {name n} {proc $name {} [list return $n]}; make answer 42; answer"
       "42");
    ("programs as data: synthesize and run (paper §2)",
     check_eval
       "set prog {}; foreach i {1 2 3} {append prog \"lappend out $i\\n\"}; eval $prog; set out"
       "1 2 3");
  ]

(* ------------------------------------------------------------------ *)
(* file / glob / misc *)

let file_tests =
  [
    ("file tail", check_eval "file tail /a/b/c.txt" "c.txt");
    ("file dirname", check_eval "file dirname /a/b/c.txt" "/a/b");
    ("file extension", check_eval "file extension foo.tar.gz" ".gz");
    ("file rootname", check_eval "file rootname foo.txt" "foo");
    ("file exists yes (legacy order, Fig 9)",
     fun () ->
       let tcl = new_interp () in
       Alcotest.(check string) "exists" "1" (run tcl "file . isdirectory"));
    ("file isfile on directory", check_eval "file isfile ." "0");
    ("time returns microseconds",
     fun () ->
       let tcl = new_interp () in
       let out = run tcl "time {set x 1} 10" in
       Alcotest.(check bool) "format" true
         (contains ~needle:"microseconds per iteration" out));
    ("output capture via print",
     fun () ->
       let tcl = new_interp () in
       let buf = Buffer.create 16 in
       Tcl.Interp.set_output tcl (Buffer.add_string buf);
       ignore (run tcl {|print "hi\n"|});
       Alcotest.(check string) "output" "hi\n" (Buffer.contents buf));
    ("puts appends newline",
     fun () ->
       let tcl = new_interp () in
       let buf = Buffer.create 16 in
       Tcl.Interp.set_output tcl (Buffer.add_string buf);
       ignore (run tcl "puts hello");
       Alcotest.(check string) "output" "hello\n" (Buffer.contents buf));
    ("file channels: write then read back",
     fun () ->
       let tcl = new_interp () in
       let path = Filename.temp_file "tclchan" ".txt" in
       Tcl.Interp.set_var tcl "path" path;
       ignore
         (run tcl
            "set f [open $path w]; puts $f line1; puts -nonewline $f line2; \
             close $f");
       Alcotest.(check string) "read all" "line1\nline2"
         (run tcl "set f [open $path r]; set d [read $f]; close $f; set d");
       Sys.remove path);
    ("gets reads lines and reports eof",
     fun () ->
       let tcl = new_interp () in
       let path = Filename.temp_file "tclchan" ".txt" in
       Tcl.Interp.set_var tcl "path" path;
       ignore (run tcl "set f [open $path w]; puts $f a; puts $f bb; close $f");
       ignore (run tcl "set f [open $path r]");
       Alcotest.(check string) "first" "1" (run tcl "gets $f l");
       Alcotest.(check string) "line" "a" (run tcl "set l");
       Alcotest.(check string) "second" "2" (run tcl "gets $f l");
       Alcotest.(check string) "eof count" "-1" (run tcl "gets $f l");
       ignore (run tcl "close $f");
       Sys.remove path);
    ("append mode",
     fun () ->
       let tcl = new_interp () in
       let path = Filename.temp_file "tclchan" ".txt" in
       Tcl.Interp.set_var tcl "path" path;
       ignore (run tcl "set f [open $path w]; puts -nonewline $f ab; close $f");
       ignore (run tcl "set f [open $path a]; puts -nonewline $f cd; close $f");
       Alcotest.(check string) "appended" "abcd"
         (run tcl "set f [open $path r]; set d [read $f]; close $f; set d");
       Sys.remove path);
    ("closed channel is an error",
     fun () ->
       let tcl = new_interp () in
       let msg = expect_error tcl "read file99" in
       Alcotest.(check bool) "isn't open" true
         (contains ~needle:"isn't open" msg));
    ("reading a write channel is an error",
     fun () ->
       let tcl = new_interp () in
       let path = Filename.temp_file "tclchan" ".txt" in
       Tcl.Interp.set_var tcl "path" path;
       ignore (run tcl "set f [open $path w]");
       let msg = expect_error tcl "read $f" in
       ignore (run tcl "close $f");
       Sys.remove path;
       Alcotest.(check bool) "wasn't opened for reading" true
         (contains ~needle:"for reading" msg));
    ("channel lookups do not keep the interpreter alive",
     fun () ->
       (* Channels live on the interpreter that opened them, so an
          interpreter that merely looked one up is garbage once dropped. *)
       let n = 200 in
       let live = Weak.create n in
       for i = 0 to n - 1 do
         let tcl = new_interp () in
         ignore (Tcl.Interp.eval tcl "catch {eof file3}");
         Weak.set live i (Some tcl)
       done;
       Gc.full_major ();
       let survivors = ref 0 in
       for i = 0 to n - 1 do
         if Weak.check live i then incr survivors
       done;
       Alcotest.(check int) "interpreters still reachable" 0 !survivors);
    ("exec & with no program is a usage error",
     check_eval "catch {exec &} m; set m"
       "wrong # args: should be \"exec arg ?arg ...?\"");
  ]

(* ------------------------------------------------------------------ *)
(* Edge cases: arrays, scoping, quoting *)

let edge_tests =
  [
    ("unset array element",
     check_eval "set a(x) 1; set a(y) 2; unset a(x); array names a" "y");
    ("unset whole array",
     check_eval "set a(x) 1; unset a; info exists a" "0");
    ("append to array element",
     check_eval "set a(k) ab; append a(k) cd; set a(k)" "abcd");
    ("incr array element",
     check_eval "set a(n) 5; incr a(n) 2; set a(n)" "7");
    ("lappend to array element",
     check_eval "lappend a(l) x; lappend a(l) y; set a(l)" "x y");
    ("array element with spaces in index",
     (* The reference must be brace-quoted or the space splits the word,
        exactly as in real Tcl. *)
     check_eval "set i {two words}; set a($i) v; set {a(two words)}" "v");
    ("scalar/array collision errors",
     fun () ->
       let msg = expect_error (new_interp ()) "set s 1; set s(x) 2" in
       Alcotest.(check bool) "isn't array" true
         (contains ~needle:"isn't array" msg));
    ("array used as scalar errors",
     fun () ->
       let msg = expect_error (new_interp ()) "set a(x) 1; set a 2" in
       Alcotest.(check bool) "is array" true
         (contains ~needle:"is array" msg));
    ("upvar to array element",
     check_eval
       "set a(k) 1; proc bump {name} {upvar $name v; incr v}; bump a(k); set a(k)"
       "2");
    ("unset through a link keeps the link",
     fun () ->
       List.iter
         (fun (script, expected) ->
           Alcotest.(check string) script expected (run_fresh script))
         [
           ("proc w {} {global h; set h 1; unset h; set h 7}; w; set h", "7");
           ("proc w {n} {upvar 1 $n v; set v 1; unset v; set v 2}; \
             proc c {} {w a; set a}; c", "2");
           ("proc w {n} {upvar 1 $n v; set v 1; unset v; set v 2}; \
             proc c {} {w a(k); set a(k)}; c", "2");
           ("proc w {} {upvar 1 nosuch v; list [catch {unset v} m] $m}; w",
            "1 {can't unset \"v\": no such variable}");
         ]);
    ("nested procs share globals via global",
     check_eval
       "set g 0; proc f {} {global g; incr g; g2}; proc g2 {} {global g; incr g}; f; set g"
       "2");
    ("uplevel relative numbers",
     check_eval
       "proc outer {} {set x outer-x; inner}\n\
        proc inner {} {uplevel 1 {set x changed}}\n\
        proc check {} {outer}\n\
        check"
       "changed");
    ("empty command result in substitution",
     check_eval "proc nothing {} {}; set x a[nothing]b" "ab");
    ("semicolon and brackets in braces survive",
     check_eval {|set x {a;b [c] $d}|} "a;b [c] $d");
    ("deeply nested brackets",
     check_eval "expr [expr [expr [expr 1+1]+1]+1]" "4");
    ("quotes inside braces are literal",
     check_eval {|set x {say "hi"}|} {|say "hi"|});
    ("braces inside quotes are literal",
     check_eval {|set x "a {b} c"|} "a {b} c");
    ("command name from substitution",
     check_eval "set cmd set; $cmd y 5; set y" "5");
    ("whitespace-heavy formatting",
     check_eval "   set   x   7  \n\n;  ;  set x" "7");
    ("rename builtin and call through new name",
     check_eval "rename set assign; assign z 9; rename assign set; set z" "9");
    ("catch of wrong # args",
     check_eval "catch {set}" "1");
    ("string toupper/tolower roundtrip",
     check_eval "string tolower [string toupper mIxEd]" "mixed");
    ("scan %c yields a character",
     check_eval "scan X %c ch; set ch" "X");
    ("format negative numbers with width",
     check_eval "format %05d -42" "-0042");
    ("format precision on strings",
     check_eval "format %.3s abcdef" "abc");
    ("split empty string", check_eval "llength [split {} :]" "1");
    ("join single element", check_eval "join {one} -" "one");
    ("expr with newlines inside braces",
     check_eval "expr {1 +\n 2}" "3");
    ("foreach over list with braces",
     check_eval "set n 0; foreach {x} {{a b} {c d}} {incr n}; set n" "2");
  ]

(* ------------------------------------------------------------------ *)
(* regexp / regsub / case / array *)

let regexp_tests =
  [
    ("literal match", check_eval "regexp abc xxabcxx" "1");
    ("literal non-match", check_eval "regexp abc xyz" "0");
    ("dot matches any", check_eval "regexp a.c {a9c}" "1");
    ("star", check_eval "regexp {ab*c} ac" "1");
    ("star many", check_eval "regexp {ab*c} abbbbc" "1");
    ("plus requires one", check_eval "regexp {ab+c} ac" "0");
    ("optional", check_eval "regexp {colou?r} color" "1");
    ("anchors ^$", check_eval "regexp {^abc$} abc" "1");
    ("anchor rejects prefix", check_eval "regexp {^bc} abc" "0");
    ("class", check_eval "regexp {[a-c]+x} bbacx" "1");
    ("negated class", check_eval {|regexp {[^0-9]} a1|} "1");
    ("negated class all digits", check_eval {|regexp {[^0-9]} 123|} "0");
    ("alternation", check_eval "regexp {cat|dog} hotdog" "1");
    ("group capture into variable",
     check_eval "regexp {([0-9]+)\\.([0-9]+)} {pi is 3.14} all major minor; set major" "3");
    ("whole match variable",
     check_eval "regexp {b+} abbbc m; set m" "bbb");
    ("indices option",
     check_eval "regexp -indices {b+} abbbc m; set m" "1 3");
    ("nocase option", check_eval "regexp -nocase ABC xxabcxx" "1");
    ("unmatched group gives empty",
     check_eval "regexp {(a)|(b)} a all ga gb; set gb" "");
    ("bad pattern errors",
     fun () ->
       let msg = expect_error (new_interp ()) "regexp {a(} x" in
       Alcotest.(check bool) "mentions compile" true
         (contains ~needle:"compile" msg));
    ("regsub single",
     check_eval "regsub dog {hot dog} cat out; set out" "hot cat");
    ("regsub returns count", check_eval "regsub -all o foo 0 out" "2");
    ("regsub all",
     check_eval "regsub -all {[0-9]+} {a1 b22 c333} N out; set out" "aN bN cN");
    ("regsub & inserts match",
     check_eval "regsub -all {[0-9]+} {x5} {<&>} out; set out" "x<5>");
    ("regsub group reference",
     check_eval "regsub {(a+)(b+)} aabbb {\\2\\1} out; set out" "bbbaa");
    ("regsub no match leaves string",
     fun () ->
       let tcl = new_interp () in
       Alcotest.(check string) "count" "0" (run tcl "regsub z abc X out");
       Alcotest.(check string) "unchanged" "abc" (run tcl "set out"));
    ("regsub nocase preserves original case elsewhere",
     check_eval "regsub -nocase ABC {xxAbCyy} Z out; set out" "xxZyy");
    ("regsub -nocase matches folded text and copies the original",
     fun () ->
       (* pattern subject template: count and result with -all -nocase,
          then with -nocase alone *)
       List.iter
         (fun (args, all, first) ->
           let sub flags =
             run_fresh
               (Printf.sprintf "list [regsub %s %s out] $out" flags args)
           in
           Alcotest.(check string) ("-all -nocase " ^ args) all
             (sub "-all -nocase");
           Alcotest.(check string) ("-nocase " ^ args) first (sub "-nocase"))
         [
           ("a* BaAb -", "4 -B--b-", "1 -BaAb");
           ("(b)(A) xBaBAy {<\\2\\1&>}", "2 x<aBBa><ABBA>y", "1 x<aBBa>BAy");
           ("x XxX {[&]}", "3 {[X][x][X]}", "1 {[X]xX}");
           ("{} Ab .", "3 .A.b.", "1 .Ab");
         ]);
    ("regsub -all restarts within the one subject",
     fun () ->
       (* pattern subject template: count and result; [^] anchors only
          at the subject's start, [$] only at its end *)
       List.iter
         (fun (args, expected) ->
           Alcotest.(check string) args expected
             (run_fresh (Printf.sprintf "list [regsub -all %s v] $v" args)))
         [
           ("{x*} abc -", "4 -a-b-c-");
           ("{a$} aaa x", "1 aax");
           ("^a aaa x", "1 xaa");
           ("{^} ab x", "1 xab");
           ("{^|b} abc -", "2 -a-c");
         ]);
    ("-- ends regexp's switches", check_eval "regexp -- -x -x" "1");
    ("a word that only starts with a dash stays a value",
     fun () ->
       List.iter
         (fun (script, expected) ->
           Alcotest.(check string) script expected (run_fresh script))
         [
           ("regexp -x -x", "1");
           ("lsearch -1 x", "-1");
           ("lsort -1", "-1");
           ("glob -nocomplain -- -nomatch*", "");
         ]);
    ("an undeclared switch is named from the declaration",
     fun () ->
       List.iter
         (fun (script, expected) ->
           Alcotest.(check string) script expected
             (expect_error (new_interp ()) script))
         [
           ("lsort -foo {3 1 2}",
            "bad option \"-foo\": should be -ascii, -integer, -real, \
             -increasing, or -decreasing");
           ("lsearch -regexp {a b} a",
            "bad option \"-regexp\": should be -exact or -glob");
           ("regsub -foo a b c d",
            "bad option \"-foo\": should be -all, -nocase, or --");
           ("regexp -all a a",
            "bad option \"-all\": should be -nocase, -indices, or --");
           ("interp create -x", "bad option \"-x\": should be -safe or --");
           ("interp cancel -x", "bad option \"-x\": should be -unwind");
         ]);
    ("case command matches glob patterns",
     check_eval "case abc in {a*} {set r first} {b*} {set r second}; set r" "first");
    ("case default",
     check_eval "case zzz in {a*} {set r a} default {set r dflt}; set r" "dflt");
    ("case single-list form",
     check_eval "case abc in {{x*} {set r x} {a*} {set r a}}; set r" "a");
    ("array names and size",
     check_eval "set a(x) 1; set a(y) 2; lsort [array names a]" "x y");
    ("array size", check_eval "set a(x) 1; set a(y) 2; array size a" "2");
    ("array exists", check_eval "set a(x) 1; array exists a" "1");
    ("array exists scalar", check_eval "set s 5; array exists s" "0");
    ("array names with pattern",
     check_eval "set a(ab) 1; set a(cd) 2; array names a a*" "ab");
  ]

(* Regexp property tests against naive references. *)
let regexp_literal_prop =
  QCheck.Test.make ~name:"regexp literal equals substring search" ~count:300
    QCheck.(
      pair
        (string_gen_of_size (Gen.int_bound 6) (Gen.char_range 'a' 'c'))
        (string_gen_of_size (Gen.int_bound 12) (Gen.char_range 'a' 'c')))
    (fun (pattern, s) ->
      QCheck.assume (pattern <> "");
      let naive =
        let np = String.length pattern and ns = String.length s in
        let rec go i = i + np <= ns && (String.sub s i np = pattern || go (i + 1)) in
        go 0
      in
      match Tcl.Regexp.compile ~nocase:false pattern with
      | Ok re -> Tcl.Regexp.matches re s = naive
      | Error _ -> false)

let regexp_star_prop =
  QCheck.Test.make ~name:"c* matches everywhere" ~count:200
    QCheck.(string_gen_of_size (Gen.int_bound 10) (Gen.char_range 'a' 'b'))
    (fun s ->
      match Tcl.Regexp.compile ~nocase:false "a*" with
      | Ok re -> Tcl.Regexp.matches re s
      | Error _ -> false)

let regsub_identity_prop =
  QCheck.Test.make ~name:"regsub with & template is identity" ~count:200
    QCheck.(string_gen_of_size (Gen.int_bound 12) (Gen.char_range 'a' 'c'))
    (fun s ->
      QCheck.assume (String.length s > 0);
      match Tcl.Regexp.compile ~nocase:false "[a-c]" with
      | Ok re ->
        let out, _ = Tcl.Regexp.replace re s ~template:"&" ~all:true in
        out = s
      | Error _ -> false)

(* ------------------------------------------------------------------ *)
(* Expression property tests against an OCaml reference *)

let expr_int_ops =
  QCheck.Test.make ~name:"expr arithmetic matches OCaml on ints" ~count:500
    QCheck.(triple (int_range (-1000) 1000) (int_range (-1000) 1000)
              (oneofl [ "+"; "-"; "*" ]))
    (fun (a, b, op) ->
      let expected =
        match op with
        | "+" -> a + b
        | "-" -> a - b
        | "*" -> a * b
        | _ -> assert false
      in
      let script = Printf.sprintf "expr {%d %s %d}" a op b in
      run_fresh script = string_of_int expected)

let expr_comparisons =
  QCheck.Test.make ~name:"expr comparisons match OCaml" ~count:500
    QCheck.(pair (int_range (-100) 100) (int_range (-100) 100))
    (fun (a, b) ->
      run_fresh (Printf.sprintf "expr {%d < %d}" a b)
      = (if a < b then "1" else "0")
      && run_fresh (Printf.sprintf "expr {%d == %d}" a b)
         = (if a = b then "1" else "0"))

let incr_loop_sums =
  QCheck.Test.make ~name:"while-loop sum equals closed form" ~count:50
    QCheck.(int_range 0 60)
    (fun n ->
      let script =
        Printf.sprintf
          "set s 0; set i 0; while {$i < %d} {incr i; incr s $i}; set s" n
      in
      run_fresh script = string_of_int (n * (n + 1) / 2))

(* ------------------------------------------------------------------ *)
(* Numbers: Tval.parse_num against the definition it shortcuts *)

(* Trim, then int_of_string, then float_of_string: what parse_num must
   answer for every string, however early it turns a word away. *)
let two_parse s =
  let s' = String.trim s in
  if s' = "" then Tcl.Tval.Nnone
  else
    match int_of_string_opt s' with
    | Some i -> Tcl.Tval.Nint i
    | None -> (
      match float_of_string_opt s' with
      | Some f -> Tcl.Tval.Ndbl f
      | None -> Tcl.Tval.Nnone)

let same_num a b =
  match (a, b) with
  | Tcl.Tval.Ndbl x, Tcl.Tval.Ndbl y ->
    Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | a, b -> a = b

let expr_num s =
  match Tcl.Expr.number_of_string s with
  | Some (Tcl.Expr.Int i) -> Tcl.Tval.Nint i
  | Some (Tcl.Expr.Float f) -> Tcl.Tval.Ndbl f
  | Some (Tcl.Expr.Str _) | None -> Tcl.Tval.Nnone

let show_num = function
  | Tcl.Tval.Nint i -> Printf.sprintf "int %d" i
  | Tcl.Tval.Ndbl f -> Printf.sprintf "float %h" f
  | Tcl.Tval.Nnone -> "none"
  | Tcl.Tval.Nmaybe -> "maybe"

let number_chars =
  [ '0'; '1'; '7'; '9'; '+'; '-'; '.'; '_'; 'e'; 'E'; 'x'; 'i'; 'I'; 'n';
    'N'; 'f'; 'a'; 'F'; 'A'; 't'; 'y'; 'c'; 'r'; 'z'; ' '; '\t'; '\011' ]

let parse_num_prop =
  QCheck.Test.make ~name:"parse_num equals trim + int + float parse"
    ~count:3000
    QCheck.(string_gen_of_size (Gen.int_bound 8) (Gen.oneofl number_chars))
    (fun s ->
      let want = two_parse s in
      same_num (Tcl.Tval.parse_num s) want && same_num (expr_num s) want)

let number_tests =
  [
    ( "parse_num keeps OCaml's number quirks",
      fun () ->
        List.iter
          (fun (s, want) ->
            let got = Tcl.Tval.parse_num s in
            Alcotest.(check string) (Printf.sprintf "%S" s) (show_num want)
              (show_num got);
            Alcotest.(check bool) (Printf.sprintf "%S: two parses" s) true
              (same_num got (two_parse s));
            Alcotest.(check bool) (Printf.sprintf "%S: expr" s) true
              (same_num (expr_num s) got))
          [
            ("_1", Tcl.Tval.Ndbl 1.0);
            ("\0111.5", Tcl.Tval.Ndbl 1.5);
            ("inf", Tcl.Tval.Ndbl Float.infinity);
            ("NaN", two_parse "NaN");
            ("1_000", Tcl.Tval.Nint 1000);
            ("0x1F", Tcl.Tval.Nint 31);
            ("-.5", Tcl.Tval.Ndbl (-0.5));
            (".c", Tcl.Tval.Nnone);
            ("create", Tcl.Tval.Nnone);
          ];
        Alcotest.(check bool) "NaN is a float" true
          (match Tcl.Tval.parse_num "NaN" with
          | Tcl.Tval.Ndbl f -> Float.is_nan f
          | _ -> false) );
  ]

let to_alcotest = List.map (fun (n, f) -> Alcotest.test_case n `Quick f)

let () =
  Alcotest.run "tcl"
    [
      ("syntax", to_alcotest syntax_tests);
      ("syntax-errors", to_alcotest syntax_error_tests);
      ("control", to_alcotest control_tests);
      ("procs", to_alcotest proc_tests);
      ("expr", to_alcotest expr_tests);
      ("lists", to_alcotest list_tests);
      ("strings", to_alcotest string_tests);
      ("edge-cases", to_alcotest edge_tests);
      ("regexp", to_alcotest regexp_tests);
      ("info", to_alcotest info_tests);
      ("file-misc", to_alcotest file_tests);
      ("numbers", to_alcotest number_tests);
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            list_roundtrip;
            quote_element_roundtrip;
            glob_literal;
            glob_star_prefix;
            expr_int_ops;
            expr_comparisons;
            incr_loop_sums;
            regexp_literal_prop;
            regexp_star_prop;
            regsub_identity_prop;
            parse_num_prop;
          ] );
    ]
