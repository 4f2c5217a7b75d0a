(* Tests for the bytecode VM: every observable of a script run must be
   byte-identical across the two execution tiers — the reference
   character-at-a-time evaluator and the bytecode VM.  The VM is
   observed twice: with its inlined structural opcodes live, and with
   every one of them deopted to ordinary command dispatch (one of the
   inlined builtins is swapped for a behaviour-identical wrapper, which
   makes the command table non-canonical).  We compare status, result
   value, errorInfo and the executed-command count; the corpus leans on
   the VM's sharp edges (dual-ported values and %.12g float rendering,
   slot versus hash variable access, inline-cached dispatch, deopt when
   a core builtin is shadowed) plus the recursionlimit / resource-limit
   / cancellation messages, and a generated-program property drives the
   same comparison on random scripts.  The counters section checks the
   tcl.vm.* metrics. *)

open Xsim

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

type mode = Reference | Vm | Deopt

let mode_name = function
  | Reference -> "reference"
  | Vm -> "vm"
  | Deopt -> "vm-deopt"

(* Deopt: [continue] becomes a wrapper that runs the original builtin
   as a hidden command — same behaviour, same command count (hidden
   invocations are not counted), but a different command-table entry,
   so the VM stops treating the ten inlined builtins as canonical. *)
let new_interp mode =
  let tcl = Tcl.Builtins.new_interp () in
  (match mode with
  | Reference -> Tcl.Interp.set_compile_enabled tcl false
  | Vm -> ()
  | Deopt ->
    ignore (Tcl.Interp.hide_command tcl "continue");
    Tcl.Interp.register tcl
      (Tcl.Interp.signature "continue" 0 ~max:0 ~usage:"continue")
      (fun t words -> Tcl.Interp.invoke_hidden t "continue" words));
  tcl

let status_name = function
  | Tcl.Interp.Tcl_ok -> "ok"
  | Tcl.Interp.Tcl_error -> "error"
  | Tcl.Interp.Tcl_return -> "return"
  | Tcl.Interp.Tcl_break -> "break"
  | Tcl.Interp.Tcl_continue -> "continue"

let observation tcl (status, value) =
  Printf.sprintf "status=%s value=%S errorInfo=%S commands=%d"
    (status_name status) value
    (Tcl.Interp.get_error_info tcl)
    (Tcl.Interp.command_count tcl)

let observe mode script =
  let tcl = new_interp mode in
  observation tcl (Tcl.Interp.eval tcl script)

(* The reference evaluator is the oracle; the VM must reproduce it byte
   for byte, with its inlined opcodes live and with all of them
   deopted. *)
let differential script () =
  let oracle = observe Reference script in
  check_string (Printf.sprintf "vm: %s" script) oracle (observe Vm script);
  check_string
    (Printf.sprintf "vm-deopt: %s" script)
    oracle (observe Deopt script)

let differential_scripts =
  [
    (* dual-ported values: ints and floats shimmer through string reps *)
    "expr {1.0 / 3}";
    "expr {0.1 + 0.2}";
    "expr {2.5 * 2}";
    "set x [expr {1.0 / 3}]; set y $x; expr {$y * 3}";
    "set x 1e15; expr {$x + 1.0}";
    "expr {double(7)}";
    "set x 3.5; string length $x";
    "set i 5; append i 0; incr i";
    "set x 07; incr x";
    (* int overflow wraps identically on every tier (native 63-bit) *)
    "expr {4611686018427387903 + 1}";
    "expr {-4611686018427387904 - 1}";
    "set x 4611686018427387903; incr x";
    (* end-relative indices and empty-list operations *)
    "lindex {a b c d} end-1";
    "lrange {a b c d e} 1 end-2";
    "lindex {} 0";
    "lrange {} 0 end";
    "llength {}";
    "lsort {}";
    "set l {}; lappend l; set l";
    "linsert {a b c} end-1 X";
    "catch {lindex {a b} end-5} m; set m";
    (* slot-resolved locals, upvar/global aliasing into slotted frames *)
    "proc f {a b} {set c [expr {$a + $b}]; incr c; return $c}; f 3 4";
    "proc f {n} {set n 0; while {$n < 5} {incr n}; set n}; f 99";
    "proc bump {v} {upvar $v x; incr x 10}; proc g {} {set y 1; bump y; \
     set y}; g";
    "set g 100; proc rd {} {global g; incr g; set g}; rd";
    (* unset through a link keeps the link: the write after it lands in
       the linked variable, scalar or array element *)
    "proc w {} {global h; set h 1; unset h; set h 7}; w; info exists h";
    "proc w {n} {upvar 1 $n v; set v 1; unset v; set v 2}; proc c {} {w a; \
     info exists a}; c";
    "proc w {n} {upvar 1 $n v; set v 1; unset v; set v 2}; proc c {} {w a(k); \
     list [info exists a(k)] $a(k)}; c";
    "proc outer {} {set x 1; uplevel {set lifted 5}; set x}; outer; \
     set lifted";
    (* arrays force the hash path inside otherwise-slotted frames *)
    "proc f {} {set a(1) one; set a(2) two; set a(1)}; f";
    "proc f {i} {set a(x$i) v$i; set a(x2)}; f 2";
    (* inline-cached dispatch across redefinition *)
    "proc p {} {return one}; set r [p]; proc p {} {return two}; \
     list $r [p]";
    "proc q {n} {return $n}; set s 0; set i 0; while {$i < 10} {incr i; \
     incr s [q $i]}; set s";
    (* shadowing a core builtin deopts the inlined opcode *)
    "rename set realset; proc set {v x} {realset ::shadowed 1; uplevel \
     [list realset $v $x]}; set probe 7; realset out $probe; rename set {}; \
     rename realset set; list $probe $::shadowed";
    (* ... including when the opcode's own value word does the shadowing:
       the command is looked up only after its words are substituted *)
    "proc p {} {rename set s0; proc set args {uplevel 1 [linsert $args 0 \
     s0]}; return 1}; set x [p]; list $x [info cmdcount]";
    "proc p {} {rename return r0; proc return args {uplevel 1 [linsert \
     $args 0 r0]}; return 2}; proc q {} {return [p]}; q";
    "proc p {} {rename incr i0; proc incr args {uplevel 1 [linsert $args 0 \
     i0]}; return 3}; set n 1; incr n [p]; set n";
    "proc p {} {rename foreach f0; proc foreach args {uplevel 1 [linsert \
     $args 0 f0]}; return {a b}}; set r {}; foreach e [p] {lappend r $e}; \
     set r";
    (* a builtin's words are substituted to strings, and a word that
       redefines the command reaches the new definition either way *)
    "list [llength [proc llength args {return shadowed}]] [llength a b]";
    "proc p args {return proc}; set r [p [rename p {}; rename concat p] \
     b]; list $r [p x y]";
    "set n 0; list [string length [incr n]$n] [lindex {a b} $n]";
    (* catch / return interactions the typed result channel must respect *)
    "proc p {} {catch {return 5}}; p";
    "proc p {} {list [catch {return 5} m] $m}; p";
    "proc p {} {expr {\"[return 9]\"}}; p";
    "proc p {} {catch {error boom} m; set m}; p";
    (* control flow: break/continue from nested bodies *)
    "set s 0; for {set i 0} {$i < 10} {incr i} {if {$i == 3} continue; \
     if {$i == 6} break; incr s $i}; set s";
    "set r {}; foreach i {1 2 3} {foreach j {a b} {if {$j == \"b\"} \
     continue; lappend r $i$j}}; set r";
    (* errors carry the original command text in the trace *)
    "proc inner {} {error boom}; proc outer {} {inner}; outer";
    "proc f {n} {expr {$n + }}; f 1";
    "set x [undefined_cmd]";
    "incr missingvar nonint";
    "proc f {a} {return $a}; f";
    "proc f {a} {return $a}; f 1 2";
    (* ... cut from the source of the code the command sits in: a braced
       loop body inside a proc, a bracket inside a quoted word, a command
       past the trace's 150-character cut with blanks before its ';', an
       inlined incr of a non-integer *)
    "proc p {n} {set i 0; while {$i < $n} {incr i; if {$i == 2} {set r \
     [nosuch $i]}}; set i}; p 4";
    "set y 1; set x \"a [set y] [nosuch $y  ] b\"";
    "proc q {} {return \"<[string length abc][error {in quotes}]>\"}; q";
    "nosuch " ^ String.make 160 'a' ^ " b   ; set z 1";
    "set i 0; while {$i < 3} {incr i; set pad " ^ String.make 150 'p'
    ^ "; if {$i == 2} {error boom}}  ; set i";
    "set v abc; incr v";
    "proc p {} {set v 1.5; incr v 2}; p";
    "set a x; set n 1; incr n $a";
    (* PR 7: per-interp recursion limits *)
    "interp recursionlimit 30; proc loop {} {loop}; loop";
    "interp recursionlimit 30; proc loop {} {loop}; list [catch loop m] $m";
    "interp recursionlimit 20; proc down {n} {if {$n == 0} {return done}; \
     down [expr {$n - 1}]}; set a [catch {down 100}]; interp recursionlimit \
     400; list $a [down 100]";
  ]

(* Each script is observed three ways: reference, vm and vm-deopt. *)
let differential_tests =
  List.map
    (fun s -> (Printf.sprintf "three tiers identical: %s" s, differential s))
    differential_scripts

(* ------------------------------------------------------------------ *)
(* PR 7 guard machinery under the VM: command budgets, time limits on an
   injected clock, and cancellation must trip at the same command with
   the same message on every tier (the guard spends one budget unit per
   executed command, so parity here proves the VM's command accounting
   matches the reference evaluator exactly). *)

let observe_command_limit mode =
  let tcl = new_interp mode in
  Tcl.Interp.set_command_limit tcl 50;
  let res = Tcl.Interp.eval tcl "set i 0; while 1 {incr i}" in
  Printf.sprintf "%s i=%s" (observation tcl res)
    (Option.value ~default:"?" (Tcl.Interp.get_var tcl "i"))

let observe_time_limit mode =
  let tcl = new_interp mode in
  let ticks = ref 0 in
  Tcl.Interp.set_limit_clock tcl
    (Some
       (fun () ->
         incr ticks;
         !ticks));
  Tcl.Interp.set_time_limit tcl 40;
  let res = Tcl.Interp.eval tcl "set i 0; while 1 {incr i}" in
  Printf.sprintf "%s i=%s" (observation tcl res)
    (Option.value ~default:"?" (Tcl.Interp.get_var tcl "i"))

let observe_cancel ~unwind mode =
  let tcl = new_interp mode in
  Tcl.Interp.register tcl
    (Tcl.Interp.signature "trip_cancel" 0 ~max:0 ~usage:"trip_cancel")
    (fun _ _ ->
      Tcl.Interp.cancel ~unwind tcl;
      (Tcl.Interp.Tcl_ok, ""));
  let script =
    if unwind then "set i 0; catch {while 1 {incr i; trip_cancel}} m; set m"
    else "set i 0; while 1 {incr i; trip_cancel}"
  in
  let res = Tcl.Interp.eval tcl script in
  Printf.sprintf "%s i=%s" (observation tcl res)
    (Option.value ~default:"?" (Tcl.Interp.get_var tcl "i"))

let guard_differential label observe_fn expect_msg () =
  let oracle = observe_fn Reference in
  check_bool
    (Printf.sprintf "%s: oracle reports %S (got %s)" label expect_msg oracle)
    true
    (let quoted = Printf.sprintf "%S" expect_msg in
     (* The message appears as the value field of the observation. *)
     let rec contains i =
       i + String.length quoted <= String.length oracle
       && (String.sub oracle i (String.length quoted) = quoted
          || contains (i + 1))
     in
     contains 0);
  List.iter
    (fun mode ->
      check_string
        (Printf.sprintf "%s: %s" label (mode_name mode))
        oracle (observe_fn mode))
    [ Vm; Deopt ]

let guard_tests =
  [
    ( "command budget trips at the same command",
      guard_differential "command limit" observe_command_limit
        "command count limit exceeded" );
    ( "time limit trips at the same boundary",
      guard_differential "time limit" observe_time_limit "time limit exceeded"
    );
    ( "plain cancel lands at the same command",
      guard_differential "cancel" (observe_cancel ~unwind:false)
        "eval canceled" );
    ( "unwinding cancel escapes catch identically",
      guard_differential "cancel -unwind" (observe_cancel ~unwind:true)
        "eval unwound" );
  ]

(* ------------------------------------------------------------------ *)
(* Generated programs.  Random well-formed scripts mixing procs, loops,
   catch/error, upvar/global, arrays and multi-part words (with [cmd]
   and $a($k) parts); a rare statement renames one of the ten inlined
   builtins to a forwarding proc mid-run, so already-running lowered
   code deopts.  Loops only count on dedicated counters (l0, l1, ...)
   that no other statement writes, and procs never recurse, so every
   program terminates. *)

module G = QCheck.Gen

type gctx = {
  pool : string array;  (* scalars the statements read and write *)
  arr : string;  (* an array variable with keys k0..k2 *)
  key : string;  (* a variable holding one of those keys *)
  calls : string list;  (* procs callable from here (no recursion) *)
  in_proc : bool;
}

let gvar c = G.oneofa c.pool

let gkey = G.oneofl [ "k0"; "k1"; "k2" ]

let gword c =
  G.frequency
    [
      (3, G.map string_of_int (G.int_range (-3) 9));
      (2, G.oneofl [ "{a b}"; "foo"; "2.5"; "{}" ]);
      (4, G.map (fun v -> "$" ^ v) (gvar c));
      (2, G.map (Printf.sprintf "$%s(%s)" c.arr) gkey);
      (2, G.return (Printf.sprintf "$%s($%s)" c.arr c.key));
      (2, G.map (Printf.sprintf "[llength $%s]") (gvar c));
      ( 2,
        G.map2 (Printf.sprintf "\"<$%s>[string length $%s]\"") (gvar c) (gvar c)
      );
      (1, G.map (Printf.sprintf "[expr {$%s * 2}]") (gvar c));
      (* literals that the words above also spell, given list, string and
         numeric reps before a later statement binds and mutates them *)
      ( 2,
        G.oneofl
          [ "[llength {a b}]"; "[lindex {a b} 1]"; "[string length 2.5]";
            "[expr {2.5 + 1}]" ] );
    ]

let inlined_builtins =
  [ "set"; "incr"; "expr"; "if"; "while"; "for"; "foreach"; "return";
    "break"; "continue" ]

(* Shadow a builtin with a proc forwarding to it (once), or undo that. *)
let rename_stmt name =
  Printf.sprintf
    "if {[info commands %s_orig] == {}} {rename %s %s_orig; proc %s args \
     {uplevel 1 [linsert $args 0 %s_orig]}}"
    name name name name name

let restore_stmt name =
  Printf.sprintf
    "if {[info commands %s_orig] != {}} {rename %s {}; rename %s_orig %s}" name
    name name name

let gleaf c loop =
  let open G in
  let call =
    match c.calls with
    | [] -> []
    | procs ->
      [
        ( 2,
          map3 (Printf.sprintf "set %s [%s %s]") (gvar c) (oneofl procs)
            (gvar c) );
        (* p0's second formal, which its body may write, bound from any
           word, literals included *)
        ( 1,
          map3 (Printf.sprintf "set %s [p0 %s %s]") (gvar c) (gvar c)
            (gword c) );
      ]
  in
  let flow =
    (if loop > 0 then [ (1, oneofl [ "break"; "continue" ]) ] else [])
    @ if c.in_proc then [ (1, map (Printf.sprintf "return %s") (gword c)) ]
      else []
  in
  frequency
    ([
       (6, map2 (Printf.sprintf "set %s %s") (gvar c) (gword c));
       (2, map2 (Printf.sprintf "set %s(%s) %s" c.arr) gkey (gword c));
       (2, map2 (Printf.sprintf "set %s(k$%s) %s" c.arr) (gvar c) (gword c));
       (2, map (Printf.sprintf "incr %s") (gvar c));
       (1, map2 (Printf.sprintf "incr %s %d") (gvar c) (int_range (-2) 3));
       ( 2,
         map3 (Printf.sprintf "append %s %s %s") (gvar c) (gword c) (gword c)
       );
       (2, map2 (Printf.sprintf "lappend %s %s") (gvar c) (gword c));
       ( 2,
         map3 (Printf.sprintf "catch {set %s [expr {$%s + %d}]} m") (gvar c)
           (gvar c) (int_range 0 5) );
       (1, map (Printf.sprintf "catch {error \"boom $%s\"} m") (gvar c));
       (1, map (Printf.sprintf "error \"bad [llength $%s]\"") (gvar c));
       (1, map rename_stmt (oneofl inlined_builtins));
       (1, map restore_stmt (oneofl inlined_builtins));
     ]
    @ call @ flow)

let rec gstmt c depth loop =
  let open G in
  if depth = 0 then gleaf c loop
  else
    let body = gbody c (depth - 1) in
    let counter = Printf.sprintf "l%d" loop in
    frequency
      [
        (6, gleaf c loop);
        ( 1,
          map3
            (fun v n (a, b) ->
              Printf.sprintf "if {$%s == %d} {%s} else {%s}" v n a b)
            (gvar c) (int_range 0 3)
            (pair (body loop) (body loop)) );
        ( 1,
          map2
            (fun n b ->
              Printf.sprintf "set %s 0; while {$%s < %d} {incr %s; %s}" counter
                counter n counter b)
            (int_range 0 3) (body (loop + 1)) );
        ( 1,
          map2
            (fun n b ->
              Printf.sprintf "for {set %s 0} {$%s < %d} {incr %s} {%s}"
                counter counter n counter b)
            (int_range 0 3) (body (loop + 1)) );
        ( 1,
          map2
            (fun l b -> Printf.sprintf "foreach e%d %s {%s}" loop l b)
            (oneofl [ "{a b c}"; "{1 2}"; "$" ^ c.pool.(1) ])
            (body (loop + 1)) );
        (1, map (Printf.sprintf "catch {%s} m") (body loop));
      ]

and gbody c depth loop =
  G.map (String.concat "; ")
    (G.list_size (G.int_range 1 3) (gstmt c depth loop))

let top_ctx =
  { pool = [| "x"; "y"; "z" |]; arr = "a"; key = "k"; calls = [ "p0"; "p1" ];
    in_proc = false }

let proc_ctx calls =
  { pool = [| "r"; "w"; "t" |]; arr = "b"; key = "kk"; calls; in_proc = true }

let gprogram =
  let open G in
  let prologue = "set t 0; set b(k0) 1; set b(k1) w; set b(k2) 4; set kk k1" in
  map3
    (fun p0 p1 stmts ->
      String.concat "\n"
        ([
           Printf.sprintf "proc p0 {v {w 2}} {upvar 1 $v r; %s; %s; return $r}"
             prologue p0;
           Printf.sprintf
             "proc p1 {n} {global x; set r [p0 x $n]; set w $n; %s; %s; \
              return \"$r-$t\"}"
             prologue p1;
           "set x 1; set y {a b}; set z 2.5; set k k1";
           "set a(k0) 0; set a(k1) k2; set a(k2) 7";
         ]
        @ stmts
        @ [ "list [catch {set x} v] $v [catch {set y} v] $v [array names a]" ]))
    (gbody (proc_ctx []) 1 0)
    (gbody (proc_ctx [ "p0" ]) 1 0)
    (list_size (int_range 3 8)
       (map2
          (fun wrap s -> if wrap then Printf.sprintf "catch {%s} m" s else s)
          bool (gstmt top_ctx 2 0)))

let generated_differential =
  QCheck.Test.make ~name:"generated programs: reference = vm = vm-deopt"
    ~count:500
    (QCheck.make ~print:Fun.id gprogram)
    (fun script ->
      let oracle = observe Reference script in
      List.for_all
        (fun mode ->
          let got = observe mode script in
          got = oracle
          || QCheck.Test.fail_reportf "%s differs:\n  reference: %s\n  %s: %s"
               (mode_name mode) oracle (mode_name mode) got)
        [ Vm; Deopt ])

(* ------------------------------------------------------------------ *)
(* tcl.vm.* counters: lowering, slot hits and deopt accounting. *)

let vm_stat tcl key =
  match List.assoc_opt key (Tcl.Interp.vm_stats tcl) with
  | Some v -> v
  | None -> Alcotest.failf "no vm stat %S" key

let vm_stat_int tcl key = int_of_string (vm_stat tcl key)

let run tcl script =
  match Tcl.Interp.eval_value tcl script with
  | Ok v -> v
  | Error msg -> Alcotest.failf "script %S failed: %s" script msg

let counter_tests =
  [
    ( "hot proc loop lowers code and serves variables from slots",
      fun () ->
        let tcl = new_interp Vm in
        ignore
          (run tcl
             "proc step {n} {expr {$n + 1}}\n\
              set i 0\n\
              while {$i < 100} {set i [step $i]}\n\
              set i");
        check_bool "programs were lowered" true (vm_stat_int tcl "compiled" > 0);
        check_bool "slot hits dominate" true
          (vm_stat_int tcl "slot_hits" > 100);
        check_string "vm reports canonical" "1" (vm_stat tcl "canonical") );
    ( "shadowing a core builtin flips canonical off and counts deopts",
      fun () ->
        let tcl = new_interp Vm in
        ignore (run tcl "set i 0; while {$i < 5} {incr i}");
        check_string "canonical while builtins are intact" "1"
          (vm_stat tcl "canonical");
        let before = vm_stat_int tcl "deopts" in
        (* The loop is already running as lowered code when iteration 3
           shadows [incr] with a double-stepping proc; the remaining
           iterations must deopt the inlined opcodes back to dispatch
           (so the shadow is honored: 1,2,3 then +2 steps to 5 and 7). *)
        check_string "mid-loop shadow is honored" "7"
          (run tcl
             "set n 0\n\
              while {$n < 6} {\n\
             \  incr n\n\
             \  if {$n == 3} {\n\
             \    rename incr incr_orig\n\
             \    proc incr {v} {upvar $v x; incr_orig x 2}\n\
             \  }\n\
              }\n\
              set n");
        check_string "shadowed builtin drops canonical" "0"
          (vm_stat tcl "canonical");
        check_bool "inlined opcodes deopted to dispatch" true
          (vm_stat_int tcl "deopts" > before);
        ignore (run tcl "rename incr {}");
        ignore (run tcl "rename incr_orig incr");
        check_string "restoring the builtin restores canonical" "1"
          (vm_stat tcl "canonical") );
    ( "reset_vm_stats clears the counters",
      fun () ->
        let tcl = new_interp Vm in
        ignore (run tcl "proc f {} {return 1}; f");
        check_bool "counters moved" true (vm_stat_int tcl "compiled" > 0);
        Tcl.Interp.reset_vm_stats tcl;
        check_int "compiled cleared" 0 (vm_stat_int tcl "compiled");
        check_int "slot hits cleared" 0 (vm_stat_int tcl "slot_hits") );
  ]

(* ------------------------------------------------------------------ *)
(* The counters surface through xstat / the metrics registry as
   tcl.vm.*, alongside tcl.compile.*. *)

let metrics_tests =
  [
    ( "xstat exposes the tcl.vm counters",
      fun () ->
        let server = Server.create () in
        let app =
          Tk_widgets.Tk_widgets_lib.new_app ~server ~name:"xstatvm" ()
        in
        let run_app script =
          match Tcl.Interp.eval_value app.Tk.Core.interp script with
          | Ok v -> v
          | Error msg -> Alcotest.failf "script %S failed: %s" script msg
        in
        ignore (run_app "set i 0; while {$i < 50} {incr i}");
        check_string "canonical visible" "1"
          (run_app "xstat get tcl.vm.canonical");
        let hits = int_of_string (run_app "xstat get tcl.vm.slot_hits") in
        check_bool "slot hits visible and nonzero" true (hits > 0);
        ignore (run_app "xstat reset");
        (* Read slot_hits, not compiled: lowering the [xstat get ...]
           script itself bumps the compiled counter before the command
           reads it, while a variable-free script makes no slot traffic. *)
        check_string "reset clears vm counters" "0"
          (run_app "xstat get  tcl.vm.slot_hits") );
  ]

let tc name f = Alcotest.test_case name `Quick f

let () =
  Alcotest.run "vm"
    [
      ("differential", List.map (fun (n, f) -> tc n f) differential_tests);
      ("guards", List.map (fun (n, f) -> tc n f) guard_tests);
      ( "generated",
        [
          QCheck_alcotest.to_alcotest ~speed_level:`Quick
            ~rand:(Random.State.make [| 12 |])
            generated_differential;
        ] );
      ("counters", List.map (fun (n, f) -> tc n f) counter_tests);
      ("metrics", List.map (fun (n, f) -> tc n f) metrics_tests);
    ]
