(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (§7), plus ablations for the design choices in DESIGN.md.

     dune exec bench/main.exe

   Sections:
     Table I   — source lines (and compiled bytes) of Tk vs Xt/Motif
     Table II  — execution times for selected operations
     Figure 8  — the packer's geometry-management example
     Sweeps    — widget instantiation, send throughput
     Ablations — resource cache, structure cache, binding dispatch,
                 compiled vs reference Tcl, option database *)

open Xsim

(* ------------------------------------------------------------------ *)
(* Measurement helper: a calibrated loop timer.  The iteration count
   doubles until one batch of runs takes [quota / samples] seconds; then
   [samples] batches are timed.  The result is the best batch's time per
   run, with its spread (median batch over best, minus one).  Nothing
   touches the GC between samples, so a large heap left behind by an
   earlier section costs only what it costs the code being measured. *)

type timing = { ns : float; spread : float }

let samples = 7

let measure_ns ?(quota = 0.5) f =
  let batch n =
    let t0 = Unix.gettimeofday () in
    for _ = 1 to n do
      f ()
    done;
    (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int n
  in
  let target_ns = quota *. 1e9 /. float_of_int samples in
  let rec calibrate n =
    if n >= 1 lsl 24 || batch n *. float_of_int n >= target_ns then n
    else calibrate (2 * n)
  in
  let n = calibrate 1 in
  let runs = Array.init samples (fun _ -> batch n) in
  Array.sort Float.compare runs;
  { ns = runs.(0); spread = (runs.(samples / 2) /. runs.(0)) -. 1.0 }

let time_wall f =
  let t0 = Unix.gettimeofday () in
  f ();
  Unix.gettimeofday () -. t0

(* Best-of-N wall time: the ablation workloads run in a few tens of
   milliseconds, where a single sample is dominated by scheduler noise;
   the minimum over a handful of repetitions is the stable estimator. *)
let time_min ?(reps = 5) f =
  let best = ref infinity in
  for _ = 1 to reps do
    let dt = time_wall f in
    if dt < !best then best := dt
  done;
  !best

(* Heap baseline: live words after a full major collection, read at the
   start of every section and around the JSON collection.  Each reading
   should sit at the first one; a section that leaves its apps or servers
   reachable shows up as growth here, and would also bill its GC cost to
   every later timing.  [check_heap] fails the run past [heap_slack_words],
   which makes any bench run (CI's smoke step included) a leak gate. *)

let heap_slack_words = 65_536

let heap_readings = ref [] (* newest first *)

let record_heap label =
  Gc.full_major ();
  let words = (Gc.quick_stat ()).Gc.live_words in
  heap_readings := words :: !heap_readings;
  Printf.printf "[heap] %s: %d live words\n%!" label words;
  words

let check_heap () =
  match List.rev !heap_readings with
  | [] -> ()
  | first :: later ->
    let peak = List.fold_left max first later in
    if peak - first > heap_slack_words then begin
      Printf.eprintf
        "bench: live heap grew from %d to %d words (allowed: +%d); a \
         section left state reachable\n"
        first peak heap_slack_words;
      exit 1
    end

let section title =
  ignore (record_heap ("start of " ^ title));
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

let run_tcl app script =
  match Tcl.Interp.eval_value app.Tk.Core.interp script with
  | Ok v -> v
  | Error msg -> failwith (Printf.sprintf "bench script %S failed: %s" script msg)

let new_display_app name =
  let server = Server.create () in
  (server, Tk_widgets.Tk_widgets_lib.new_app ~server ~name ())

(* ------------------------------------------------------------------ *)
(* Table I: code size comparison *)

(* Paper numbers (source lines / DS3100 object bytes). *)
type size_row = {
  label : string;
  spec : string; (* our sources: a directory or comma-joined files *)
  obj_dir : string option; (* where our compiled objects live *)
  xt_lines : int option;
  tk_lines : int option;
  xt_bytes : int option;
  tk_bytes : int option;
}

let size_rows =
  [
    {
      label = "Intrinsics";
      spec =
        String.concat ","
          (List.concat_map
             (fun m -> [ "lib/core/" ^ m ^ ".ml"; "lib/core/" ^ m ^ ".mli" ])
             [
               "core"; "path"; "dispatch"; "bindpattern"; "rescache";
               "optiondb"; "selection"; "sendcmd"; "tkcmd"; "place"; "main";
             ]);
      obj_dir = Some "lib/core";
      xt_lines = Some 24900;
      tk_lines = Some 15100;
      xt_bytes = Some 216400;
      tk_bytes = Some 92800;
    };
    {
      label = "Tcl";
      spec = "lib/tcl";
      obj_dir = Some "lib/tcl";
      xt_lines = None;
      tk_lines = Some 9300;
      xt_bytes = None;
      tk_bytes = Some 61100;
    };
    {
      label = "Geometry Manager";
      spec = "lib/core/pack.ml,lib/core/pack.mli";
      obj_dir = None;
      xt_lines = Some 2100;
      tk_lines = Some 1000;
      xt_bytes = Some 17100;
      tk_bytes = Some 7400;
    };
    {
      label = "Buttons";
      spec = "lib/widgets/button.ml,lib/widgets/button.mli";
      obj_dir = None;
      xt_lines = Some 6300;
      tk_lines = Some 1000;
      xt_bytes = Some 43700;
      tk_bytes = Some 8600;
    };
    {
      label = "Scrollbar";
      spec = "lib/widgets/scrollbar.ml,lib/widgets/scrollbar.mli";
      obj_dir = None;
      xt_lines = Some 3000;
      tk_lines = Some 1200;
      xt_bytes = Some 24900;
      tk_bytes = Some 8000;
    };
    {
      label = "Listbox";
      spec = "lib/widgets/listbox.ml,lib/widgets/listbox.mli";
      obj_dir = None;
      xt_lines = Some 6400;
      tk_lines = Some 1600;
      xt_bytes = Some 53100;
      tk_bytes = Some 10700;
    };
  ]

let opt_str = function Some n -> string_of_int n | None -> "-"

let table1 () =
  section "Table I: source size, Xt/Motif vs Tk (paper) vs this repo";
  match Loc_count.find_repo_root () with
  | None -> print_endline "  (cannot locate repository root; skipped)"
  | Some root ->
    Printf.printf "%-18s %10s %10s %12s %14s\n" "" "Xt/Motif" "Tk (paper)"
      "ours (OCaml)" "ours (bytes)";
    let totals = ref (0, 0, 0) in
    List.iter
      (fun row ->
        let files = Loc_count.module_files ~root row.spec in
        let ours = Loc_count.count_lines files in
        let bytes =
          match row.obj_dir with
          | Some dir -> Loc_count.compiled_bytes ~root dir
          | None -> None
        in
        let xt, tk, o = !totals in
        totals :=
          ( xt + Option.value row.xt_lines ~default:0,
            tk + Option.value row.tk_lines ~default:0,
            o + ours );
        Printf.printf "%-18s %10s %10s %12d %14s\n" row.label
          (opt_str row.xt_lines) (opt_str row.tk_lines) ours
          (match bytes with Some b -> string_of_int b | None -> "-"))
      size_rows;
    let xt, tk, ours = !totals in
    Printf.printf "%-18s %10d %10d %12d\n" "Total" xt tk ours;
    Printf.printf
      "\n\
      \  Paper's claim: Tk+Tcl is ~0.68x the size of Xt/Motif (%d/%d = %.2f).\n"
      tk xt
      (float_of_int tk /. float_of_int xt);
    Printf.printf
      "  This repo:     whole reimplementation is %d lines, %.2fx the paper's \
       Tk\n"
      ours
      (float_of_int ours /. float_of_int tk);
    Printf.printf
      "  Widget ratios (Xt/Motif lines / ours): buttons %.1fx, scrollbar \
       %.1fx, listbox %.1fx\n"
      (6300.0 /. float_of_int (Loc_count.count_lines (Loc_count.module_files ~root "lib/widgets/button.ml,lib/widgets/button.mli")))
      (3000.0 /. float_of_int (Loc_count.count_lines (Loc_count.module_files ~root "lib/widgets/scrollbar.ml,lib/widgets/scrollbar.mli")))
      (6400.0 /. float_of_int (Loc_count.count_lines (Loc_count.module_files ~root "lib/widgets/listbox.ml,lib/widgets/listbox.mli")))

(* ------------------------------------------------------------------ *)
(* Table II: execution times *)

let bench_set_a_1 ?quota () =
  let tcl = Tcl.Builtins.new_interp () in
  measure_ns ?quota (fun () -> ignore (Tcl.Interp.eval tcl "set a 1"))

let bench_send_empty ?quota () =
  let server = Server.create () in
  let alpha = Tk_widgets.Tk_widgets_lib.new_app ~server ~name:"alpha" () in
  let _beta = Tk_widgets.Tk_widgets_lib.new_app ~server ~name:"beta" () in
  let ns =
    measure_ns ?quota (fun () -> ignore (run_tcl alpha "send beta {}"))
  in
  (* Simulated protocol cost: requests for one send. *)
  Server.reset_stats alpha.Tk.Core.conn;
  ignore (run_tcl alpha "send beta {}");
  let stats = Server.stats alpha.Tk.Core.conn in
  (ns, stats.Server.total_requests, stats.Server.round_trips)

(* Interp isolation costs (PR7): slave lifecycle, an alias round trip
   through the master, and the guard-gate ablation — "set a 1" with no
   limits armed vs with a command budget and a ticking limit clock
   armed.  The disarmed gate is a single flag test per command; the
   armed path (budget decrement + clock read) is what guarded sends
   pay.  Acceptance: armed overhead on set_a_1 within a few percent. *)

type interp_bench = {
  ib_create_delete_ns : float;
  ib_alias_ns : float;
  ib_guard_off_ns : float;
  ib_guard_on_ns : float;
}

let bench_interp ?quota () =
  let master = Tcl.Builtins.new_interp () in
  let n = ref 0 in
  let ib_create_delete_ns =
    (measure_ns ?quota (fun () ->
         incr n;
         let name = Printf.sprintf "s%d" !n in
         ignore (Tcl.Interp.eval master ("interp create " ^ name));
         ignore (Tcl.Interp.eval master ("interp delete " ^ name))))
      .ns
  in
  ignore (Tcl.Interp.eval master "interp create worker");
  ignore (Tcl.Interp.eval master "proc relay {x} {return $x}");
  ignore (Tcl.Interp.eval master "interp alias worker ping {} relay pong");
  let ib_alias_ns =
    (measure_ns ?quota (fun () ->
         ignore (Tcl.Interp.eval master "interp eval worker ping")))
      .ns
  in
  (* Ablation: identical workload, guard disarmed vs armed.  The armed
     interp gets a practically-infinite command budget and a counter
     clock, so nothing ever trips — this measures the checks alone.
     A throwaway measurement first, so neither side pays the warm-up,
     and a floor on the quota: at the smoke quota the two ~500ns
     numbers are pure noise and the overhead ratio is meaningless. *)
  let abl_quota = Some (Float.max 0.3 (Option.value quota ~default:0.5)) in
  let warmup = Tcl.Builtins.new_interp () in
  ignore
    (measure_ns ?quota:abl_quota (fun () ->
         ignore (Tcl.Interp.eval warmup "set a 1")));
  let plain = Tcl.Builtins.new_interp () in
  let ib_guard_off_ns =
    (measure_ns ?quota:abl_quota (fun () ->
         ignore (Tcl.Interp.eval plain "set a 1")))
      .ns
  in
  let armed = Tcl.Builtins.new_interp () in
  let ticks = ref 0 in
  Tcl.Interp.set_limit_clock armed
    (Some
       (fun () ->
         incr ticks;
         !ticks));
  Tcl.Interp.set_command_limit armed max_int;
  Tcl.Interp.set_time_limit armed (max_int / 2);
  let ib_guard_on_ns =
    (measure_ns ?quota:abl_quota (fun () ->
         ignore (Tcl.Interp.eval armed "set a 1")))
      .ns
  in
  { ib_create_delete_ns; ib_alias_ns; ib_guard_off_ns; ib_guard_on_ns }

let interp_section () =
  section "Interp isolation: slave costs and the guard-gate ablation";
  let b = bench_interp () in
  Printf.printf "%-32s %9.2f us\n" "interp create+delete"
    (b.ib_create_delete_ns /. 1e3);
  Printf.printf "%-32s %9.2f us\n" "alias round trip (slave->master)"
    (b.ib_alias_ns /. 1e3);
  Printf.printf "%-32s %9.2f us\n" "set a 1, guard disarmed"
    (b.ib_guard_off_ns /. 1e3);
  Printf.printf "%-32s %9.2f us\n" "set a 1, limits armed"
    (b.ib_guard_on_ns /. 1e3);
  Printf.printf "  armed-guard overhead: %+.1f%%\n"
    ((b.ib_guard_on_ns /. Float.max 1e-9 b.ib_guard_off_ns -. 1.0) *. 100.0)

let create_destroy_buttons app n =
  let buf = Buffer.create 256 in
  for i = 0 to n - 1 do
    Buffer.add_string buf
      (Printf.sprintf "button .b%d -text {Button %d}\n" i i);
    Buffer.add_string buf (Printf.sprintf "pack append . .b%d {top}\n" i)
  done;
  ignore (run_tcl app (Buffer.contents buf));
  Tk.Core.update app;
  let buf = Buffer.create 256 in
  for i = 0 to n - 1 do
    Buffer.add_string buf (Printf.sprintf "destroy .b%d\n" i)
  done;
  ignore (run_tcl app (Buffer.contents buf));
  Tk.Core.update app

let bench_50_buttons ?(quota = 1.0) () =
  let _server, app = new_display_app "buttons" in
  let ns = measure_ns ~quota (fun () -> create_destroy_buttons app 50) in
  Server.reset_stats app.Tk.Core.conn;
  create_destroy_buttons app 50;
  let stats = Server.stats app.Tk.Core.conn in
  (ns, stats.Server.total_requests)

let table2 () =
  section "Table II: execution times for selected operations";
  Printf.printf "%-38s %14s %14s %7s %s\n" "Operation" "paper (DS3100)" "ours"
    "spread" "simulated server traffic";
  let set_a = bench_set_a_1 () in
  Printf.printf "%-38s %14s %11.2f us %6.1f%% %s\n"
    "Simple Tcl command (set a 1)" "68 us" (set_a.ns /. 1e3)
    (set_a.spread *. 100.0) "none";
  let send, send_reqs, send_rts = bench_send_empty () in
  Printf.printf "%-38s %14s %11.2f us %6.1f%% %s\n" "Send empty command"
    "15 ms" (send.ns /. 1e3) (send.spread *. 100.0)
    (Printf.sprintf "%d requests (%d round trips)" send_reqs send_rts);
  let btn, btn_reqs = bench_50_buttons () in
  Printf.printf "%-38s %14s %11.2f ms %6.1f%% %s\n"
    "Create, display, delete 50 buttons" "440 ms" (btn.ns /. 1e6)
    (btn.spread *. 100.0)
    (Printf.sprintf "%d requests" btn_reqs);
  let set_ns = set_a.ns and send_ns = send.ns and btn_ns = btn.ns in
  print_newline ();
  Printf.printf
    "  Shape check: set-a-1 is the cheapest by far; send costs ~%.0fx a \
     local command\n"
    (send_ns /. set_ns);
  Printf.printf
    "  (the paper's ratio was 15ms/68us = ~220x), and 50 widgets cost \
     ~%.0fx one send.\n"
    (btn_ns /. send_ns)

(* Deeper Tcl microbenchmarks backing §7's "fast enough to execute many
   hundreds of Tcl commands within a human response time". *)
let tcl_micro () =
  section "Tcl microbenchmarks (\"hundreds of commands per response time\", §7)";
  let tcl = Tcl.Builtins.new_interp () in
  ignore (Tcl.Interp.eval tcl "proc nop {} {}");
  ignore (Tcl.Interp.eval tcl "proc add3 {a b c} {expr {$a + $b + $c}}");
  ignore (Tcl.Interp.eval tcl "set biglist {}; for {set i 0} {$i < 100} {incr i} {lappend biglist item$i}");
  let cases =
    [
      ("set a 1", "set a 1");
      ("variable substitution", "set b $a");
      ("proc call (no args)", "nop");
      ("proc call (3 args + expr)", "add3 1 2 3");
      ("braced expr", "expr {3 * 4 + 5}");
      ("if with braced condition", "if {$a == 1} {nop}");
      ("foreach over 10 items", "foreach i {1 2 3 4 5 6 7 8 9 10} {}");
      ("lindex into 100 items", "lindex $biglist 50");
      ("lsort 100 items", "lsort $biglist");
      ("string match", "string match *item* xxitemxx");
      ("regexp literal", "regexp item50 $biglist");
      ("format", "format %s=%d x 42");
    ]
  in
  Printf.printf "%-32s %12s %7s\n" "command" "per run" "spread";
  List.iter
    (fun (label, script) ->
      let m =
        measure_ns ~quota:0.25 (fun () -> ignore (Tcl.Interp.eval tcl script))
      in
      Printf.printf "%-32s %9.2f us %6.1f%%\n" label (m.ns /. 1e3)
        (m.spread *. 100.0))
    cases;
  let per_cmd =
    measure_ns ~quota:0.25 (fun () -> ignore (Tcl.Interp.eval tcl "set a 1"))
  in
  Printf.printf
    "\n  Commands executable in a 100 ms human response window: ~%.0f\n"
    (100e6 /. per_cmd.ns)

(* ------------------------------------------------------------------ *)
(* Figure 8: geometry management *)

let figure8 () =
  section "Figure 8: packer arranging four windows in a column";
  let _server, app = new_display_app "fig8" in
  (* Requested sizes (a), parent size (b) as in the figure's proportions. *)
  ignore (run_tcl app "frame .a -width 40 -height 30 -background gray50");
  ignore (run_tcl app "frame .b -width 60 -height 30 -background gray75");
  ignore (run_tcl app "frame .c -width 120 -height 30 -background gray50");
  ignore (run_tcl app "frame .d -width 50 -height 60 -background gray75");
  ignore (run_tcl app "pack append . .a {top} .b {top} .c {top} .d {top}");
  let main = Tk.Core.main_widget app in
  Tk.Core.move_resize main ~x:main.Tk.Core.x ~y:main.Tk.Core.y ~width:100
    ~height:120;
  Tk.Core.update app;
  Printf.printf "%-8s %-16s %-16s %s\n" "window" "requested" "granted" "note";
  List.iter
    (fun path ->
      let w = Tk.Core.lookup_exn app path in
      let note =
        if w.Tk.Core.width < w.Tk.Core.req_width then "lost width"
        else if w.Tk.Core.height < w.Tk.Core.req_height then "lost height"
        else "as requested"
      in
      Printf.printf "%-8s %-16s %-16s %s\n" path
        (Printf.sprintf "%dx%d" w.Tk.Core.req_width w.Tk.Core.req_height)
        (Printf.sprintf "%dx%d+%d+%d" w.Tk.Core.width w.Tk.Core.height
           w.Tk.Core.x w.Tk.Core.y)
        note)
    [ ".a"; ".b"; ".c"; ".d" ];
  print_newline ();
  print_endline "Rendered layout (compare Figure 8(c)):";
  print_string (Raster.render app.Tk.Core.server ~window:main.Tk.Core.win ())

(* ------------------------------------------------------------------ *)
(* Sweeps (§7 narrative) *)

let widget_sweep () =
  section "Sweep: widget instantiation (\"many tens of widgets\", §7)";
  Printf.printf "%8s %16s %16s\n" "widgets" "total" "per widget";
  List.iter
    (fun n ->
      let _server, app = new_display_app (Printf.sprintf "sweep%d" n) in
      (* Warm the caches once, then time several runs. *)
      create_destroy_buttons app n;
      let runs = 5 in
      let dt =
        time_wall (fun () ->
            for _ = 1 to runs do
              create_destroy_buttons app n
            done)
      in
      let per = dt /. float_of_int runs in
      Printf.printf "%8d %13.2f ms %13.1f us\n" n (per *. 1000.0)
        (per *. 1e6 /. float_of_int n))
    [ 10; 25; 50; 100; 200 ]

let send_sweep () =
  section "Sweep: send throughput (paint-through-send scenario, §7)";
  let server = Server.create () in
  let alpha = Tk_widgets.Tk_widgets_lib.new_app ~server ~name:"alpha" () in
  let _beta = Tk_widgets.Tk_widgets_lib.new_app ~server ~name:"beta" () in
  ignore (run_tcl alpha "send beta {set warm 1}");
  let n = 2000 in
  let dt =
    time_wall (fun () ->
        for i = 1 to n do
          ignore (run_tcl alpha (Printf.sprintf "send beta {set x %d}" i))
        done)
  in
  Printf.printf "  %d sends in %.1f ms: %.1f us per send (%.0f sends/s)\n" n
    (dt *. 1000.0)
    (dt *. 1e6 /. float_of_int n)
    (float_of_int n /. dt);
  print_endline
    "  At the paper's 15 ms/send, mouse-motion painting was just feasible;";
  Printf.printf "  this implementation relays a motion event in ~%.0f us.\n"
    (dt *. 1e6 /. float_of_int n)

(* ------------------------------------------------------------------ *)
(* The send-fabric crash storm: drive the deterministic harness at fleet
   scale (1000 apps, 1% crash plan, 1% hung) twice and verify the two
   runs produce identical counters — the reproducibility claim — then
   report the outcome taxonomy and virtual-clock latency percentiles. *)

let storm_config ~smoke =
  if smoke then Tk.Sendstorm.default
  else
    {
      Tk.Sendstorm.default with
      Tk.Sendstorm.apps = 1000;
      crash_percent = 1;
      hang_percent = 1;
      sends_per_app = 3;
      mailbox_limit = 16;
      timeout_ms = 200;
      seed = 42;
    }

let storm_runs ~smoke =
  let cfg = storm_config ~smoke in
  let wall = ref 0.0 in
  let r1 = ref None in
  wall := time_wall (fun () -> r1 := Some (Tk.Sendstorm.run cfg));
  let r1 = Option.get !r1 in
  let r2 = Tk.Sendstorm.run cfg in
  if not (Tk.Sendstorm.counters_equal r1 r2) then
    failwith "send storm: two identical configs diverged (non-deterministic)";
  (r1, !wall)

let send_storm_section () =
  section "Send fabric: 1000-app crash storm (deterministic, virtual clock)";
  let r, wall = storm_runs ~smoke:false in
  let cfg = r.Tk.Sendstorm.cfg in
  Printf.printf
    "  %d apps, %d%% crash plan, %d%% hung, mailbox %d, %d ms deadline\n"
    cfg.Tk.Sendstorm.apps cfg.Tk.Sendstorm.crash_percent
    cfg.Tk.Sendstorm.hang_percent cfg.Tk.Sendstorm.mailbox_limit
    cfg.Tk.Sendstorm.timeout_ms;
  Printf.printf "  %d sends resolved in %.2f s wall (two runs identical)\n"
    r.Tk.Sendstorm.sends_issued wall;
  Printf.printf "  outcomes:";
  List.iter
    (fun (state, n) -> Printf.printf " %s=%d" state n)
    r.Tk.Sendstorm.outcomes;
  print_newline ();
  Printf.printf
    "  crashes landed %d/%d, hung %d, unresolved futures %d\n"
    r.Tk.Sendstorm.crashes_landed r.Tk.Sendstorm.crashes_planned
    r.Tk.Sendstorm.hung r.Tk.Sendstorm.unresolved_futures;
  Printf.printf
    "  %.1f X requests per send; awaited-send latency p50 %.0f ms, p99 %.0f \
     ms, max %.0f ms (virtual)\n"
    r.Tk.Sendstorm.requests_per_send
    (Tk.Sendstorm.percentile r.Tk.Sendstorm.latencies_ms 50.0)
    (Tk.Sendstorm.percentile r.Tk.Sendstorm.latencies_ms 99.0)
    (Tk.Sendstorm.percentile r.Tk.Sendstorm.latencies_ms 100.0)

(* ------------------------------------------------------------------ *)
(* Ablations *)

let rescache_ablation_case enabled =
  let _server, app = new_display_app "cache" in
  Tk.Rescache.set_enabled app.Tk.Core.cache enabled;
  Server.reset_stats app.Tk.Core.conn;
  (* 40 widgets sharing 2 colors and 1 font: the paper's "few resources
     used in many widgets" case. *)
  for i = 0 to 39 do
    ignore
      (run_tcl app
         (Printf.sprintf
            "button .b%d -text b%d -foreground black -background gray75" i i))
  done;
  Tk.Core.update app;
  (Server.stats app.Tk.Core.conn).Server.resource_allocs

let rescache_ablation () =
  section "Ablation: resource cache on/off (§3.3)";
  let on = rescache_ablation_case true in
  let off = rescache_ablation_case false in
  Printf.printf
    "  resource-allocation requests for 40 buttons: cache on = %d, cache off \
     = %d (%.0fx saved)\n"
    on off
    (float_of_int off /. float_of_int (max 1 on))

let structcache_ablation () =
  section "Ablation: structure cache vs server round trips (§3.3)";
  let _server, app = new_display_app "struct" in
  ignore (run_tcl app "frame .f -width 80 -height 40");
  ignore (run_tcl app "pack append . .f {top}");
  Tk.Core.update app;
  let n = 10_000 in
  Server.reset_stats app.Tk.Core.conn;
  let cached =
    time_wall (fun () ->
        for _ = 1 to n do
          ignore (run_tcl app "winfo width .f")
        done)
  in
  let cached_rts = (Server.stats app.Tk.Core.conn).Server.round_trips in
  let w = Tk.Core.lookup_exn app ".f" in
  Server.reset_stats app.Tk.Core.conn;
  let direct =
    time_wall (fun () ->
        for _ = 1 to n do
          ignore (Server.query_geometry app.Tk.Core.conn w.Tk.Core.win)
        done)
  in
  let direct_rts = (Server.stats app.Tk.Core.conn).Server.round_trips in
  Printf.printf
    "  %d geometry queries: cached %.2f us/query (%d round trips), direct \
     %.2f us/query (%d round trips)\n"
    n
    (cached *. 1e6 /. float_of_int n)
    cached_rts
    (direct *. 1e6 /. float_of_int n)
    direct_rts;
  print_endline
    "  (in real X each round trip costs a network RTT; the cache removes \
     all of them)"

let binding_ablation () =
  section "Ablation: binding dispatch cost vs number of bindings";
  Printf.printf "%10s %18s\n" "bindings" "per keystroke";
  List.iter
    (fun k ->
      let server, app = new_display_app (Printf.sprintf "bind%d" k) in
      ignore (run_tcl app "frame .f -width 60 -height 40");
      ignore (run_tcl app "pack append . .f {top}");
      Tk.Core.update app;
      for i = 1 to k - 1 do
        (* Distinct keysym details, none of which match 'z'. *)
        ignore
          (run_tcl app
             (Printf.sprintf "bind .f <Control-F%d> {set x %d}" i i))
      done;
      ignore (run_tcl app "bind .f z {set hit 1}");
      let w = Tk.Core.lookup_exn app ".f" in
      let win = Option.get (Server.lookup_window server w.Tk.Core.win) in
      let p = Window.root_position win in
      Server.inject_motion server ~x:(p.Geom.x + 5) ~y:(p.Geom.y + 5);
      Tk.Core.update app;
      let n = 2000 in
      let dt =
        time_wall (fun () ->
            for _ = 1 to n do
              Server.inject_key server ~keysym:"z" ~pressed:true;
              Tk.Core.update app
            done)
      in
      Printf.printf "%10d %15.2f us\n" k (dt *. 1e6 /. float_of_int n))
    [ 1; 10; 50; 100 ]

(* ------------------------------------------------------------------ *)
(* Ablation: compiled vs reference Tcl.  The two execution tiers run
   three hot shapes where the same script text is evaluated over and
   over — a recursive proc, a tight while loop, and event-binding
   dispatch: the parse-once caches with bytecode lowered from them (the
   default) against the reference character-at-a-time evaluator (what
   `wish -no-compile-cache` gives).  The parse_passes counter shows how
   many full scans of script text each tier performed.  Each runner
   returns seconds, parse passes, tcl.vm.* over the timed runs, and the
   script-cache hit rate where the workload has one. *)

let compile_stat_int tcl key =
  match List.assoc_opt key (Tcl.Interp.compile_stats tcl) with
  | Some v -> int_of_string v
  | None -> 0

let bench_fib ~n ~compile () =
  let tcl = Tcl.Builtins.new_interp () in
  Tcl.Interp.set_compile_enabled tcl compile;
  ignore
    (Tcl.Interp.eval tcl
       "proc fib {n} {\n\
       \  if {$n < 2} {return $n}\n\
       \  expr {[fib [expr {$n - 1}]] + [fib [expr {$n - 2}]]}\n\
        }");
  let call = Printf.sprintf "fib %d" n in
  (match Tcl.Interp.eval tcl call with
  | Tcl.Interp.Tcl_ok, _ -> ()
  | _, msg -> failwith ("fib bench failed: " ^ msg));
  Tcl.Interp.reset_compile_stats tcl;
  Tcl.Interp.reset_vm_stats tcl;
  let dt = time_min (fun () -> ignore (Tcl.Interp.eval tcl call)) in
  (dt, compile_stat_int tcl "parse_passes", Tcl.Interp.vm_stats tcl, None)

let bench_while_10k ~compile () =
  let tcl = Tcl.Builtins.new_interp () in
  Tcl.Interp.set_compile_enabled tcl compile;
  let script =
    "set total 0\n\
     set i 0\n\
     while {$i < 10000} {\n\
    \  incr total $i\n\
    \  incr i\n\
     }\n\
     set total"
  in
  ignore (Tcl.Interp.eval tcl script);
  Tcl.Interp.reset_compile_stats tcl;
  Tcl.Interp.reset_vm_stats tcl;
  let dt =
    time_min (fun () ->
        match Tcl.Interp.eval tcl script with
        | Tcl.Interp.Tcl_ok, "49995000" -> ()
        | _, v -> failwith ("while bench wrong result: " ^ v))
  in
  (dt, compile_stat_int tcl "parse_passes", Tcl.Interp.vm_stats tcl, None)

(* A grid of buttons, each with a key binding; the pointer parks over one
   and a storm of keystrokes dispatches the same binding script. *)
let bench_binding_storm ~events ~compile () =
  let server, app =
    new_display_app (if compile then "storm-compiled" else "storm-reference")
  in
  Tcl.Interp.set_compile_enabled app.Tk.Core.interp compile;
  let buf = Buffer.create 512 in
  for i = 0 to 11 do
    Buffer.add_string buf (Printf.sprintf "button .b%d -text b%d\n" i i);
    Buffer.add_string buf (Printf.sprintf "pack append . .b%d {top}\n" i);
    Buffer.add_string buf (Printf.sprintf "bind .b%d z {incr hits}\n" i)
  done;
  ignore (run_tcl app (Buffer.contents buf));
  ignore (run_tcl app "set hits 0");
  Tk.Core.update app;
  let w = Tk.Core.lookup_exn app ".b5" in
  let win = Option.get (Server.lookup_window server w.Tk.Core.win) in
  let p = Window.root_position win in
  Server.inject_motion server ~x:(p.Geom.x + 2) ~y:(p.Geom.y + 2);
  Tk.Core.update app;
  Server.inject_key server ~keysym:"z" ~pressed:true;
  Tk.Core.update app;
  Tk.Core.reset_metrics app;
  let dt =
    time_wall (fun () ->
        for _ = 1 to events do
          Server.inject_key server ~keysym:"z" ~pressed:true;
          Tk.Core.update app
        done)
  in
  let m key =
    match Tk.Core.metric app ("tcl.compile." ^ key) with
    | Some v -> int_of_string v
    | None -> 0
  in
  let hits = m "script_hits" and misses = m "script_misses" in
  let hit_rate = float_of_int hits /. float_of_int (max 1 (hits + misses)) in
  (dt, m "parse_passes", Tcl.Interp.vm_stats app.Tk.Core.interp, Some hit_rate)

type script_case = {
  sc_name : string;
  sc_compiled_s : float;
  sc_reference_s : float;
  sc_compiled_passes : int;
  sc_reference_passes : int;
  sc_hit_rate : float option; (* binding storm only *)
  sc_vm : (string * string) list; (* tcl.vm.* from the compiled run *)
}

let collect_script_cases ~smoke =
  let fib_n = if smoke then 14 else 20 in
  let events = if smoke then 300 else 3000 in
  let case name run =
    let c_s, c_p, vm, rate = run ~compile:true () in
    let r_s, r_p, _, _ = run ~compile:false () in
    {
      sc_name = name;
      sc_compiled_s = c_s;
      sc_reference_s = r_s;
      sc_compiled_passes = c_p;
      sc_reference_passes = r_p;
      sc_hit_rate = rate;
      sc_vm = vm;
    }
  in
  [
    case (Printf.sprintf "fib %d (recursive proc)" fib_n) (bench_fib ~n:fib_n);
    case "while 10k accumulate" bench_while_10k;
    case
      (Printf.sprintf "binding storm (%d keys)" events)
      (bench_binding_storm ~events);
  ]

let vm_counters c =
  List.filter
    (fun (k, _) -> List.mem k [ "compiled"; "deopts"; "slot_hits" ])
    c.sc_vm

let scripts_ablation () =
  section "Ablation: compiled (parse-once + bytecode VM) vs reference Tcl";
  Printf.printf "%-28s %12s %12s %9s %9s %9s  %s\n" "workload" "compiled"
    "reference" "speedup" "passes c" "passes r" "tcl.vm.* (compiled run)";
  List.iter
    (fun c ->
      Printf.printf "%-28s %9.2f ms %9.2f ms %8.1fx %9d %9d  %s%s\n" c.sc_name
        (c.sc_compiled_s *. 1000.0)
        (c.sc_reference_s *. 1000.0)
        (c.sc_reference_s /. Float.max 1e-9 c.sc_compiled_s)
        c.sc_compiled_passes c.sc_reference_passes
        (String.concat " "
           (List.map (fun (k, v) -> k ^ "=" ^ v) (vm_counters c)))
        (match c.sc_hit_rate with
        | Some r -> Printf.sprintf " (cache hit rate %.1f%%)" (r *. 100.0)
        | None -> ""))
    (collect_script_cases ~smoke:false)

let optiondb_ablation () =
  section "Ablation: option database lookup vs database size (§3.5)";
  Printf.printf "%10s %18s\n" "entries" "per lookup";
  List.iter
    (fun n ->
      let db = Tk.Optiondb.create () in
      for i = 0 to n - 1 do
        Tk.Optiondb.add db
          ~pattern:(Printf.sprintf "*widget%d.background" i)
          "red"
      done;
      Tk.Optiondb.add db ~pattern:"*Button.background" "blue";
      let chain = [ ("app", "Tk"); ("b", "Button") ] in
      let lookups = 5000 in
      let dt =
        time_wall (fun () ->
            for _ = 1 to lookups do
              ignore
                (Tk.Optiondb.get db ~name_chain:chain ~name:"background"
                   ~cls:"Background")
            done)
      in
      Printf.printf "%10d %15.2f us\n" n (dt *. 1e6 /. float_of_int lookups))
    [ 10; 100; 1000 ]

(* ------------------------------------------------------------------ *)
(* Whole-program analyzer throughput: lines/sec, procedures and
   call-graph edges over examples/ and a synthetic proc-heavy corpus. *)

type lint_row = {
  li_name : string;
  li_files : int;
  li_lines : int;
  li_procs : int;
  li_edges : int;
  li_diags : int;
  li_wall_s : float;
}

(* cwd is the workspace root under [dune exec], _build/default under
   direct execution. *)
let examples_dir () =
  if Sys.file_exists "examples" then Some "examples"
  else if Sys.file_exists "../examples" then Some "../examples"
  else None

let lint_sources () =
  match examples_dir () with
  | None -> []
  | Some dir ->
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun e -> Filename.check_suffix e ".tcl")
    |> List.sort String.compare
    |> List.map (fun e ->
           let f = Filename.concat dir e in
           (Some f, In_channel.with_open_text f In_channel.input_all))

let synthetic_corpus n =
  let buf = Buffer.create (n * 160) in
  for i = 0 to n - 1 do
    Buffer.add_string buf
      (Printf.sprintf
         "proc helper%d {a b} {\n\
         \  set t [expr $a + $b]\n\
         \  if {$t > 100} {return $t}\n\
         \  return [expr $t * 2]\n\
          }\n"
         i)
  done;
  for i = 0 to n - 1 do
    Buffer.add_string buf (Printf.sprintf "helper%d %d %d\n" i i (i + 1))
  done;
  Buffer.contents buf

let count_lines s =
  String.fold_left (fun acc c -> if c = '\n' then acc + 1 else acc) 1 s

let lint_case name files =
  let _server, app = new_display_app ("lint_" ^ name) in
  (* The examples run under wish, where the simulation commands exist;
     mirror that environment so the sweep stays diagnostic-free. *)
  List.iter
    (fun cmd ->
      Tcl.Interp.register_value app.Tk.Core.interp
        (Tcl.Interp.signature cmd 0 ~usage:cmd)
        (fun _ _ -> ""))
    [ "screendump"; "inject"; "serverstats"; "faultstats"; "crashtest" ];
  let lines = List.fold_left (fun acc (_, s) -> acc + count_lines s) 0 files in
  let out =
    ref (Tcl.Lint.analyze_program ~whole:true app.Tk.Core.interp files)
  in
  let wall =
    time_min ~reps:3 (fun () ->
        out := Tcl.Lint.analyze_program ~whole:true app.Tk.Core.interp files)
  in
  {
    li_name = name;
    li_files = List.length files;
    li_lines = lines;
    li_procs = !out.Tcl.Lint.o_procs;
    li_edges = !out.Tcl.Lint.o_edges;
    li_diags = List.length !out.Tcl.Lint.o_diags;
    li_wall_s = wall;
  }

let collect_lint_cases ~smoke =
  let ex = match lint_sources () with [] -> [] | files -> [ ("examples", files) ] in
  let n = if smoke then 50 else 400 in
  let cases =
    ex
    @ [ (Printf.sprintf "synthetic_%d_procs" n, [ (None, synthetic_corpus n) ]) ]
  in
  List.map (fun (name, files) -> lint_case name files) cases

let lint_section ~smoke =
  section "Whole-program analysis (tclcheck engine): throughput";
  Printf.printf "%-24s %6s %7s %7s %8s %7s %10s %12s\n" "corpus" "files"
    "lines" "procs" "edges" "diags" "wall ms" "lines/sec";
  List.iter
    (fun r ->
      Printf.printf "%-24s %6d %7d %7d %8d %7d %10.2f %12.0f\n" r.li_name
        r.li_files r.li_lines r.li_procs r.li_edges r.li_diags
        (r.li_wall_s *. 1000.0)
        (float_of_int r.li_lines /. Float.max 1e-9 r.li_wall_s))
    (collect_lint_cases ~smoke)

(* ------------------------------------------------------------------ *)
(* Canvas at scale: per-item cost of create / move-one / move-tag /
   find-overlapping / full redraw as the item count sweeps 1k → 100k,
   with the spatial index ablated (Canvas.install ~index:false) for contrast.
   The claim is that the move-one and find columns stay roughly flat under
   the grid index while the ablation shows the linear cliff; "considered"
   is how many items the damaged repaint sweep actually touched. *)

type canvas_row = {
  cv_n : int;
  cv_indexed : bool;
  cv_create_us : float; (* per item, batch-coalesced damage *)
  cv_move_one_us : float; (* one move + its damage sweep *)
  cv_move_tag_us : float; (* per member of a clustered 100-item tag, + sweep *)
  cv_find_us : float; (* find overlapping, small query rect *)
  cv_full_redraw_ms : float; (* schedule_redraw + sweep, whole store *)
  cv_considered : int; (* items considered per damaged sweep *)
}

let canvas_case ~indexed n =
  (* Isolate from whatever heap the surrounding sections accumulated: the
     per-item numbers here are minor-GC-sensitive, and a few hundred MB of
     dead storm/app state inflates them several-fold. *)
  Gc.compact ();
  let _server, app =
    new_display_app (Printf.sprintf "cv%d%c" n (if indexed then 'i' else 'l'))
  in
  Tk_widgets.Canvas.install ~index:indexed app;
  ignore (run_tcl app "canvas .c -width 300 -height 200");
  ignore (run_tcl app "pack append . .c {top}");
  Tk.Core.update app;
  let metric name =
    match Tk.Core.metric app name with Some v -> int_of_string v | None -> 0
  in
  (* n small rectangles hashed over a plane that grows with sqrt(n), so
     item density (and thus grid-cell occupancy) is constant across the
     sweep — the per-query cost should then be flat under the index. *)
  let side = max 400 (int_of_float (sqrt (float_of_int n) *. 24.0)) in
  let create_s =
    time_wall (fun () ->
        for i = 0 to n - 1 do
          let x = i * 2654435761 land 0x3FFFFFFF mod side
          and y = (i * 1327217885) land 0x3FFFFFFF mod side in
          ignore
            (run_tcl app
               (Printf.sprintf ".c create rectangle %d %d %d %d" x y (x + 6)
                  (y + 4)))
        done)
  in
  (* A spatially clustered "hot" tag — the dashboard shape: a burst of
     points in one region updating each frame while the rest sit still. *)
  for i = 0 to 99 do
    ignore
      (run_tcl app
         (Printf.sprintf ".c create rectangle %d %d %d %d -tags hot"
            (10 + (i mod 10 * 9))
            (10 + (i / 10 * 9))
            (14 + (i mod 10 * 9))
            (13 + (i / 10 * 9))))
  done;
  Tk.Core.update app;
  let hot =
    List.length
      (List.filter
         (fun s -> s <> "")
         (String.split_on_char ' ' (run_tcl app ".c find withtag hot")))
  in
  let reps = if n >= 100_000 then 100 else 200 in
  let considered0 = metric "tk.canvas.items_considered" in
  let sweeps0 =
    metric "tk.canvas.damage_redraws" + metric "tk.canvas.full_redraws"
  in
  let move_one_s =
    time_wall (fun () ->
        for _ = 1 to reps do
          ignore (run_tcl app ".c move 1 1 1");
          Tk.Core.update app
        done)
  in
  let sweeps =
    metric "tk.canvas.damage_redraws" + metric "tk.canvas.full_redraws"
    - sweeps0
  in
  let considered =
    (metric "tk.canvas.items_considered" - considered0) / max 1 sweeps
  in
  let tag_reps = 20 in
  let move_tag_s =
    time_wall (fun () ->
        for _ = 1 to tag_reps do
          ignore (run_tcl app ".c move hot 1 1");
          Tk.Core.update app
        done)
  in
  let find_reps = reps in
  let find_s =
    time_wall (fun () ->
        for _ = 1 to find_reps do
          ignore (run_tcl app ".c find overlapping 500 500 540 540")
        done)
  in
  let full_s =
    time_min ~reps:3 (fun () ->
        Tk.Core.schedule_redraw (Tk.Core.lookup_exn app ".c");
        Tk.Core.update app)
  in
  {
    cv_n = n;
    cv_indexed = indexed;
    cv_create_us = create_s *. 1e6 /. float_of_int n;
    cv_move_one_us = move_one_s *. 1e6 /. float_of_int reps;
    cv_move_tag_us = move_tag_s *. 1e6 /. float_of_int (tag_reps * max 1 hot);
    cv_find_us = find_s *. 1e6 /. float_of_int find_reps;
    cv_full_redraw_ms = full_s *. 1e3;
    cv_considered = considered;
  }

let collect_canvas_cases ~smoke =
  let ns = if smoke then [ 1000 ] else [ 1000; 10_000; 100_000 ] in
  List.concat_map
    (fun n -> [ canvas_case ~indexed:true n; canvas_case ~indexed:false n ])
    ns

let canvas_sweep () =
  section "Canvas at scale: grid index + damage-region redraw";
  Printf.printf "%8s %6s %11s %11s %13s %11s %13s %11s\n" "items" "index"
    "create/it" "move-one" "move-tag/it" "find-over" "full redraw" "considered";
  List.iter
    (fun r ->
      Printf.printf
        "%8d %6s %9.2fus %9.2fus %11.2fus %9.2fus %11.2fms %11d\n" r.cv_n
        (if r.cv_indexed then "on" else "off")
        r.cv_create_us r.cv_move_one_us r.cv_move_tag_us r.cv_find_us
        r.cv_full_redraw_ms r.cv_considered)
    (collect_canvas_cases ~smoke:false)

(* ------------------------------------------------------------------ *)
(* JSON emission (--json FILE): the Table II numbers, the paper-style
   traffic budgets, cache hit rates and the full metrics registry, in a
   machine-readable file that seeds the repo's perf trajectory
   (BENCH_pr3.json). --smoke shrinks measurement quotas for CI. *)

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 32 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

type json =
  | J_int of int
  | J_float of float
  | J_string of string
  | J_list of json list
  | J_obj of (string * json) list

let rec json_render buf indent = function
  | J_int i -> Buffer.add_string buf (string_of_int i)
  | J_float f ->
    (* A failed OLS estimate is nan; JSON has no nan, so emit null. *)
    if not (Float.is_finite f) then Buffer.add_string buf "null"
    else Buffer.add_string buf (Printf.sprintf "%.3f" f)
  | J_string s -> Buffer.add_string buf (Printf.sprintf "\"%s\"" (json_escape s))
  | J_list items ->
    Buffer.add_string buf "[";
    List.iteri
      (fun i item ->
        if i > 0 then Buffer.add_string buf ", ";
        json_render buf indent item)
      items;
    Buffer.add_string buf "]"
  | J_obj fields ->
    let pad = String.make indent ' ' in
    Buffer.add_string buf "{\n";
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_string buf ",\n";
        Buffer.add_string buf
          (Printf.sprintf "%s  \"%s\": " pad (json_escape k));
        json_render buf (indent + 2) v)
      fields;
    Buffer.add_string buf (Printf.sprintf "\n%s}" pad)

(* Counter values from Core.metrics_snapshot are decimal strings (the
   sweep latencies are decimal floats); re-type them for JSON. *)
let json_of_counter v =
  match int_of_string_opt v with
  | Some i -> J_int i
  | None -> (
    match float_of_string_opt v with Some f -> J_float f | None -> J_string v)

(* The paper-style traffic budget: requests to create-and-display the
   first button vs a second identical one (GC/resource cache, §3.3),
   measured under tracing so the trace depth is exercised too. *)
let button_traffic_budget () =
  let _server, app = new_display_app "budget" in
  let conn = app.Tk.Core.conn in
  Server.set_tracing conn true;
  let create i =
    Tk.Core.reset_metrics app;
    ignore (run_tcl app (Printf.sprintf "button .b%d -text {Button %d}" i i));
    ignore (run_tcl app (Printf.sprintf "pack append . .b%d {top}" i));
    Tk.Core.update app;
    (Server.stats conn).Server.total_requests
  in
  let first = create 1 in
  let second = create 2 in
  let snapshot = Tk.Core.metrics_snapshot app in
  (first, second, Server.trace_length conn, snapshot)

let cache_hit_rate_workload () =
  let _server, app = new_display_app "hitrate" in
  Tk.Rescache.reset_counters app.Tk.Core.cache;
  create_destroy_buttons app 40;
  let hits = Tk.Rescache.hits app.Tk.Core.cache in
  let misses = Tk.Rescache.misses app.Tk.Core.cache in
  (hits, misses)

let storm_json ~smoke =
  let r, wall = storm_runs ~smoke in
  let cfg = r.Tk.Sendstorm.cfg in
  J_obj
    [
      ( "config",
        J_obj
          [
            ("apps", J_int cfg.Tk.Sendstorm.apps);
            ("crash_percent", J_int cfg.Tk.Sendstorm.crash_percent);
            ("hang_percent", J_int cfg.Tk.Sendstorm.hang_percent);
            ("sends_per_app", J_int cfg.Tk.Sendstorm.sends_per_app);
            ("mailbox_limit", J_int cfg.Tk.Sendstorm.mailbox_limit);
            ("timeout_ms", J_int cfg.Tk.Sendstorm.timeout_ms);
            ("seed", J_int cfg.Tk.Sendstorm.seed);
          ] );
      ("deterministic", J_string "true");
      ("wall_s", J_float wall);
      ("sends_issued", J_int r.Tk.Sendstorm.sends_issued);
      ( "outcomes",
        J_obj
          (List.map (fun (s, n) -> (s, J_int n)) r.Tk.Sendstorm.outcomes) );
      ("crashes_planned", J_int r.Tk.Sendstorm.crashes_planned);
      ("crashes_landed", J_int r.Tk.Sendstorm.crashes_landed);
      ("hung", J_int r.Tk.Sendstorm.hung);
      ("unresolved_futures", J_int r.Tk.Sendstorm.unresolved_futures);
      ("requests_total", J_int r.Tk.Sendstorm.requests_total);
      ("requests_per_send", J_float r.Tk.Sendstorm.requests_per_send);
      ( "latency_ms_p50",
        J_float (Tk.Sendstorm.percentile r.Tk.Sendstorm.latencies_ms 50.0) );
      ( "latency_ms_p99",
        J_float (Tk.Sendstorm.percentile r.Tk.Sendstorm.latencies_ms 99.0) );
      ( "latency_ms_max",
        J_float (Tk.Sendstorm.percentile r.Tk.Sendstorm.latencies_ms 100.0) );
      ( "counters",
        J_obj (List.map (fun (k, v) -> (k, J_int v)) r.Tk.Sendstorm.counters)
      );
    ]

let emit_json ~path ~smoke =
  let heap_start = record_heap "before JSON collection" in
  let quota = if smoke then Some 0.05 else None in
  (* Collected first, on a pristine heap: the canvas numbers are per-item
     microcosts whose GC component must not be billed for the hundreds of
     MB the storm and script sections allocate.  (Also note OCaml
     evaluates the record literal below right-to-left — an inline call
     down there would run dead last.) *)
  let canvas_cases = collect_canvas_cases ~smoke in
  let set_a = bench_set_a_1 ?quota () in
  let send, send_reqs, send_rts = bench_send_empty ?quota () in
  let btn, btn_reqs =
    bench_50_buttons ~quota:(if smoke then 0.1 else 1.0) ()
  in
  let first_reqs, second_reqs, trace_records, snapshot =
    button_traffic_budget ()
  in
  let hits, misses = cache_hit_rate_workload () in
  let abl_on = rescache_ablation_case true in
  let abl_off = rescache_ablation_case false in
  let ib = bench_interp ?quota () in
  let lint_cases = collect_lint_cases ~smoke in
  let scripts =
    List.map
      (fun c ->
        J_obj
          ([
             ("workload", J_string c.sc_name);
             ("compiled_ms", J_float (c.sc_compiled_s *. 1000.0));
             ("reference_ms", J_float (c.sc_reference_s *. 1000.0));
             ( "speedup",
               J_float (c.sc_reference_s /. Float.max 1e-9 c.sc_compiled_s) );
             ("parse_passes_compiled", J_int c.sc_compiled_passes);
             ("parse_passes_reference", J_int c.sc_reference_passes);
           ]
          @ List.map
              (fun (k, v) -> ("vm_" ^ k, json_of_counter v))
              (vm_counters c)
          @
          match c.sc_hit_rate with
          | Some r -> [ ("compile_cache_hit_rate", J_float r) ]
          | None -> []))
      (collect_script_cases ~smoke)
  in
  let timing t =
    [ ("ns_per_op", J_float t.ns); ("spread", J_float t.spread) ]
  in
  let sweep =
    List.map
      (fun n ->
        let _server, app = new_display_app (Printf.sprintf "sweep%d" n) in
        create_destroy_buttons app n;
        let runs = if smoke then 2 else 5 in
        let dt =
          time_wall (fun () ->
              for _ = 1 to runs do
                create_destroy_buttons app n
              done)
        in
        let per_widget_us = dt /. float_of_int runs *. 1e6 /. float_of_int n in
        J_obj [ ("widgets", J_int n); ("us_per_widget", J_float per_widget_us) ])
      (if smoke then [ 10; 25 ] else [ 10; 25; 50; 100 ])
  in
  let storm = storm_json ~smoke in
  let heap_end = record_heap "after JSON collection" in
  let doc =
    J_obj
      [
        ("benchmark", J_string "tk-repro");
        ("pr", J_int 29);
        ("mode", J_string (if smoke then "smoke" else "full"));
        ( "table2",
          J_obj
            [
              ("set_a_1", J_obj (timing set_a @ [ ("paper_us", J_int 68) ]));
              ( "send_empty",
                J_obj
                  (timing send
                  @ [
                      ("requests", J_int send_reqs);
                      ("round_trips", J_int send_rts);
                      ("paper_ms", J_int 15);
                    ]) );
              ( "create_destroy_50_buttons",
                J_obj
                  (timing btn
                  @ [
                      ("requests", J_int btn_reqs); ("paper_ms", J_int 440);
                    ]) );
            ] );
        ( "traffic_budget",
          J_obj
            [
              ("first_button_requests", J_int first_reqs);
              ("second_button_requests", J_int second_reqs);
              ("trace_records", J_int trace_records);
            ] );
        ( "rescache",
          J_obj
            [
              ("hits", J_int hits);
              ("misses", J_int misses);
              ( "hit_rate",
                J_float (float_of_int hits /. float_of_int (max 1 (hits + misses)))
              );
              ("ablation_allocs_cache_on", J_int abl_on);
              ("ablation_allocs_cache_off", J_int abl_off);
            ] );
        ( "interp",
          J_obj
            [
              ("create_delete_ns", J_float ib.ib_create_delete_ns);
              ("alias_roundtrip_ns", J_float ib.ib_alias_ns);
              ("set_a_1_guard_off_ns", J_float ib.ib_guard_off_ns);
              ("set_a_1_guard_on_ns", J_float ib.ib_guard_on_ns);
              ( "guard_overhead_pct",
                J_float
                  ((ib.ib_guard_on_ns
                    /. Float.max 1e-9 ib.ib_guard_off_ns
                   -. 1.0)
                  *. 100.0) );
            ] );
        ("widget_sweep", J_list sweep);
        ( "canvas",
          J_list
            (List.map
               (fun r ->
                 J_obj
                   [
                     ("items", J_int r.cv_n);
                     ("index", J_string (if r.cv_indexed then "on" else "off"));
                     ("create_us_per_item", J_float r.cv_create_us);
                     ("move_one_us", J_float r.cv_move_one_us);
                     ("move_tag_us_per_member", J_float r.cv_move_tag_us);
                     ("find_overlapping_us", J_float r.cv_find_us);
                     ("full_redraw_ms", J_float r.cv_full_redraw_ms);
                     ("damaged_sweep_items_considered", J_int r.cv_considered);
                   ])
               canvas_cases) );
        ("scripts", J_list scripts);
        ( "lint",
          J_obj
            [
              ( "corpora",
                J_list
                  (List.map
                     (fun r ->
                       J_obj
                         [
                           ("corpus", J_string r.li_name);
                           ("files", J_int r.li_files);
                           ("lines", J_int r.li_lines);
                           ("procs", J_int r.li_procs);
                           ("call_graph_edges", J_int r.li_edges);
                           ("diagnostics", J_int r.li_diags);
                           ("wall_ms", J_float (r.li_wall_s *. 1000.0));
                           ( "lines_per_sec",
                             J_float
                               (float_of_int r.li_lines
                               /. Float.max 1e-9 r.li_wall_s) );
                         ])
                     lint_cases) );
            ] );
        ("send_storm", storm);
        ( "heap_live_words",
          J_obj [ ("start", J_int heap_start); ("end", J_int heap_end) ] );
        ( "counters",
          J_obj (List.map (fun (k, v) -> (k, json_of_counter v)) snapshot) );
      ]
  in
  let buf = Buffer.create 4096 in
  json_render buf 0 doc;
  Buffer.add_char buf '\n';
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc (Buffer.contents buf));
  Printf.printf "wrote %s (%d bytes)\n" path (Buffer.length buf);
  check_heap ()

(* ------------------------------------------------------------------ *)

let full_suite () =
  print_endline "Tk reproduction benchmarks (paper: Ousterhout, USENIX '91)";
  print_endline "Absolute numbers are 2020s-OCaml-vs-1990-C; compare shapes.";
  table1 ();
  table2 ();
  tcl_micro ();
  figure8 ();
  widget_sweep ();
  canvas_sweep ();
  send_sweep ();
  send_storm_section ();
  interp_section ();
  rescache_ablation ();
  structcache_ablation ();
  binding_ablation ();
  scripts_ablation ();
  optiondb_ablation ();
  lint_section ~smoke:false;
  ignore (record_heap "end of suite");
  check_heap ();
  print_newline ()

let () =
  let rec parse json smoke = function
    | [] -> (json, smoke)
    | "--json" :: path :: rest -> parse (Some path) smoke rest
    | "--smoke" :: rest -> parse json true rest
    | arg :: _ ->
      Printf.eprintf "usage: main.exe ?--json FILE? ?--smoke?\n";
      Printf.eprintf "unknown argument: %s\n" arg;
      exit 2
  in
  match parse None false (List.tl (Array.to_list Sys.argv)) with
  | Some path, smoke -> emit_json ~path ~smoke
  | None, _ -> full_suite ()
