(* The closed-loop benchmark: one workload per process, one client, the
   next op starting only when the previous one has returned.

     perfbench --workload NAME --seed N --seconds S --trace 0|1

   Phases: a determinism check (two fresh set-ups run the same ops and
   must count the same requests, round trips and Tcl commands), timed
   set-ups, warm-up, [Gc.compact], the timed phase of whole blocks, the
   end-of-run checks, and timed set-ups again (setup_s comes from both
   groups).  Counters are reset before the timed phase and read at
   its middle and end only.  Latency and throughput are medians over
   windows of the phase, each scaled by how slow the shared host was
   while it ran (see [host_probe] and [windows]).

   With --trace 0 the last line carries the end-to-end metrics.  With
   --trace 1 the timed phase alternates untraced and traced blocks: the
   traced ones record spans at the layer boundaries (see Probe), and the
   last line carries the per-layer metrics, including the tracing
   overhead measured against the untraced blocks.  Every earlier line is
   a human-readable report. *)

let workloads = [ Tcl_scripts.workload; Gui_events.workload; Send_fleet.workload ]

let now_ns = Probe.now_ns

(* Set-up is timed [setups_before] times before the timed phase (the
   last instance is kept for it) and again after it, at least
   [min_setups_after] and, while that group stays within
   [setup_budget_ns], up to [max_setups_after] times.  setup_s is the
   mean of the middle 80% of all of them, divided by the timed phase's
   median slowness (see [host_probe]).  A mean, not a median: the median
   of a cheap set-up (a bare interpreter takes a fraction of a
   millisecond) flipped between two levels from run to run, probably as
   GC work landed in more or fewer of its repeats.  The second group
   gives a cheap set-up enough samples.  The count before the timed
   phase is fixed, so the heap it leaves is the same in every run. *)
let setups_before = 11
let min_setups_after = 11
let max_setups_after = 101
let setup_budget_ns = 1_000_000_000
let check_ops = 100

(* ------------------------------------------------------------------ *)
(* Arguments *)

let usage =
  Printf.sprintf
    "perfbench --workload {%s} --seed N --seconds S --trace 0|1"
    (String.concat "," (List.map (fun w -> w.Workload.name) workloads))

let parse_args () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 in
  let trace = ref 0 in
  let specs =
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N seed of the op sequence");
      ("--seconds", Arg.Set_float seconds, "S length of the timed phase");
      ("--trace", Arg.Set_int trace, "0|1 per-layer traced run");
    ]
  in
  Arg.parse specs (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  match List.find_opt (fun w -> w.Workload.name = !workload) workloads with
  | Some w when !seconds > 0.0 && (!trace = 0 || !trace = 1) ->
    (w, !seed, !seconds, !trace = 1)
  | _ ->
    prerr_endline usage;
    exit 2

(* ------------------------------------------------------------------ *)
(* Latency samples: off-heap, so they neither show in live_heap_mb nor
   add to what the GC scans. *)

module Samples = struct
  module A = Bigarray.Array1

  type t = {
    mutable ns : (int, Bigarray.int_elt, Bigarray.c_layout) A.t;
    mutable cls : (int, Bigarray.int_elt, Bigarray.c_layout) A.t;
    mutable n : int;
  }

  let alloc n = A.create Bigarray.int Bigarray.c_layout n
  let create () = { ns = alloc 65536; cls = alloc 65536; n = 0 }

  let push s ~ns ~cls =
    if s.n = A.dim s.ns then begin
      let grow a =
        let b = alloc (2 * A.dim a) in
        A.blit a (A.sub b 0 (A.dim a));
        b
      in
      s.ns <- grow s.ns;
      s.cls <- grow s.cls
    end;
    s.ns.{s.n} <- ns;
    s.cls.{s.n} <- cls;
    s.n <- s.n + 1

  (* Sorted latencies of samples [lo, hi), optionally of one class. *)
  let sorted ?cls ?(lo = 0) ?hi s =
    let l = ref [] in
    for i = Option.value hi ~default:s.n - 1 downto lo do
      if cls = None || cls = Some s.cls.{i} then l := s.ns.{i} :: !l
    done;
    let a = Array.of_list !l in
    Array.sort compare a;
    a
end

(* Nearest-rank percentile of sorted nanoseconds, in microseconds. *)
let percentile_us a p =
  let n = Array.length a in
  if n = 0 then 0.0
  else
    let k = max 1 (int_of_float (Float.ceil (p *. float_of_int n))) in
    float_of_int a.(min n k - 1) /. 1e3

let median_float l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Mean of the middle 80%. *)
let trimmed_mean l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  let k = n / 10 in
  let sum = ref 0.0 in
  for i = k to n - k - 1 do
    sum := !sum +. a.(i)
  done;
  !sum /. float_of_int (n - (2 * k))

let div a b = if b = 0.0 then 0.0 else a /. b
let fi = float_of_int

(* ------------------------------------------------------------------ *)
(* Running ops *)

let failures_shown = ref 0

let run_one (inst : Workload.instance) i =
  let ok = try inst.Workload.run_op i with _ -> false in
  if (not ok) && !failures_shown < 5 then begin
    incr failures_shown;
    Printf.eprintf "perfbench: op %d (class %d) failed\n%!" i
      (inst.Workload.op_class i)
  end;
  ok

(* Host speed.  The benchmark shares the machine with other tenants,
   whose load slowed every workload here by 20-60% for stretches of
   seconds to whole runs.  [host_probe] times a fixed walk of 10,000
   random reads over a 256 KB off-heap array that shares no code or data
   with the program.  Run right after a block, whose allocation has
   pushed the array out of the core's own cache, it reads from the
   shared cache, and it slowed with the workloads: over the half-second
   windows of single runs, scaling by it cut the spread of p50 on
   tcl_scripts and send_fleet by half or more, and of p99 on gui_events
   (perfbench/README.md has the figures).  A chain of pure arithmetic,
   timed the same way, missed the slow spells of the first two. *)
let probe_reads = 10_000

let probe_array =
  lazy
    (let a = Bigarray.Array1.create Bigarray.int Bigarray.c_layout (1 lsl 15) in
     Bigarray.Array1.fill a 1;
     a)

let host_probe () =
  let a = Lazy.force probe_array in
  let t0 = now_ns () in
  let x = ref 1 and sum = ref 0 in
  for _ = 1 to probe_reads do
    (* A full-period generator over the array's 2^15 slots. *)
    x := ((!x * 1103515245) + 12345) land 0x7FFF;
    sum := !sum + a.{!x}
  done;
  let t1 = now_ns () in
  assert (!sum = probe_reads);
  t1 - t0

(* A round figure near the probe's time on a quiet host of the machine
   the bounds were set on (a 2.1 GHz Xeon, two vCPUs).  It fixes the unit
   of the scaled timings, nothing else. *)
let reference_probe_ns = 70_000.0

(* How many times slower than the reference host the host ran: 1.0 when
   quiet. *)
let slowness probe = fi probe /. reference_probe_ns

(* Run [n] ops from [first], untimed; returns the failures. *)
let run_ops inst ~first n =
  let failed = ref 0 in
  for i = first to first + n - 1 do
    if not (run_one inst i) then incr failed
  done;
  !failed

type phase = {
  untraced : Samples.t;
  traced : Samples.t;
  mutable failed : int;
  mutable untraced_ns : int;
  mutable traced_ns : int;
  mutable untraced_blocks : (int * int * int) list;
      (** per untraced block, newest first: samples so far, duration, and
          the host probe's time right after it *)
  mutable minor_words : float;  (** over untraced blocks *)
  mutable promoted_words : float;
  mutable mid_ops : int;
  mutable mid_counts : Counts.t;
  mutable end_counts : Counts.t;
}

let timed_phase (inst : Workload.instance) ~first ~seconds ~trace =
  let p =
    {
      untraced = Samples.create ();
      traced = Samples.create ();
      failed = 0;
      untraced_ns = 0;
      traced_ns = 0;
      untraced_blocks = [];
      minor_words = 0.0;
      promoted_words = 0.0;
      mid_ops = 0;
      mid_counts = [||];
      end_counts = [||];
    }
  in
  let b = inst.Workload.block in
  let span_ns = int_of_float (seconds *. 1e9) in
  let next = ref first and blocks = ref 0 in
  let t_start = now_ns () in
  (* GC words come from [Gc.quick_stat], not [Gc.counters]: on OCaml
     5.1.1, calling [Gc.counters] here aborted the process on some seeds
     with "allocation failure during minor GC". *)
  while now_ns () - t_start < span_ns || !blocks mod 2 = 1 do
    let traced = trace && !blocks mod 2 = 1 in
    let store = if traced then p.traced else p.untraced in
    let g0 = Gc.quick_stat () in
    if traced then Probe.start_tracing ();
    let b0 = now_ns () in
    for i = !next to !next + b - 1 do
      let t0 = now_ns () in
      let ok =
        if traced then Probe.traced_op i (fun () -> run_one inst i)
        else run_one inst i
      in
      let t1 = now_ns () in
      Samples.push store ~ns:(t1 - t0) ~cls:(inst.Workload.op_class i);
      if not ok then p.failed <- p.failed + 1
    done;
    let b1 = now_ns () in
    if traced then begin
      Probe.stop_tracing ();
      p.traced_ns <- p.traced_ns + (b1 - b0)
    end
    else begin
      let g1 = Gc.quick_stat () in
      p.untraced_ns <- p.untraced_ns + (b1 - b0);
      p.untraced_blocks <-
        (p.untraced.Samples.n, b1 - b0, host_probe ()) :: p.untraced_blocks;
      p.minor_words <- p.minor_words +. (g1.Gc.minor_words -. g0.Gc.minor_words);
      p.promoted_words <-
        p.promoted_words +. (g1.Gc.promoted_words -. g0.Gc.promoted_words)
    end;
    next := !next + b;
    incr blocks;
    (* One read at the first even block boundary past half time, so both
       halves hold whole pairs of blocks. *)
    if p.mid_ops = 0 && !blocks mod 2 = 0 && b1 - t_start >= span_ns / 2
    then begin
      p.mid_ops <- !next - first;
      p.mid_counts <- inst.Workload.counts ()
    end
  done;
  p.end_counts <- inst.Workload.counts ();
  (p, !next - first)

(* End-to-end timings.  Consecutive untraced blocks are grouped into
   windows of at least [window_ns] and [window_ops] ops (so at least ten
   samples lie beyond a window's p99).  Each window gives a p50, a p99
   and an ops/s, and the median [slowness] over its blocks; [scaled]
   divides its latencies by that slowness and multiplies its rate by it.
   The reported figures are medians over all windows, so a slow spell
   that slows the probe as much as the program cancels out, while a
   change to the program, whose code the probe never runs, shows in
   full; and no window is dropped, so a cost of the program that recurs
   every few windows stays in at its own rate.  Blocks left over at the
   end join the last window. *)
let window_ns = 500_000_000
let window_ops = 1000

type window = {
  p50 : float;
  p99 : float;
  ops_per_s : float;
  ops : int;
  beyond : int;  (** samples above p99 *)
  slow : float;  (** median slowness of the host *)
}

let window_stats lat ~ns ~slow =
  let p99 = percentile_us lat 0.99 in
  {
    p50 = percentile_us lat 0.50;
    p99;
    ops_per_s = div (fi (Array.length lat)) (fi ns /. 1e9);
    ops = Array.length lat;
    beyond =
      Array.fold_left (fun n x -> if fi x /. 1e3 > p99 then n + 1 else n) 0 lat;
    slow;
  }

let windows p =
  let full (lo, hi, ns, _) = ns >= window_ns && hi - lo >= window_ops in
  (* Groups of blocks, newest first: samples [lo, hi), wall time, probes. *)
  let groups =
    List.fold_left
      (fun gs (hi, ns, probe) ->
        match gs with
        | ((lo, _, acc, probes) as g) :: rest when not (full g) ->
          (lo, hi, acc + ns, probe :: probes) :: rest
        | _ ->
          let lo = match gs with (_, h, _, _) :: _ -> h | [] -> 0 in
          (lo, hi, ns, [ probe ]) :: gs)
      [] (List.rev p.untraced_blocks)
  in
  (* A short remainder joins the window before it. *)
  let groups =
    match groups with
    | ((_, hi, ns, probes) as g) :: (lo, _, ns', probes') :: rest
      when not (full g) ->
      (lo, hi, ns + ns', probes @ probes') :: rest
    | gs -> gs
  in
  List.rev_map
    (fun (lo, hi, ns, probes) ->
      window_stats (Samples.sorted ~lo ~hi p.untraced) ~ns
        ~slow:(median_float (List.map slowness probes)))
    groups

let scaled w =
  {
    w with
    p50 = w.p50 /. w.slow;
    p99 = w.p99 /. w.slow;
    ops_per_s = w.ops_per_s *. w.slow;
  }

(* ------------------------------------------------------------------ *)
(* Output *)

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.17g" v

let print_result ~correct ~attempted ~failed metrics =
  let m =
    List.map
      (fun (name, unit, v) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name
          (json_number v) unit)
      metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct attempted failed (String.concat ", " m)

(* Per-layer metrics of a traced run.  Times come from the traced
   blocks' spans; counts from the whole timed phase, whose blocks all
   repeat the same ops. *)
let per_layer p ~ops ~total =
  let s = Probe.analyse () in
  Printf.printf
    "# spans over %d traced ops (GC between ops %.1f us, runtime events \
     lost %d):\n"
    p.traced.Samples.n
    (fi s.Probe.gc_outside_ns /. 1e3)
    !Probe.lost_events;
  Array.iteri
    (fun k name ->
      Printf.printf "#   %-15s spans %8d  total %12.1f us  self %12.1f us\n"
        name s.Probe.spans.(k)
        (fi s.Probe.total_ns.(k) /. 1e3)
        (fi s.Probe.self_ns.(k) /. 1e3))
    Probe.kind_names;
  let traced = fi p.traced.Samples.n in
  let self_us k = div (fi s.Probe.self_ns.(k) /. 1e3) traced in
  let total_us k = div (fi s.Probe.total_ns.(k) /. 1e3) traced in
  let c i = div (fi total.(i)) (fi ops) in
  let ratio a b = div (fi total.(a)) (fi (total.(a) + total.(b))) in
  let untraced = fi p.untraced.Samples.n in
  let ops_per_s n ns = div n (fi ns /. 1e9) in
  [
      ("tcl.eval_us_per_op", "us", self_us Probe.tcl_eval);
      ("tcl.commands_per_op", "count", c Counts.commands);
      ( "tcl.ns_per_command",
        "ns",
        div (self_us Probe.tcl_eval *. 1e3) (c Counts.commands) );
      ("tcl.vm_deopts_per_op", "count", c Counts.vm_deopts);
      ("tcl.vm_slot_hits_per_op", "count", c Counts.vm_slot_hits);
      ("tcl.parse_passes_per_op", "count", c Counts.parse_passes);
      ( "tcl.script_cache_hit_ratio",
        "ratio",
        ratio Counts.script_hits Counts.script_misses );
      ( "tcl.expr_cache_hit_ratio",
        "ratio",
        ratio Counts.expr_hits Counts.expr_misses );
      ("tk.dispatch_us_per_op", "us", self_us Probe.tk_dispatch);
      ("tk.events_per_op", "count", div (fi !Probe.events) (fi ops));
      ("tk.bindings_per_op", "count", c Counts.bindings);
      ("xsim.inject_us_per_op", "us", self_us Probe.xsim_inject);
      ("tk.idle_us_per_op", "us", self_us Probe.tk_idle);
      ("tk.redraws_per_op", "count", c Counts.redraws_drawn);
      ( "tk.redraw_collapse_ratio",
        "ratio",
        ratio Counts.redraws_collapsed Counts.redraws_scheduled );
      ( "tk.damage_partial_ratio",
        "ratio",
        div (fi total.(Counts.damage_drawn)) (fi total.(Counts.redraws_drawn))
      );
      ( "tk_widgets.canvas_items_considered_per_op",
        "count",
        c Counts.canvas_considered );
      ("tk_widgets.canvas_items_drawn_per_op", "count", c Counts.canvas_drawn);
      ( "tk.rescache_hit_ratio",
        "ratio",
        ratio Counts.rescache_hits Counts.rescache_misses );
      ("xsim.requests_window_per_op", "count", c Counts.req_window);
      ("xsim.requests_resource_per_op", "count", c Counts.req_resource);
      ("xsim.requests_draw_per_op", "count", c Counts.req_draw);
      ("xsim.requests_property_per_op", "count", c Counts.req_property);
      ("tk.send_retries_per_op", "count", c Counts.send_retries);
      ( "tk.mailbox_high_water",
        "count",
        fi total.(Counts.mailbox_high_water) );
      ( "tk.app_join_us",
        "us",
        div
          (fi s.Probe.total_ns.(Probe.tk_app_join) /. 1e3)
          (fi s.Probe.spans.(Probe.tk_app_join)) );
      ("gc.minor_words_per_op", "count", div p.minor_words untraced);
      ("gc.promoted_words_per_op", "count", div p.promoted_words untraced);
      ("gc.minor_us_per_op", "us", total_us Probe.gc_minor);
      ("gc.major_slice_us_per_op", "us", total_us Probe.gc_major_slice);
      ("bench.driver_us_per_op", "us", self_us Probe.op);
      ( "bench.trace_overhead_pct",
        "%",
        (div
           (ops_per_s untraced p.untraced_ns)
           (ops_per_s traced p.traced_ns)
        -. 1.0)
        *. 100.0 );
    ]

let () =
  let w, seed, seconds, trace = parse_args () in
  let g = Gc.get () in
  Printf.printf "# perfbench %s seed=%d seconds=%g trace=%d\n" w.Workload.name
    seed seconds
    (if trace then 1 else 0);
  Printf.printf
    "# ocaml %s; gc minor_heap_size=%d words space_overhead=%d \
     max_overhead=%d; OCAMLRUNPARAM=%s\n"
    Sys.ocaml_version g.Gc.minor_heap_size g.Gc.space_overhead
    g.Gc.max_overhead
    (Option.value (Sys.getenv_opt "OCAMLRUNPARAM") ~default:"(unset)");
  (* The determinism check: two fresh set-ups run the same ops. *)
  let check_failed = ref 0 in
  let checks =
    List.init 2 (fun _ ->
        let i = w.Workload.setup ~seed in
        i.Workload.reset ();
        let c0 = i.Workload.counts () in
        let n = i.Workload.block * max 1 (check_ops / i.Workload.block) in
        check_failed := !check_failed + run_ops i ~first:0 n;
        let c = Counts.sub (i.Workload.counts ()) c0 in
        i.Workload.teardown ();
        c)
  in
  let timed_setup samples =
    let t0 = now_ns () in
    let i = w.Workload.setup ~seed in
    samples := (fi (now_ns () - t0) /. 1e9) :: !samples;
    i
  in
  let before = ref [] in
  for _ = 2 to setups_before do
    (timed_setup before).Workload.teardown ()
  done;
  let inst = timed_setup before in
  let deterministic =
    match checks with
    | [ a; b ] ->
      let same i = a.(i) = b.(i) in
      Printf.printf
        "# determinism (two fresh set-ups, same ops): requests %d/%d \
         round_trips %d/%d tcl_commands %d/%d\n"
        a.(Counts.requests) b.(Counts.requests) a.(Counts.round_trips)
        b.(Counts.round_trips) a.(Counts.commands) b.(Counts.commands);
      same Counts.requests && same Counts.round_trips && same Counts.commands
    | _ -> false
  in
  (* Warm-up: caches fill and lazy set-up finishes before timing.  A
     one-second warm-up left send_fleet's first timed second about 8%
     faster than the rest. *)
  let warm_ns = int_of_float (Float.min 3.0 (seconds /. 8.0) *. 1e9) in
  let first = ref 0 and warm_blocks = ref 0 in
  let t0 = now_ns () in
  while !warm_blocks < 2 || now_ns () - t0 < warm_ns do
    check_failed := !check_failed + run_ops inst ~first:!first inst.Workload.block;
    first := !first + inst.Workload.block;
    incr warm_blocks
  done;
  Gc.compact ();
  inst.Workload.reset ();
  Probe.events := 0;
  let c0 = inst.Workload.counts () in
  let p, ops = timed_phase inst ~first:!first ~seconds ~trace in
  let live_heap_mb =
    Gc.full_major ();
    fi (Gc.stat ()).Gc.live_words *. fi (Sys.word_size / 8) /. 1e6
  in
  let checks = inst.Workload.final_checks () in
  List.iter
    (fun (name, ok) ->
      Printf.printf "# final check: %s: %s\n" name (if ok then "ok" else "FAILED"))
    checks;
  inst.Workload.teardown ();
  let after = ref [] in
  let t_after = now_ns () in
  while
    List.length !after < min_setups_after
    || List.length !after < max_setups_after
       && now_ns () - t_after < setup_budget_ns
  do
    (timed_setup after).Workload.teardown ()
  done;
  let total = Counts.sub p.end_counts c0 in
  let first_half = Counts.sub p.mid_counts c0 in
  let second_half = Counts.sub p.end_counts p.mid_counts in
  let per_op c i n = div (fi c.(i)) (fi n) in
  let halves_agree =
    List.for_all
      (fun i ->
        let a = per_op first_half i p.mid_ops
        and b = per_op second_half i (ops - p.mid_ops) in
        Printf.printf "# halves: %s per op %.4f / %.4f\n" Counts.names.(i) a b;
        Float.abs (a -. b) <= 0.01 *. Float.max a b)
      [ Counts.requests; Counts.round_trips; Counts.commands ]
  in
  let ws = windows p in
  let median ws f = median_float (List.map f ws) in
  let ss = List.map scaled ws in
  let p50 = median ss (fun w -> w.p50) and p99 = median ss (fun w -> w.p99) in
  let ops_per_s = median ss (fun w -> w.ops_per_s) in
  let least ws f = List.fold_left (fun m w -> min m (f w)) max_int ws in
  let slows = List.map (fun w -> w.slow) ws in
  let setups = !before @ !after in
  let setup_s = trimmed_mean setups /. median_float slows in
  Printf.printf
    "# setup_s %.6f s: trimmed mean of %d set-ups scaled by the timed \
     phase's median slowness; unscaled, %d before the timed phase median \
     %.6f s, %d after it median %.6f s\n"
    setup_s (List.length setups) (List.length !before)
    (median_float !before) (List.length !after) (median_float !after);
  let probes = List.map (fun (_, _, probe) -> probe) p.untraced_blocks in
  Printf.printf
    "# %d windows of >= %.2f s and >= %d ops, the smallest %d ops with %d \
     beyond its p99; host slowness %.3f..%.3f, median %.3f; probe median \
     %.1f us\n"
    (List.length ws) (fi window_ns /. 1e9) window_ops
    (least ws (fun w -> w.ops))
    (least ws (fun w -> w.beyond))
    (List.fold_left Float.min Float.infinity slows)
    (List.fold_left Float.max 0.0 slows)
    (median_float slows)
    (median probes (fun probe -> fi probe /. 1e3));
  Printf.printf
    "# unscaled median over the windows: p50 %.1f us, p99 %.1f us, %.1f \
     ops/s\n"
    (median ws (fun w -> w.p50))
    (median ws (fun w -> w.p99))
    (median ws (fun w -> w.ops_per_s));
  let whole =
    window_stats (Samples.sorted p.untraced) ~ns:p.untraced_ns
      ~slow:(median_float slows)
  in
  Printf.printf
    "# unscaled whole timed phase: p50 %.1f us, p99 %.1f us (%d beyond \
     it), %.1f ops/s over %d untraced ops\n"
    whole.p50 whole.p99 whole.beyond whole.ops_per_s whole.ops;
  Array.iteri
    (fun c name ->
      let a = Samples.sorted ~cls:c p.untraced in
      if Array.length a > 0 then
        Printf.printf "# class %-10s ops %7d  p50 %9.1f us  p99 %9.1f us\n" name
          (Array.length a) (percentile_us a 0.5) (percentile_us a 0.99))
    w.Workload.classes;
  Printf.printf "# counts over %d ops:" ops;
  Array.iteri (fun i name -> Printf.printf " %s=%d" name total.(i)) Counts.names;
  print_newline ();
  (* The eight end-to-end metrics.  The last three are counts that are
     zero on some workload, so BENCHMARK.json lists them with the
     per-layer metrics, which carry no bound. *)
  let bounded =
    [
      ("setup_s", "s", setup_s);
      ("op_p50_us", "us", p50);
      ("op_p99_us", "us", p99);
      ("ops_per_s", "1/s", ops_per_s);
      ("live_heap_mb", "MB", live_heap_mb);
    ]
  and counted =
    [
      ("x_requests_per_op", "count", per_op total Counts.requests ops);
      ("round_trips_per_op", "count", per_op total Counts.round_trips ops);
      ("op_fail_ratio", "ratio", div (fi p.failed) (fi ops));
    ]
  in
  List.iter
    (fun (name, unit, v) -> Printf.printf "# %-20s %14.6f %s\n" name v unit)
    (bounded @ counted);
  let correct =
    deterministic && halves_agree && p.failed = 0 && !check_failed = 0
    && List.for_all snd checks
  in
  let metrics =
    if trace then per_layer p ~ops ~total @ counted else bounded
  in
  print_result ~correct ~attempted:ops ~failed:p.failed metrics
