type timer_id = int

type timer = { tid : timer_id; deadline : float; callback : unit -> unit }

type counters = {
  timers_fired : int;
  idles_run : int;
  sweeps : int;
  sweep_ms_total : float;
  sweep_ms_last : float;
}

type t = {
  mutable clock : unit -> float;
  mutable sleep : int -> unit; (* ms *)
  mutable timers : timer list; (* sorted by deadline *)
  mutable next_id : int;
  mutable idle : (unit -> unit) list; (* reversed queue *)
  mutable on_error : exn -> unit;
  mutable timers_fired : int;
  mutable idles_run : int;
  mutable sweeps : int;
  mutable sweep_ms_total : float;
  mutable sweep_ms_last : float;
}

let default_sleep ms =
  if ms > 0 then ignore (Unix.select [] [] [] (float_of_int ms /. 1000.0))

let create ?clock () =
  {
    clock = (match clock with Some c -> c | None -> Unix.gettimeofday);
    sleep = default_sleep;
    timers = [];
    next_id = 1;
    idle = [];
    on_error = raise;
    timers_fired = 0;
    idles_run = 0;
    sweeps = 0;
    sweep_ms_total = 0.0;
    sweep_ms_last = 0.0;
  }

let counters t =
  {
    timers_fired = t.timers_fired;
    idles_run = t.idles_run;
    sweeps = t.sweeps;
    sweep_ms_total = t.sweep_ms_total;
    sweep_ms_last = t.sweep_ms_last;
  }

let reset_counters t =
  t.timers_fired <- 0;
  t.idles_run <- 0;
  t.sweeps <- 0;
  t.sweep_ms_total <- 0.0;
  t.sweep_ms_last <- 0.0

(* Latency of one callback sweep, measured on the pluggable clock so
   virtual-clock tests see deterministic numbers. Empty sweeps are not
   counted: they would drown the signal in [update]'s quiescence loop. *)
let note_sweep t ~t0 ~ran =
  if ran > 0 then begin
    let ms = (t.clock () -. t0) *. 1000.0 in
    t.sweeps <- t.sweeps + 1;
    t.sweep_ms_total <- t.sweep_ms_total +. ms;
    t.sweep_ms_last <- ms
  end

let set_clock t clock = t.clock <- clock
let set_sleep t sleep = t.sleep <- sleep
let sleep_ms t ms = if ms > 0 then t.sleep ms

(* Deterministic time for tests: the clock reads a counter and sleeping
   advances it, so deadline-based waits (send, selection get) terminate
   without wall-clock delays and at reproducible simulated times. *)
let use_virtual_clock t =
  let now = ref 0.0 in
  let advance ms = now := !now +. (float_of_int ms /. 1000.0) in
  t.clock <- (fun () -> !now);
  t.sleep <- advance;
  advance

let set_on_error t handler = t.on_error <- handler

(* One exploding callback must not take down the event loop — nor the
   other callbacks due in the same sweep. *)
let protect t f = try f () with e -> t.on_error e

let now_ms t = int_of_float (t.clock () *. 1000.0)

let clock_seconds t = t.clock ()

let after t ~ms callback =
  let tid = t.next_id in
  t.next_id <- t.next_id + 1;
  let deadline = t.clock () +. (float_of_int ms /. 1000.0) in
  let timer = { tid; deadline; callback } in
  t.timers <-
    List.stable_sort
      (fun a b -> compare a.deadline b.deadline)
      (timer :: t.timers);
  tid

let cancel t tid =
  let before = List.length t.timers in
  t.timers <- List.filter (fun timer -> timer.tid <> tid) t.timers;
  List.length t.timers < before

let when_idle t callback = t.idle <- callback :: t.idle

let run_due_timers t =
  let now = t.clock () in
  let due, remaining =
    List.partition (fun timer -> timer.deadline <= now) t.timers
  in
  t.timers <- remaining;
  List.iter (fun timer -> protect t timer.callback) due;
  let n = List.length due in
  t.timers_fired <- t.timers_fired + n;
  note_sweep t ~t0:now ~ran:n;
  n

let run_idle t =
  let t0 = t.clock () in
  (* Snapshot: callbacks scheduled while running go to the next sweep. *)
  let callbacks = List.rev t.idle in
  t.idle <- [];
  List.iter (fun f -> protect t f) callbacks;
  let n = List.length callbacks in
  t.idles_run <- t.idles_run + n;
  note_sweep t ~t0 ~ran:n;
  n

(* Through the pluggable sleep, so virtual-clock tests stay
   deterministic, instead of returning at once and letting the caller
   busy-spin toward the next timer deadline. *)
let poll_files t ~timeout =
  sleep_ms t (int_of_float (Float.round (timeout *. 1000.0)))

let next_deadline_ms t =
  match t.timers with
  | [] -> None
  | timer :: _ ->
    (* Round up: a timer due in 0.4 ms must yield 1, not 0 — [Some 0]
       for a not-yet-due timer makes deadline-driven poll loops spin. *)
    Some (max 0 (int_of_float (Float.ceil ((timer.deadline -. t.clock ()) *. 1000.0))))
