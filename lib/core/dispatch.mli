(** Non-X event sources of the Tk dispatcher (paper §3.2): timer events
    and when-idle events. X events live in the server's
    per-connection queues; the application's [update]/[mainloop] drains
    both.

    The clock is pluggable so tests can run timers deterministically. *)

type t

type timer_id = int

(** Dispatcher activity counters (cumulative since creation or the last
    {!reset_counters}). Sweep latency is measured on the pluggable clock,
    so virtual-clock tests see deterministic values; sweeps that ran no
    callbacks are not counted. *)
type counters = {
  timers_fired : int;
  idles_run : int;
  sweeps : int;  (** timer/idle sweeps that ran at least one callback *)
  sweep_ms_total : float;
  sweep_ms_last : float;
}

val create : ?clock:(unit -> float) -> unit -> t
(** [clock] returns seconds (default: wall clock). *)

val set_clock : t -> (unit -> float) -> unit

val set_sleep : t -> (int -> unit) -> unit
(** Replace how deadline-based waits pass time between polls (argument in
    milliseconds; default: [Unix.select] on nothing). Paired with
    {!set_clock}, a test can make blocking waits fully deterministic. *)

val sleep_ms : t -> int -> unit
(** Pass [ms] milliseconds according to the installed sleeper. [send] and
    [selection get] call this between polls (exponential backoff) instead
    of spinning on a retry counter. *)

val use_virtual_clock : t -> (int -> unit)
(** Install a deterministic virtual clock starting at 0: {!now_ms} reads
    it and {!sleep_ms} advances it. The returned function advances the
    clock by a number of milliseconds directly (for driving timers). *)

val set_on_error : t -> (exn -> unit) -> unit
(** Exceptions escaping a timer or idle callback are passed to this
    handler instead of unwinding the event loop (default: re-raise). The
    application installs a handler that reports background errors to the
    script level and keeps dispatching. *)

val now_ms : t -> int

val clock_seconds : t -> float
(** The pluggable clock's current reading, in seconds (full precision;
    {!now_ms} rounds to milliseconds). The interpreter's [time] command
    reads this so measurements agree with [after] under a virtual
    clock. *)

val after : t -> ms:int -> (unit -> unit) -> timer_id
(** Schedule a one-shot timer. *)

val cancel : t -> timer_id -> bool

val when_idle : t -> (unit -> unit) -> unit
(** Run when all other pending events have been processed. A callback
    scheduled from inside an idle callback runs in the next idle sweep,
    not the current one. *)

val run_due_timers : t -> int
(** Fire every timer whose deadline has passed; returns how many fired. *)

val run_idle : t -> int
(** Run the currently queued idle callbacks; returns how many ran. *)

val poll_files : t -> timeout:float -> unit
(** Wait [timeout] seconds for outside events, through the pluggable
    sleep (deterministic under the virtual clock).  The simulated
    display delivers no events from outside, so this only sleeps. *)

val next_deadline_ms : t -> int option
(** Milliseconds until the earliest timer, if any — rounded {e up}, so a
    pending timer never reports 0 before it is actually due (0 only when
    overdue). *)

val counters : t -> counters

val reset_counters : t -> unit
