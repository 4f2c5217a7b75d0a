(** The [send] fabric (paper §6): remote procedure call between Tk
    applications on the same display, built to stay correct and O(1) per
    operation with a thousand registered interpreters on the display.

    Every application registers its name and a hidden communication
    window in a sharded root-window registry ({!Core.lookup_registry}).
    A send appends a request record to a property on the target's
    communication window ([PropModeAppend], so bursts queue losslessly);
    the target's event loop parks incoming requests in a bounded
    {e mailbox} and evaluates them when it next drains — never
    re-entrantly in the middle of another event handler. Replies come
    back through a per-serial result property.

    Incoming scripts can evaluate under a {e guard}
    ({!Core.send_state.guard_mode}): [Guard_limits] arms the configured
    time/command limits on the main interpreter around each request;
    [Guard_safe] evaluates in a lazily created [-safe] slave named
    ["send"] (hidden [exit]/[exec]-alikes/[interp]/test hooks) with the
    same limits. Either way a hostile or runaway peer script is cut
    short at the next dispatch boundary and the sender gets a distinct
    reply — the target's event loop never wedges.

    Failure taxonomy (disjoint, and each send resolves to exactly one):
    - [ok] / [error]: the remote script ran (and possibly raised);
    - [died]: the target's communication window or connection is gone;
    - [timeout]: the target is alive but unresponsive past the deadline;
    - [overflow]: the target's mailbox was full and refused the request
      before evaluation;
    - [denied]: the script reached a hidden command in the target's
      guard context;
    - [limited]: the target's resource limits cut the script short.

    Tcl surface: [send ?-async? ?-future? ?-retry? ?-timeout ms? ?-all?
    ?-glob pattern? ?--? appName arg ?arg ...?], plus the subcommands
    [send wait handle], [send result handle], [send mailbox ?limit?],
    [send guard ?off|limits|safe?] and
    [send limit time|commands ?n?]. *)

val install : Core.app -> unit
(** Register the [send] Tcl command, the incoming-request interceptor and
    the mailbox/future drain hook. *)

(** One send's terminal state (the failure taxonomy above). *)
type outcome =
  | O_ok of string
  | O_error of string
  | O_died of string
  | O_timeout of string
  | O_overflow of string
  | O_denied of string
  | O_limited of string

val outcome_state : outcome -> string
(** ["ok"], ["error"], ["died"], ["timeout"], ["overflow"], ["denied"]
    or ["limited"]. *)

val send_outcome :
  ?timeout_ms:int ->
  ?retry:bool ->
  Core.app ->
  target:string ->
  string ->
  outcome
(** {!send}, but with the terminal state made explicit — what the
    crash-storm harness tallies. *)

val send :
  ?timeout_ms:int ->
  ?retry:bool ->
  Core.app ->
  target:string ->
  string ->
  (string, string) result
(** Execute a script in the named application; [Ok result] or
    [Error message]. [timeout_ms] (default 5000) is measured on the
    sender's {!Dispatch} clock — plug a virtual clock in for
    deterministic tests. With [retry] (default false), an overflow reply
    triggers deterministic jittered-backoff reposts until the same
    overall deadline; without it, overflow is reported immediately.
    Self-sends take an in-process fast path (differentially identical to
    the wire path) unless disabled via
    [app.send.self_fast_path <- false]. *)

val send_async : Core.app -> target:string -> string -> (unit, string) result
(** Fire-and-forget: post the script and return without waiting. The
    target evaluates it from its mailbox; no result or error comes back
    (a full mailbox silently drops it, counted in
    [tk.send.mailbox_rejected]). [Error] only for an unknown or
    already-dead target. *)

val send_future :
  ?timeout_ms:int ->
  Core.app ->
  target:string ->
  string ->
  (string, string) result
(** Post the script and return a future handle ("future#N") immediately.
    The future resolves on the sender's event loop (any [update] sweep)
    to one of ok/error/died/timeout/overflow/denied/limited; no future is
    ever lost — even a target that dies racing the post yields a
    resolved-died future. Resolve with {!wait_future} / {!future_result} (or the
    [send wait] / [send result] Tcl subcommands). *)

val wait_future : Core.app -> string -> (string * string, string) result
(** Block (pumping the sender and target) until the future resolves;
    [Ok (state, value)] consumes the handle. [Error] for an unknown
    handle. *)

val pending_futures : Core.app -> int
(** Outstanding (unresolved) futures — the crash-storm harness asserts
    this returns to zero. *)

val broadcast :
  ?timeout_ms:int ->
  ?pattern:string ->
  Core.app ->
  string ->
  (string * string * string) list
(** Multicast: evaluate the script in every registered application (or
    those matching the glob [pattern]), posting to all targets first and
    then collecting replies under one shared deadline. Returns
    [(name, state, value)] per target, sorted by name; one dead or
    unresponsive peer costs its own entry, never the whole broadcast. *)

val default_timeout_ms : int

val interps : Core.app -> string list
(** Names of all registered applications ([winfo interps]). *)
