(** The Tcl interpreter core: parsing, substitution, command dispatch,
    variables, call frames and procedures.

    The evaluator implements the full syntax of the paper's Figures 1–5:
    words separated by whitespace, commands separated by newlines or
    semicolons, brace and double-quote grouping, [$]-variable substitution,
    [\[...\]] command substitution and backslash escapes.

    No commands are pre-registered except the dispatch to a user-defined
    [unknown] handler; the built-in command set (including the structural
    commands [proc], [if], [while], …) is installed by
    {!Builtins.install}. *)

type t
(** An interpreter: command table, global and per-procedure variable
    frames, and bookkeeping counters. *)

(** Completion status of a script or command, mirroring Tcl's return
    codes. *)
type status = Tcl_ok | Tcl_error | Tcl_return | Tcl_break | Tcl_continue

type result = status * string
(** Every evaluation yields a status plus a string value (the result on
    [Tcl_ok], the error message on [Tcl_error]). *)

type command = t -> string list -> result
(** A command procedure. It receives the full word list, including the
    command name as head, exactly as in the paper's Figure 6. *)

exception Tcl_failure of string
(** Command procedures may raise this to report an error; the evaluator
    converts it to a [Tcl_error] result. *)

val failf : ('a, Format.formatter, unit, 'b) format4 -> 'a
(** Raise {!Tcl_failure} with a formatted message. *)

exception Usage
(** A command procedure raises this for a call its signature rejects;
    the evaluator renders the message from the signature ({!misuse}). *)

val add_exn_translator : (exn -> string option) -> unit
(** Register a (global) hook that translates a foreign exception raised
    inside a command procedure into a Tcl error message; return [None] to
    decline. The toolkit uses this to surface X protocol errors as
    ordinary script errors instead of unwinding the event loop. *)

val ok : string -> result
(** [(Tcl_ok, value)]. *)

val create : unit -> t
(** A bare interpreter with no commands registered (see
    {!Builtins.install} / {!Builtins.new_interp}). *)

(** {1 Evaluation} *)

val eval : t -> string -> result
(** Evaluate a script: execute its commands in sequence and return the
    result of the last one, or the first non-[Tcl_ok] completion. *)

val eval_value : t -> string -> (string, string) Stdlib.result
(** Like {!eval}, mapping [Tcl_ok] to [Ok] and everything else to [Error]
    (with break/continue/return reported as errors, as at top level). *)

val eval_words : t -> string list -> result
(** Invoke a single command from already-substituted words. *)

val eval_expr_string : t -> string -> string
(** {!eval_expr} rendered back to Tcl's string form (for [expr]). *)

val eval_expr_bool : t -> string -> bool
(** Evaluate a condition string. @raise Tcl_failure on expression errors. *)

(** {1 Parse-once compilation}

    A script is tokenized once (see {!Compile}), lowered to bytecode
    (see {!Vm}) and the code cached keyed by the source string;
    re-evaluating a hot binding script then skips the scanner entirely.
    A procedure body is compiled on its first call and kept on the
    procedure. Semantics are byte-identical to the reference evaluator —
    the cache only trades memory for parse passes. Entries never go
    stale (compilation is purely syntactic), so the only invalidation is
    dropping the oldest entry, in insertion order, when a miss finds the
    512 entries full. *)

val set_compile_enabled : t -> bool -> unit
(** Toggle the parse-once machinery (default on). On, every script and
    procedure body runs as cached bytecode ({!Vm}) lowered from its
    compiled form; off routes every evaluation through the reference
    character-at-a-time evaluator — the [-no-compile-cache] ablation
    and the differential tests' oracle. These are the only two
    execution tiers. *)

val clear_compile_caches : t -> unit
(** Drop all cached scripts (counters are kept). *)

val reset_compile_stats : t -> unit

val compile_stats : t -> (string * string) list
(** Counters for the metrics registry ([tcl.compile.*]): script cache
    hits, misses, evictions (oldest entries dropped from the full
    table), compiles, the current cache size, and the total number of
    parse passes over script text. *)

val reset_vm_stats : t -> unit

val vm_stats : t -> (string * string) list
(** Counters for the metrics registry ([tcl.vm.*]): whether the
    structural builtins are currently canonical, lowered code objects
    built, per-instruction deopts to dispatched commands, and variable
    accesses served by local slots or inline caches. *)

val mark_canonical : t -> unit
(** Snapshot the current definitions of the structural commands the VM
    inlines ([set], [incr], [expr], [if], [while], [for], [foreach],
    [return], [break], [continue]). Called once after the builtins are
    installed; any later redefinition, rename, hide or deletion of one
    of them routes the inlined opcodes back through normal dispatch. *)

val set_time_source : t -> (unit -> float) option -> unit
(** Pluggable clock (in seconds) for the [time] command; [None] restores
    [Sys.time]. The toolkit points this at the event dispatcher's clock
    so [time] agrees with [after] under a virtual clock. *)

val current_time : t -> float
(** The current reading of the {!set_time_source} clock. *)

(** {1 Resource limits and cancellation}

    A per-interpreter guard enforced at both evaluation boundaries
    (script entry in the reference evaluator and the compiled fast path)
    and at every command dispatch. Limits are checked against the
    {!set_limit_clock} millisecond clock — the toolkit wires the event
    dispatcher's virtual clock in — and a command-dispatch counter. A
    tripped limit keeps failing (and propagates through [catch]) until
    re-armed; cancellation is delivered once at the next boundary. *)

type limit_kind = Limit_time | Limit_commands

val set_limit_clock : t -> (unit -> int) option -> unit
(** Millisecond clock used for time limits; [None] falls back to the
    {!set_time_source} clock. *)

val limit_clock : t -> (unit -> int) option
(** The clock installed by {!set_limit_clock} (slaves inherit their
    master's on creation). *)

val set_time_limit : ?granularity:int -> t -> int -> unit
(** Arm (or with 0 disarm) a time limit of [ms] milliseconds from now.
    [granularity] (default 1) checks the clock only every n-th
    boundary — a cheap knob when the clock read itself is costly. *)

val set_command_limit : t -> int -> unit
(** Arm (or with 0 disarm) a budget of [n] command dispatches. *)

val time_limit : t -> int
val command_limit : t -> int

val limit_tripped : t -> limit_kind option
(** The limit currently tripped, if any (sticky until {!rearm_limits}). *)

val cancel : ?unwind:bool -> ?message:string -> t -> unit
(** Request asynchronous cancellation: the next evaluation boundary
    fails with [message] (default ["eval canceled"], or ["eval unwound"]
    with [~unwind:true]). A plain cancel is catchable by [catch]; an
    unwinding cancel propagates through it. *)

val unwinding : t -> bool
(** True while a limit or unwinding cancel is propagating — [catch]
    consults this to let such errors through. Cleared on the next
    top-level evaluation. *)

val clear_unwinding : t -> unit
(** End an unwind early: for hosts that deliver the limit error as a
    value (a guarded send reply) rather than letting it propagate —
    after delivery the error is ordinary and [catch] works again. *)

val recursion_limit : t -> int

val set_recursion_limit : t -> int -> unit
(** Maximum nesting depth of evaluations (default 1000); overflow fails
    with Tcl's ["too many nested evaluations (infinite loop?)"].
    @raise Tcl_failure if [n < 1]. *)

val denied_count : t -> int
(** Number of hidden-command invocation denials so far. *)

val reset_guard_stats : t -> unit

val limit_stats : t -> (string * string) list
(** Counters for the metrics registry ([tcl.limit.*]): boundary checks,
    time/command trips, cancels requested and delivered, hidden-command
    denials, recursion overflows. *)

val interp_stats : t -> (string * string) list
(** Counters for the metrics registry ([tcl.interp.*]): live slave
    counts, creates/deletes, alias calls, configured limits. *)

(** {1 Slave interpreters}

    A master owns a tree of named slave interpreters (deleted
    recursively with it). Guard statistics are shared down the tree so
    an application's metrics aggregate slave activity. The [interp]
    command ({!Interp_cmd}) is the script-level interface. *)

val is_safe : t -> bool
val set_safe : t -> bool -> unit

val add_slave : t -> string -> t -> unit
val find_slave : t -> string -> t option
val slave_names : t -> string list

val delete_slave : t -> string -> bool
(** Delete a direct slave and, recursively, its whole subtree. *)

(** {1 Hidden commands}

    Hiding moves a command out of the dispatch table: scripts invoking
    it get a counted ["permission denied"] error (never the [unknown]
    fallback), while the trusted side can still run it with
    {!invoke_hidden}. *)

val hide_command : t -> string -> (unit, string) Stdlib.result
val expose_command : ?as_name:string -> t -> string -> (unit, string) Stdlib.result
val hidden_names : t -> string list
val invoke_hidden : t -> string -> string list -> result

(** {1 Aliases}

    Bookkeeping for [interp alias] (the marshalling itself lives in
    {!Interp_cmd}): which slave commands are aliases and what master
    target each maps to. *)

val note_alias : t -> string -> string -> unit
val drop_alias : t -> string -> unit
val alias_target : t -> string -> string option
val alias_names : t -> string list
val count_alias_call : t -> unit

(** {1 Variables} *)

val get_var : t -> string -> string option
(** Look up a variable in the current frame. Names of the form
    [name(index)] address array elements. *)

val get_var_exn : t -> string -> string
(** @raise Tcl_failure with Tcl's "can't read ..." message. *)

val set_var : t -> string -> string -> unit
val unset_var : t -> string -> bool

val var_names : t -> local:bool -> global:bool -> string list
(** Visible variable names: local frame, global frame, or both. *)

val array_names : t -> string -> string list option
(** Index names of an array variable, or [None] if not an array. *)

(** {1 Frames} *)

val current_level : t -> int
(** 0 at global scope, +1 per active procedure call. *)

val parse_level : t -> string -> int option
(** Parse a level argument as used by [uplevel]/[upvar]: ["#n"] is absolute,
    a plain number is relative to the current frame. *)

val with_level : t -> int -> (unit -> 'a) -> 'a
(** Run a thunk with the variable stack temporarily truncated so that the
    frame at [level] is current ([uplevel]). *)

val link_var : t -> target_level:int -> target:string -> local:string -> unit
(** Make variable [local] in the current frame an alias for [target] in the
    frame at absolute [target_level] ([upvar]/[global]). *)

(** {1 Command signatures}

    Every built-in command is registered with the shape of call it
    accepts: arity bounds, its usage string, leading [-switch] words, a
    subcommand table (an entry may have switches and a table of its
    own), which argument positions hold scripts, per-argument literal
    validators, and — for widget-creating commands — the widget class's
    option and subcommand tables: the command's only declaration of that
    shape.  Dispatch never consults it.  A body takes its switches with
    {!switches} and raises {!Usage} for a call it rejects; the message
    is then rendered from the classification ({!misuse}) that the static
    checker {!Lint} applies to literal words. *)

type switch =
  | Flag of string  (** e.g. [Flag "-nocase"]; [Flag "--"] ends the switches *)
  | Value of string  (** takes the next word as its value, e.g. ["-glob"] *)

type sub_sig = {
  sub_name : string;
  sub_min : int;  (** arguments after "cmd subcommand" and its switches *)
  sub_max : int;  (** -1 = unbounded *)
  sub_switches : switch list;
  sub_subs : sub_sig list;  (** a nested table naming the next argument *)
}

type widget_sig = {
  ws_class : string;  (** e.g. ["Button"] *)
  ws_options : string list;  (** configure switches, e.g. ["-text"] *)
  ws_subs : sub_sig list;  (** subcommands beyond configure/cget *)
}

type arg_check = {
  chk_arg : int;  (** 1-based argument index *)
  chk : string -> string option;  (** literal value -> error message *)
}

type signature = {
  sig_name : string;
  sig_usage : string;
  sig_min : int;  (** arguments after the command name and its switches *)
  sig_max : int;  (** -1 = unbounded *)
  sig_switches : switch list;
  sig_subs : sub_sig list;
  sig_open_subs : bool;
      (** an unmatched first argument is legal (e.g. [send appName ...]);
          the analyzer only warns on near-miss subcommand spellings *)
  sig_scripts : int list;  (** 1-based indices of script arguments *)
  sig_checks : arg_check list;
  sig_widget : widget_sig option;
}

val subsig :
  ?max:int -> ?switches:switch list -> ?subs:sub_sig list -> string -> int ->
  sub_sig
(** [subsig name min] — [max] defaults to unbounded (-1). *)

val signature :
  ?max:int ->
  ?switches:switch list ->
  ?subs:sub_sig list ->
  ?open_subs:bool ->
  ?scripts:int list ->
  ?checks:arg_check list ->
  ?widget:widget_sig ->
  usage:string ->
  string ->
  int ->
  signature
(** [signature ~usage name min] builds a signature record;
    [max] defaults to unbounded (-1). *)

val switches : signature -> string list -> (string * string) list * string list
(** [switches s args] splits a call's arguments into its leading
    switches, each with its value ([""] for a flag), the last given
    first, and the words after them.  A word is a switch while it starts
    with ["-"] and at least [sig_min] words follow it, so [lsort -1]
    sorts the list ["-1"].  Raises {!Usage} for an undeclared switch or a
    missing value. *)

val sub_switches :
  sub_sig -> string list -> (string * string) list * string list
(** The same for the words after a subcommand. *)

(** {1 Commands} *)

val register : t -> signature -> command -> unit
(** Define (or replace) the built-in command [sig_name] with its
    signature, which travels with the command through [rename] and
    [interp hide]. *)

val register_value : t -> signature -> (t -> string list -> string) -> unit
(** Convenience wrapper: the function returns the result value directly and
    signals errors by raising {!Tcl_failure} or {!Usage}. *)

val define_proc :
  t -> string -> (string * string option) list -> string -> unit
(** Define a Tcl procedure: formal parameters (with optional defaults; a
    trailing ["args"] collects the remainder) and a body script. *)

val proc_info : t -> string -> ((string * string option) list * string) option
(** Formals and body of a procedure, for [info args]/[info body]. *)

val delete_command : t -> string -> bool
val rename_command : t -> string -> string -> (unit, string) Stdlib.result
val command_exists : t -> string -> bool
val command_names : t -> string list
val proc_names : t -> string list

val signature_of : t -> string -> signature option
(** [None] for a procedure or an unknown name. *)

(** {2 Usage errors}

    One classification of a call's shape serves the runtime, which
    renders a body's {!Usage} with it, and {!Lint}. *)

type bad_word = {
  path : string list;  (** subcommand words leading to the level *)
  arg : int;  (** 0-based index among the call's arguments *)
  word : string;
  names : string list;  (** what the level accepts there *)
}

type misuse =
  | Count of string list  (** too few or many arguments at this path *)
  | Unknown_sub of bad_word  (** outside the level's subcommand table *)
  | Unknown_switch of bad_word  (** a switch the level does not declare *)

val misuse : ?known:int -> signature -> string list -> misuse option
(** [misuse s args]: how a call's arguments miss [s], level by level:
    switches, then count, then (if no switch was taken) the table.  At
    the command's own level a word that is empty or starts with ["."] or
    ["-"] is never a subcommand.  Arguments from index [known] on (lint's
    dynamic words) count, but no verdict reads one. *)

val usage_message : signature -> misuse -> string
(** ["bad option \"x\": should be a, b, or c"], or for a count or an
    open table's word ["wrong # args: should be ..."]. *)

val widget_misuse : ?known:int -> sub_sig list -> string list -> misuse option
(** The same for a widget command: its class's table with [cget] and
    [configure], any first word read as a subcommand. *)

val widget_message : string -> misuse -> string
(** E.g. ["bad option \"x\" for .w"], ["bad option \"x\" for \".l
    select\": should be ..."]. *)

(** {1 Lint counters}

    Bumped by {!Lint.analyze}; exported as [tcl.lint.*] by the
    toolkit's metrics registry. *)

val note_lint : t -> errors:int -> warnings:int -> unit
val reset_lint_stats : t -> unit
val lint_stats : t -> (string * string) list

(** {1 Environment hooks} *)

val set_output : t -> (string -> unit) -> unit
(** Redirect the [print]/[puts] stream (default: standard output). *)

(** {1 Command history}

    When recording is enabled (wish's interactive loop turns it on), each
    top-level script evaluated is remembered for the [history] command. *)

val set_history_recording : t -> bool -> unit
val record_history_event : t -> string -> unit
val history_events : t -> (int * string) list
(** Oldest first, numbered from 1. *)

val history_event : t -> int -> string option

val output : t -> string -> unit

val command_count : t -> int
(** Total number of commands executed ([info cmdcount]). *)

(** {1 File channels}

    Open channels belong to the interpreter that opened them, so they
    are reclaimed with it. *)

type chan = Chan_in of in_channel | Chan_out of out_channel

val channels : t -> (string, chan) Hashtbl.t
(** The interpreter's open channels, by id (["file3"], ...). *)

val add_channel : t -> chan -> string
(** Register a newly opened channel under the next free id. *)

(** {1 Error tracing}

    When an error unwinds, the global variable [errorInfo] accumulates a
    stack trace ("while executing ..." lines), as in real Tcl. *)

val mark_error_handled : t -> unit
(** Tell the interpreter the current error has been caught ([catch] calls
    this), so the next error starts a fresh [errorInfo]. *)

val get_error_info : t -> string
(** The accumulated stack trace of the most recent error (the value of
    the global [errorInfo] variable; [""] when no error has occurred). *)
