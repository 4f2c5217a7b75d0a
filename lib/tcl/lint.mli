(** Static analysis of Tcl/Tk scripts — compile-time checking in the
    spirit of what the C compiler does for Xt applications, extended to
    whole programs.

    {!analyze_program} compiles every file (never executing anything)
    and walks the result with the command-signature registry
    ({!Interp.signature}), a whole-program call graph ({!Callgraph})
    and an abstract interpreter over the value-kind lattice
    ({!Absint}).  Each diagnostic carries the [pass] that produced it:
    ["syntax"], ["unknown"], ["arity"], ["subcommand"], ["options"],
    ["check"], ["widget"], ["dataflow"], ["deadcode"], ["absint"],
    ["callgraph"] or ["capability"].

    Unknown-command reports are suppressed for names the program itself
    defines ([proc], [rename], [interp alias], widget creation), and
    entirely when a user [unknown] handler is visible.  Dynamic words
    (with [$] or [\[...\]] substitutions) defeat any check needing
    their value: the analysis aims for zero false positives on working
    scripts. *)

type severity = Error | Warning

type diag = {
  line : int;  (** 1-based *)
  col : int;  (** 1-based *)
  severity : severity;
  pass : string;  (** which analysis produced it, e.g. ["arity"] *)
  message : string;
}

type outcome = {
  o_diags : (string option * diag) list;
      (** per-file diagnostics, in file order then position order *)
  o_procs : int;  (** procedures defined across the program *)
  o_edges : int;  (** call-graph edges (calls + mentions) *)
}

val analyze_program :
  ?safe:bool ->
  ?whole:bool ->
  Interp.t ->
  (string option * string) list ->
  outcome
(** Analyze a program given as [(filename, source)] pairs sharing one
    namespace of procedures, widgets and aliases.  [safe] additionally
    reports every reachable use of a command the [-safe] interpreter
    profile hides (directly or through an [interp alias]).  [whole]
    enables whole-program-only reports (procedures defined but never
    called) that would misfire on a lone script fragment.  Never
    executes any script; the only interpreter state touched is the
    [tcl.lint.*] counters ({!Interp.note_lint}). *)

val analyze : ?safe:bool -> Interp.t -> string -> diag list
(** Check a single anonymous script, sorted by position
    (script-local checks only). *)

val complete : string -> bool
(** Whether a script's braces, brackets and quotes balance — the
    [info complete] predicate, also used by wish's interactive
    continuation prompt. *)

val severity_name : severity -> string
(** ["error"] or ["warning"]. *)

val format_diag : ?file:string -> diag -> string
(** ["file:line:col: severity: message"]. *)

val to_tcl_list : diag list -> string
(** Diagnostics as a Tcl list of [{line col severity msg}] elements —
    the result format of the [lint] command. *)
