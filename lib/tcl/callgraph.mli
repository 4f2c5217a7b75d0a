(** Whole-program call graph over compiled Tcl scripts, fed by the
    {!Lint} walker and consumed by its interprocedural passes.

    Nodes are the shared top level ({!Nroot} — every file, binding and
    [after] script) and each procedure defined anywhere in the program.
    {e Call} edges are literal command-position invocations tagged
    conditional or not; {e mention} edges are every token of every
    literal word in a node — the maximally conservative account of
    callback references, so reachability errs toward "reachable" and
    unreachable-procedure reports stay free of false positives. *)

type node = Nroot | Nproc of string

type call = {
  c_from : node;
  c_callee : string;
  c_file : string option;
  c_off : int;  (** call-site offset within its file *)
  c_cond : bool;  (** nested under any conditional construct *)
}

type t

val create : unit -> t
val add_def : t -> string -> file:string option -> off:int -> unit

val add_call :
  t ->
  from:node ->
  callee:string ->
  file:string option ->
  off:int ->
  cond:bool ->
  unit

val add_mention : t -> node -> string -> unit
(** Record one literal token seen inside [node]. *)

val tokens_of_literal : string -> (string -> unit) -> unit
(** Split a literal word on whitespace, separators and grouping
    characters, feeding each token to the callback. *)

val edge_count : t -> int
val proc_count : t -> int

val reachable : t -> (string, unit) Hashtbl.t
(** Procedures reachable from {!Nroot} via call or mention edges. *)

val unreachable : t -> (string * string option * int) list
(** Procedures never referenced from live code: name, defining file,
    definition offset. *)

val infinite_recursion : t -> (string * call) list
(** Procedures on a cycle of unconditional calls (guaranteed to
    overflow the recursion limit when called), each with the witness
    call edge that leads back around the cycle. *)
