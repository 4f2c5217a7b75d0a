type status = Tcl_ok | Tcl_error | Tcl_return | Tcl_break | Tcl_continue

type result = status * string

exception Tcl_failure of string

(* Used inside word parsing to abort the whole command with a given
   completion status (e.g. an error in a [$var] or [\[cmd\]] substitution). *)
exception Propagate of status * string

(* VM variable lookup miss (unbound, link, or array element): a constant
   exception so the hit path of [vref_cell] never allocates an option. *)
exception Vm_unbound

let failf fmt = Format.kasprintf (fun msg -> raise (Tcl_failure msg)) fmt

(* Host-embedding hook: foreign exceptions (e.g. the toolkit's X protocol
   errors) raised inside command procedures are translated into ordinary
   Tcl errors instead of unwinding the evaluator. Newest-registered
   translator wins; [None] declines. *)
let exn_translators : (exn -> string option) list ref = ref []

let add_exn_translator f = exn_translators := f :: !exn_translators

let translate_exn e = List.find_map (fun f -> f e) !exn_translators

(* A command procedure raises this for a call its signature rejects;
   [run_builtin] renders the message from the command's signature. *)
exception Usage

let ok v = (Tcl_ok, v)

type slot =
  | Scalar of Tval.t
  | Array_var of (string, string) Hashtbl.t
  | Link of frame * string

and frame = {
  vars : (string, slot) Hashtbl.t;
  mutable fgen : int;
      (* bumped on every structural change to [vars]; validates the VM's
         inline variable caches.  In-place writes to an existing Scalar
         cell do not bump — the cell stays the live binding. *)
  lnames : string array;
      (* VM local-slot names ([||] for frames made outside the VM) *)
  lcells : Tval.t option array;  (* parallel value cells; None = unset *)
}

(* Counters for the parse-once machinery, exported as tcl.compile.* by
   the toolkit's metrics registry. [parse_passes] counts every full scan
   of script text — one per compilation, one per legacy evaluation — so
   the cache's effect is directly visible as a drop in passes. *)
type compile_stats = {
  mutable script_hits : int;
  mutable script_misses : int;
  mutable script_evictions : int;
  mutable script_compiles : int;
  mutable parse_passes : int;
}

let fresh_stats () =
  {
    script_hits = 0;
    script_misses = 0;
    script_evictions = 0;
    script_compiles = 0;
    parse_passes = 0;
  }

(* ------------------------------------------------------------------ *)
(* Command signatures (see interp.mli): a command's only declaration of
   the shape of call it accepts.  A body takes its switches with
   [switches] and raises [Usage]; [run_builtin] renders the message with
   the classification ([misuse]) the static checker ([Lint]) applies. *)

type switch = Flag of string | Value of string

type sub_sig = {
  sub_name : string;
  sub_min : int;  (* arguments after "cmd subcommand" and its switches *)
  sub_max : int;  (* -1 = unbounded *)
  sub_switches : switch list;
  sub_subs : sub_sig list;  (* a nested table naming the next argument *)
}

type widget_sig = {
  ws_class : string;  (* e.g. "Button" *)
  ws_options : string list;  (* configure switches, e.g. "-text" *)
  ws_subs : sub_sig list;  (* widget subcommands beyond configure/cget *)
}

type arg_check = {
  chk_arg : int;  (* 1-based argument index *)
  chk : string -> string option;  (* literal value -> error message *)
}

type signature = {
  sig_name : string;
  sig_usage : string;  (* body of the "wrong # args: should be" message *)
  sig_min : int;  (* arguments after the command name and its switches *)
  sig_max : int;  (* -1 = unbounded *)
  sig_switches : switch list;
  sig_subs : sub_sig list;
  sig_open_subs : bool;
      (* an unmatched first argument is legal (e.g. [send appName ...]):
         the analyzer only warns on near-miss subcommand spellings *)
  sig_scripts : int list;  (* 1-based indices of script arguments *)
  sig_checks : arg_check list;
  sig_widget : widget_sig option;  (* set for widget-creating commands *)
}

let subsig ?(max = -1) ?(switches = []) ?(subs = []) name min =
  { sub_name = name; sub_min = min; sub_max = max; sub_switches = switches;
    sub_subs = subs }

let signature ?(max = -1) ?(switches = []) ?(subs = []) ?(open_subs = false)
    ?(scripts = []) ?(checks = []) ?widget ~usage name min =
  {
    sig_name = name;
    sig_usage = usage;
    sig_min = min;
    sig_max = max;
    sig_switches = switches;
    sig_subs = subs;
    sig_open_subs = open_subs;
    sig_scripts = scripts;
    sig_checks = checks;
    sig_widget = widget;
  }

(* Leading switches: a word is one while it starts with "-" and at least
   [min] words follow it; words from index [known] on are unknown. *)
exception Undeclared_switch of int  (* index of a word no switch names *)
exception Missing_value  (* a value switch is the last word *)
exception Not_known  (* a word not known yet stands where a switch may *)

let rec split_switches switches min known i found = function
  | w :: rest
    when switches != []
         && List.compare_length_with rest min >= 0
         && (i >= known || (w <> "" && w.[0] = '-')) -> (
    if i >= known then raise Not_known;
    match List.find_opt (fun (Flag n | Value n) -> n = w) switches with
    | None -> raise (Undeclared_switch i)
    | Some (Flag "--") -> (found, rest)
    | Some (Flag f) ->
      split_switches switches min known (i + 1) ((f, "") :: found) rest
    | Some (Value v) -> (
      match rest with
      | x :: rest ->
        split_switches switches min known (i + 2) ((v, x) :: found) rest
      | [] -> raise Missing_value))
  | words -> (found, words)

let take_switches switches min args =
  try split_switches switches min max_int 0 [] args
  with Undeclared_switch _ | Missing_value -> raise Usage

let switches s args = take_switches s.sig_switches s.sig_min args
let sub_switches x args = take_switches x.sub_switches x.sub_min args

(* Render alternatives Tcl-style: "a", "a or b", "a, b, or c". *)
let alternatives names =
  match names with
  | [] -> ""
  | [ a ] -> a
  | [ a; b ] -> a ^ " or " ^ b
  | _ ->
    let rec go = function
      | [ last ] -> "or " ^ last
      | x :: rest -> x ^ ", " ^ go rest
      | [] -> ""
    in
    go names

(* How a call misses its shape.  A path names the subcommand words that
   lead to the level missed ([] for the command itself). *)
type bad_word = {
  path : string list;
  arg : int;  (* 0-based index among the call's arguments *)
  word : string;
  names : string list;  (* what the level accepts there *)
}

type misuse =
  | Count of string list  (* too few or too many arguments at this level *)
  | Unknown_sub of bad_word  (* outside the level's subcommand table *)
  | Unknown_switch of bad_word  (* a switch the level does not declare *)

let outside lo hi n = n < lo || (hi >= 0 && n > hi)

let sub_names subs =
  List.sort String.compare (List.map (fun x -> x.sub_name) subs)

(* Level [x] of a call, on its arguments from index [at]: the switches,
   then the count, then (when no switch was taken) the table.  At a
   command's own level ([top]) a window path, a switch or an empty word
   is never read as a subcommand: [pack] and [grab] take one there. *)
let rec level_misuse ~known ~top path x at args =
  match split_switches x.sub_switches x.sub_min (known - at) 0 [] args with
  | exception Not_known -> None
  | exception Missing_value -> Some (Count path)
  | exception Undeclared_switch i ->
    let names = List.map (fun (Flag n | Value n) -> n) x.sub_switches in
    Some (Unknown_switch { path; arg = at + i; word = List.nth args i; names })
  | _, rest -> (
    match rest with
    | _ when outside x.sub_min x.sub_max (List.length rest) -> Some (Count path)
    | w :: tail
      when x.sub_subs != [] && rest == args && at < known
           && not (top && (w = "" || w.[0] = '.' || w.[0] = '-')) -> (
      match List.find_opt (fun y -> y.sub_name = w) x.sub_subs with
      | None ->
        let names = sub_names x.sub_subs in
        Some (Unknown_sub { path; arg = at; word = w; names })
      | Some y -> level_misuse ~known ~top:false (path @ [ w ]) y (at + 1) tail)
    | _ -> None)

let misuse ?(known = max_int) s args =
  let switches = s.sig_switches and subs = s.sig_subs in
  let x = subsig s.sig_name s.sig_min ~max:s.sig_max ~switches ~subs in
  level_misuse ~known ~top:true [] x 0 args

let usage_message s m =
  match m with
  | Unknown_sub { path = []; _ } when s.sig_open_subs ->
    Printf.sprintf "wrong # args: should be \"%s\"" s.sig_usage
  | Unknown_sub b | Unknown_switch b ->
    Printf.sprintf "bad option \"%s\": should be %s" b.word
      (alternatives b.names)
  | Count _ -> Printf.sprintf "wrong # args: should be \"%s\"" s.sig_usage

(* A widget command answers [cget] and [configure] ahead of its class's
   table, reads any first word as a subcommand, and words its errors
   after the widget path. *)
let widget_misuse ?(known = max_int) subs args =
  let table = subsig "cget" 1 ~max:1 :: subsig "configure" 0 :: subs in
  level_misuse ~known ~top:false [] (subsig "" 1 ~subs:table) 0 args

let widget_message path = function
  | Count [] ->
    Printf.sprintf "wrong # args: should be \"%s option ?arg arg ...?\"" path
  | Count [ "cget" ] ->
    Printf.sprintf "wrong # args: should be \"%s cget option\"" path
  | Count subs ->
    Printf.sprintf "wrong # args for \"%s %s\"" path (String.concat " " subs)
  | Unknown_sub { path = []; word; _ } ->
    Printf.sprintf "bad option \"%s\" for %s" word path
  | Unknown_sub b | Unknown_switch b ->
    Printf.sprintf "bad option \"%s\" for \"%s %s\": should be %s" b.word path
      (String.concat " " b.path) (alternatives b.names)

type lint_stats = {
  mutable lint_runs : int;
  mutable lint_errors : int;
  mutable lint_warnings : int;
}

(* ------------------------------------------------------------------ *)
(* Resource limits, cancellation and isolation ("the guard").

   An interpreter may carry a time budget (milliseconds on a pluggable
   clock), a command-dispatch budget, and a pending asynchronous
   cancellation.  All three are checked at evaluation boundaries — script
   entry in both the reference and compiled evaluators, and every command
   dispatch — behind one [guard_active] boolean, so an unguarded
   interpreter pays a single flag test per boundary.  A tripped limit
   stays tripped until {!rearm_limits}: a runaway that swallows the first
   limit error dies again at the very next boundary. *)

type limit_kind = Limit_time | Limit_commands

(* Guard activity counters, exported as tcl.limit.* / tcl.interp.* by the
   toolkit's metrics registry.  The record is shared by reference between
   a master and every slave in its tree, so per-application metrics roll
   up the whole isolation tree. *)
type guard_stats = {
  mutable g_checks : int;  (* guard boundary checks performed *)
  mutable g_time_exceeded : int;
  mutable g_cmd_exceeded : int;
  mutable g_cancels : int;  (* cancellations requested *)
  mutable g_cancelled : int;  (* cancellation errors delivered *)
  mutable g_denied : int;  (* hidden-command invocations refused *)
  mutable g_recursion_exceeded : int;
  mutable g_creates : int;  (* slave interpreters created *)
  mutable g_deletes : int;  (* slave interpreters deleted *)
  mutable g_alias_calls : int;  (* alias invocations marshalled *)
}

let fresh_guard_stats () =
  {
    g_checks = 0;
    g_time_exceeded = 0;
    g_cmd_exceeded = 0;
    g_cancels = 0;
    g_cancelled = 0;
    g_denied = 0;
    g_recursion_exceeded = 0;
    g_creates = 0;
    g_deletes = 0;
    g_alias_calls = 0;
  }

(* Counters for the bytecode VM, exported as tcl.vm.* by the toolkit's
   metrics registry. *)
type vm_stats = {
  mutable v_compiled : int;  (* programs/proc bodies lowered *)
  mutable v_deopts : int;  (* inlined opcodes that fell back to dispatch *)
  mutable v_slot_hits : int;  (* variable reads/writes served by a slot
                                 or a valid inline cache *)
}

type t = {
  commands : (string, cmd_def) Hashtbl.t;
  lint : lint_stats;
  global_frame : frame;
  mutable stack : frame list; (* non-global frames, innermost first *)
  mutable depth : int; (* current eval nesting, for runaway recursion *)
  mutable cmd_count : int;
  mutable out : string -> unit;
  mutable error_in_progress : bool;
      (* an error is unwinding: errorInfo accumulates context lines *)
  mutable history_recording : bool;
  mutable history : (int * string) list; (* newest first *)
  mutable history_next : int;
  mutable compile_enabled : bool;
      (* parse-once mode: scripts run from cached lowered code; off =
         the reference character-at-a-time evaluator *)
  script_cache : (string, frame Vm.code) Hashtbl.t;
  script_order : string Queue.t; (* the cache's keys, oldest first *)
  stats : compile_stats;
  mutable time_source : (unit -> float) option;
      (* pluggable clock for [time] (seconds); None = Sys.time *)
  (* --- isolation tree --- *)
  slaves : (string, t) Hashtbl.t;
  hidden : (string, cmd_def) Hashtbl.t;
      (* commands moved out of dispatch reach (hide/expose/invokehidden);
         invoking one by name is a counted denial, not an unknown *)
  aliases : (string, string) Hashtbl.t;
      (* alias name -> rendered target spec, for [interp aliases] *)
  mutable safe : bool;
  (* --- limits / cancellation --- *)
  mutable recursionlimit : int;
  mutable guard_active : bool;
      (* fast flag: some limit or cancellation needs checking at eval
         boundaries; false = one boolean test per boundary *)
  mutable limit_time_ms : int; (* time budget in ms; 0 = unlimited *)
  mutable limit_deadline_ms : int; (* absolute, on the limit clock *)
  mutable limit_granularity : int; (* boundaries per deadline read *)
  mutable limit_countdown : int;
  mutable limit_cmds : int; (* command-dispatch budget; 0 = unlimited *)
  mutable limit_cmds_left : int;
  mutable tripped : limit_kind option;
  mutable limit_clock : (unit -> int) option;
      (* milliseconds; None falls back to [current_time] — the toolkit
         points this at the event dispatcher's clock *)
  mutable cancel_request : (string * bool) option; (* message, unwind *)
  mutable unwinding : bool;
      (* a limit or unwinding-cancel error is propagating: [catch] must
         let it through instead of stopping it *)
  mutable guard : guard_stats; (* shared by reference across the tree *)
  (* --- bytecode VM --- *)
  mutable vm_canon : bool;
      (* the ten structural builtins are still the canonical ones
         snapshotted by [mark_canonical]: inlined opcodes may bypass
         dispatch.  Recomputed on every command-table mutation. *)
  mutable vm_canon_defs : (string * cmd_def) list;
  mutable vm_lastcmd : (string * cmd_def) option;
      (* one-entry dispatch cache for VM command words, keyed by the
         *physical* name string (lowered literals are interned in the
         code); cleared on every command-table mutation *)
  mutable vm_xval : Expr.value option;
      (* typed-result side channel: a bracketed [expr] reaching the VM
         leaves its numeric value here so the enclosing expression can
         skip the string round-trip; None whenever no typed producer
         ran (consumers then parse the string result as before) *)
  vm : vm_stats;
  channels : (string, chan) Hashtbl.t;  (* open file channels, by id *)
  mutable next_chan : int;  (* numeric suffix of the next "fileN" id *)
}

and command = t -> string list -> result

and chan = Chan_in of in_channel | Chan_out of out_channel

and cmd_def =
  | Builtin of command * signature
  | Proc of proc_def

and proc_def = {
  formals : (string * string option) list;
  body : string;
  mutable pvm : frame Vm.code option;
      (* compiled and lowered on first VM call; always derived from
         [body], so redefinition replaces it atomically *)
  mutable plocals : string array;
      (* the slot names of [pvm]'s frame, set with it *)
  mutable pframes : frame list;
      (* pool of call frames for reuse, bounded by recursion depth: only
         frames that never spilled into their hashtable (fgen = 0, so no
         inline cache or link can reference them) are returned here,
         with their slot cells wiped *)
}

let default_recursion_limit = 1000

let new_frame () =
  { vars = Hashtbl.create 16; fgen = 0; lnames = [||]; lcells = [||] }

(* A frame for a VM-compiled procedure: its local variables live in the
   cell array, addressed by slot index, until something structural (an
   upvar link, an array, a variable outside the compiled set) spills
   into the hashtable and bumps [fgen]. *)
let vm_frame lnames =
  {
    (* Most VM frames never spill a binding: start the table tiny. *)
    vars = Hashtbl.create 1;
    fgen = 0;
    lnames;
    lcells = Array.make (Array.length lnames) None;
  }

let bump_fgen f = f.fgen <- f.fgen + 1

(* What the caller does with a VM result's Tcl_ok value.  [Vdiscard]
   (loop bodies, non-final commands of a block) lets inlined opcodes
   skip rendering the result string; [Vtyped] (a bracketed [expr \[...\]]
   operand) additionally lets a final expr leave its numeric value in
   [vm_xval], skipping the string round-trip entirely.  Error values
   are never affected. *)
type wantv = Vdiscard | Vstring | Vtyped

(* Index of [name] in the frame's local-slot table, or -1.  A top-level
   recursion, not a local one: this runs on every formal bind and a
   local [rec] would allocate its closure each call. *)
let rec local_slot_from lnames name n i =
  if i >= n then -1
  else if String.equal (Array.unsafe_get lnames i) name then i
  else local_slot_from lnames name n (i + 1)

let local_slot f name =
  local_slot_from f.lnames name (Array.length f.lnames) 0

let create () =
  {
    commands = Hashtbl.create 64;
    lint = { lint_runs = 0; lint_errors = 0; lint_warnings = 0 };
    global_frame = new_frame ();
    stack = [];
    depth = 0;
    cmd_count = 0;
    out = print_string;
    error_in_progress = false;
    history_recording = false;
    history = [];
    history_next = 1;
    compile_enabled = true;
    script_cache = Hashtbl.create 64;
    script_order = Queue.create ();
    stats = fresh_stats ();
    time_source = None;
    slaves = Hashtbl.create 4;
    hidden = Hashtbl.create 8;
    aliases = Hashtbl.create 8;
    safe = false;
    recursionlimit = default_recursion_limit;
    guard_active = false;
    limit_time_ms = 0;
    limit_deadline_ms = 0;
    limit_granularity = 1;
    limit_countdown = 1;
    limit_cmds = 0;
    limit_cmds_left = 0;
    tripped = None;
    limit_clock = None;
    cancel_request = None;
    unwinding = false;
    guard = fresh_guard_stats ();
    vm_canon = false;
    vm_canon_defs = [];
    vm_lastcmd = None;
    vm_xval = None;
    vm = { v_compiled = 0; v_deopts = 0; v_slot_hits = 0 };
    channels = Hashtbl.create 4;
    next_chan = 3;
  }

let current_frame t =
  match t.stack with [] -> t.global_frame | f :: _ -> f

let current_level t = List.length t.stack

(* Frame at absolute level: 0 = global, [current_level] = innermost. *)
let frame_at t level =
  let cur = current_level t in
  if level < 0 || level > cur then None
  else if level = 0 then Some t.global_frame
  else List.nth_opt t.stack (cur - level)

let parse_level t spec =
  let cur = current_level t in
  let abs =
    if String.length spec > 0 && spec.[0] = '#' then
      int_of_string_opt (String.sub spec 1 (String.length spec - 1))
    else
      match int_of_string_opt spec with
      | Some d -> Some (cur - d)
      | None -> None
  in
  match abs with
  | Some l when l >= 0 && l <= cur -> Some l
  | _ -> None

let with_level t level thunk =
  let saved = t.stack in
  let cur = current_level t in
  if level < 0 || level > cur then failf "bad level %d" level;
  t.stack <-
    (if level = 0 then []
     else
       (* Drop the innermost (cur - level) frames. *)
       let rec drop n l = if n = 0 then l else match l with [] -> [] | _ :: tl -> drop (n - 1) tl in
       drop (cur - level) saved);
  Fun.protect ~finally:(fun () -> t.stack <- saved) thunk

(* ------------------------------------------------------------------ *)
(* Variables *)

(* Split "a(i)" into (base, Some index). *)
let split_array_name name =
  let n = String.length name in
  if n > 1 && name.[n - 1] = ')' then
    match String.index_opt name '(' with
    | Some i when i > 0 -> Some (String.sub name 0 i, String.sub name (i + 1) (n - i - 2))
    | _ -> None
  else None

(* Follow upvar links to the frame/name that actually stores the value.
   A link's target may itself be an array element ("upvar a(k) v"), so the
   resolved name is re-examined for array syntax by the callers. *)
let rec resolve frame name =
  match split_array_name name with
  | Some _ -> (frame, name) (* array refs resolve their base separately *)
  | None -> (
    match Hashtbl.find_opt frame.vars name with
    | Some (Link (f, n)) -> resolve f n
    | _ -> (frame, name))

let rec get_var_in frame name =
  let frame, name = resolve frame name in
  match split_array_name name with
  | Some (base, idx) -> (
    let bframe, base = resolve frame base in
    match Hashtbl.find_opt bframe.vars base with
    | Some (Array_var h) -> Hashtbl.find_opt h idx
    | _ -> None)
  | None -> (
    match Hashtbl.find_opt frame.vars name with
    | Some (Scalar v) -> Some (Tval.to_string v)
    | Some (Link (f, n)) -> get_var_in f n
    | Some (Array_var _) -> None
    | None -> (
      match local_slot frame name with
      | -1 -> None
      | i -> Option.map Tval.to_string frame.lcells.(i)))

let get_var t name = get_var_in (current_frame t) name

let get_var_exn t name =
  match get_var t name with
  | Some v -> v
  | None -> failf "can't read \"%s\": no such variable" name

let set_var t name value =
  let frame, name = resolve (current_frame t) name in
  match split_array_name name with
  | Some (base, idx) -> (
    let frame, base = resolve frame base in
    match Hashtbl.find_opt frame.vars base with
    | Some (Array_var h) -> Hashtbl.replace h idx value
    | Some (Scalar _) ->
      failf "can't set \"%s\": variable isn't array" name
    | Some (Link _) | None ->
      (match local_slot frame base with
      | i when i >= 0 && frame.lcells.(i) <> None ->
        failf "can't set \"%s\": variable isn't array" name
      | _ -> ());
      let h = Hashtbl.create 8 in
      Hashtbl.replace h idx value;
      Hashtbl.replace frame.vars base (Array_var h);
      bump_fgen frame)
  | None -> (
    match Hashtbl.find_opt frame.vars name with
    | Some (Array_var _) -> failf "can't set \"%s\": variable is array" name
    | Some (Scalar cell) -> Tval.set_string cell value
    | Some (Link _) ->
      Hashtbl.replace frame.vars name (Scalar (Tval.of_string value));
      bump_fgen frame
    | None -> (
      match local_slot frame name with
      | -1 ->
        Hashtbl.replace frame.vars name (Scalar (Tval.of_string value));
        bump_fgen frame
      | i -> (
        match frame.lcells.(i) with
        | Some cell -> Tval.set_string cell value
        | None -> frame.lcells.(i) <- Some (Tval.of_string value))))

(* Unsetting a link unsets the variable it names and keeps the link, as
   Tcl's upvar and global do: a later write through it sets that
   variable again. *)
let unset_var t name =
  let frame = current_frame t in
  let frame, name =
    match Hashtbl.find_opt frame.vars name with
    | Some (Link (f, n)) -> resolve f n
    | _ -> (frame, name)
  in
  match split_array_name name with
  | Some (base, idx) -> (
    let frame, base = resolve frame base in
    match Hashtbl.find_opt frame.vars base with
    | Some (Array_var h) when Hashtbl.mem h idx ->
      Hashtbl.remove h idx;
      true
    | _ -> false)
  | None ->
    if Hashtbl.mem frame.vars name then begin
      Hashtbl.remove frame.vars name;
      bump_fgen frame;
      true
    end
    else (
      match local_slot frame name with
      | i when i >= 0 && frame.lcells.(i) <> None ->
        frame.lcells.(i) <- None;
        true
      | _ -> false)

let var_names t ~local ~global =
  let collect frame =
    let cells = ref [] in
    Array.iteri
      (fun i n -> if frame.lcells.(i) <> None then cells := n :: !cells)
      frame.lnames;
    Hashtbl.fold (fun k _ acc -> k :: acc) frame.vars !cells
  in
  let locals = if local then collect (current_frame t) else [] in
  let globals = if global then collect t.global_frame else [] in
  List.sort_uniq String.compare (locals @ globals)

let array_names t name =
  let frame, name = resolve (current_frame t) name in
  match Hashtbl.find_opt frame.vars name with
  | Some (Array_var h) ->
    Some (List.sort String.compare (Hashtbl.fold (fun k _ acc -> k :: acc) h []))
  | _ -> None

let link_var t ~target_level ~target ~local =
  match frame_at t target_level with
  | None -> failf "bad level \"#%d\"" target_level
  | Some target_frame ->
    let frame = current_frame t in
    if frame == target_frame && target = local then ()
    else begin
      (* The link shadows (and discards) any VM local cell of that name,
         exactly as replacing a hashtable binding used to. *)
      (match local_slot frame local with
      | i when i >= 0 -> frame.lcells.(i) <- None
      | _ -> ());
      Hashtbl.replace frame.vars local (Link (target_frame, target));
      bump_fgen frame
    end

(* ------------------------------------------------------------------ *)
(* Commands *)

(* The structural commands the VM may inline.  [mark_canonical]
   (called once the builtins are installed) snapshots their
   definitions; any later mutation of the command table recomputes
   [vm_canon] by physical comparison, so redefining, renaming, hiding
   or shadowing one of these immediately routes inlined opcodes back
   through ordinary dispatch. *)
let vm_inline_names =
  [ "set"; "incr"; "expr"; "if"; "while"; "for"; "foreach"; "return";
    "break"; "continue" ]

let refresh_canon t =
  t.vm_lastcmd <- None;
  t.vm_canon <-
    t.vm_canon_defs <> []
    && List.for_all
         (fun (n, d) ->
           match Hashtbl.find_opt t.commands n with
           | Some d' -> d' == d
           | None -> false)
         t.vm_canon_defs

let mark_canonical t =
  t.vm_canon_defs <-
    List.filter_map
      (fun n ->
        Option.map (fun d -> (n, d)) (Hashtbl.find_opt t.commands n))
      vm_inline_names;
  refresh_canon t

let register t s cmd =
  Hashtbl.replace t.commands s.sig_name (Builtin (cmd, s));
  refresh_canon t

let register_value t s f = register t s (fun t words -> ok (f t words))

let signature_of t name =
  match Hashtbl.find_opt t.commands name with
  | Some (Builtin (_, s)) -> Some s
  | _ -> None

let note_lint t ~errors ~warnings =
  t.lint.lint_runs <- t.lint.lint_runs + 1;
  t.lint.lint_errors <- t.lint.lint_errors + errors;
  t.lint.lint_warnings <- t.lint.lint_warnings + warnings

let reset_lint_stats t =
  t.lint.lint_runs <- 0;
  t.lint.lint_errors <- 0;
  t.lint.lint_warnings <- 0

let lint_stats t =
  [
    ("runs", string_of_int t.lint.lint_runs);
    ("errors", string_of_int t.lint.lint_errors);
    ("warnings", string_of_int t.lint.lint_warnings);
  ]

let define_proc t name formals body =
  Hashtbl.replace t.commands name
    (Proc { formals; body; pvm = None; plocals = [||]; pframes = [] });
  refresh_canon t

let proc_info t name =
  match Hashtbl.find_opt t.commands name with
  | Some (Proc p) -> Some (p.formals, p.body)
  | _ -> None

let delete_command t name =
  if Hashtbl.mem t.commands name then begin
    Hashtbl.remove t.commands name;
    refresh_canon t;
    true
  end
  else false

let rename_command t old_name new_name =
  match Hashtbl.find_opt t.commands old_name with
  | None ->
    Stdlib.Error
      (Printf.sprintf "can't rename \"%s\": command doesn't exist" old_name)
  | Some def ->
    Hashtbl.remove t.commands old_name;
    if new_name <> "" then Hashtbl.replace t.commands new_name def;
    refresh_canon t;
    Stdlib.Ok ()

let command_exists t name = Hashtbl.mem t.commands name

let command_names t =
  List.sort String.compare
    (Hashtbl.fold (fun k _ acc -> k :: acc) t.commands [])

let proc_names t =
  List.sort String.compare
    (Hashtbl.fold
       (fun k def acc -> match def with Proc _ -> k :: acc | Builtin _ -> acc)
       t.commands [])

let set_output t f = t.out <- f

let mark_error_handled t = t.error_in_progress <- false

let history_limit = 100

let set_history_recording t flag = t.history_recording <- flag

let record_history_event t script =
  if t.history_recording && String.trim script <> "" then begin
    t.history <- (t.history_next, script) :: t.history;
    t.history_next <- t.history_next + 1;
    (* Keep a bounded window, like Tcl's "history keep". *)
    if List.length t.history > history_limit then
      t.history <- List.filteri (fun i _ -> i < history_limit) t.history
  end

let history_events t = List.rev t.history

let history_event t n = List.assoc_opt n t.history

(* errorInfo lives in the global frame, like in real Tcl. *)
let set_error_info t text =
  let f = t.global_frame in
  match Hashtbl.find_opt f.vars "errorInfo" with
  | Some (Scalar cell) -> Tval.set_string cell text
  | _ ->
    Hashtbl.replace f.vars "errorInfo" (Scalar (Tval.of_string text));
    bump_fgen f

let get_error_info t =
  match Hashtbl.find_opt t.global_frame.vars "errorInfo" with
  | Some (Scalar v) -> Tval.to_string v
  | _ -> ""

(* Record one level of error context: the command whose evaluation
   produced (or propagated) the error. *)
let trace_error t ~command msg =
  let command =
    let c = String.trim command in
    if String.length c > 150 then String.sub c 0 147 ^ "..." else c
  in
  if not t.error_in_progress then begin
    t.error_in_progress <- true;
    set_error_info t msg
  end;
  set_error_info t
    (get_error_info t ^ "\n    while executing\n\"" ^ command ^ "\"")

let output t s = t.out s

let command_count t = t.cmd_count

let channels t = t.channels

let add_channel t c =
  let id = Printf.sprintf "file%d" t.next_chan in
  t.next_chan <- t.next_chan + 1;
  Hashtbl.replace t.channels id c;
  id

(* ------------------------------------------------------------------ *)
(* The script cache: source text to lowered VM code.

   Compilation and lowering are purely syntactic (see Compile and Vm),
   so an entry never goes stale and is keyed by the source string
   alone. The code points into that key (its [src] is the key itself),
   so an entry keeps no copy of its text. A full table drops its oldest
   entry, in insertion order: a hot text pays one recompile per
   [cache_limit] misses, a hit does no bookkeeping, and a miss no scan.
   The table stays full, so the memory it holds does not depend on how
   many misses came before. *)

let cache_limit = 512

(* Count one parse pass over a script. *)
let count_pass t () =
  t.stats.script_compiles <- t.stats.script_compiles + 1;
  t.stats.parse_passes <- t.stats.parse_passes + 1

(* Compile a script, counting the pass. *)
let compile_counted t src =
  count_pass t ();
  Compile.compile src

let script_code t src =
  match Hashtbl.find_opt t.script_cache src with
  | Some code ->
    t.stats.script_hits <- t.stats.script_hits + 1;
    code
  | None ->
    t.stats.script_misses <- t.stats.script_misses + 1;
    if Hashtbl.length t.script_cache >= cache_limit then begin
      t.stats.script_evictions <- t.stats.script_evictions + 1;
      Hashtbl.remove t.script_cache (Queue.pop t.script_order)
    end;
    let code = Vm.lower ~on_pass:(count_pass t) src in
    t.vm.v_compiled <- t.vm.v_compiled + 1;
    Hashtbl.add t.script_cache src code;
    Queue.push src t.script_order;
    code

let set_compile_enabled t flag = t.compile_enabled <- flag

let reset_vm_stats t =
  t.vm.v_compiled <- 0;
  t.vm.v_deopts <- 0;
  t.vm.v_slot_hits <- 0

let vm_stats t =
  [
    ("canonical", if t.vm_canon then "1" else "0");
    ("compiled", string_of_int t.vm.v_compiled);
    ("deopts", string_of_int t.vm.v_deopts);
    ("slot_hits", string_of_int t.vm.v_slot_hits);
  ]

let clear_compile_caches t =
  Hashtbl.reset t.script_cache;
  Queue.clear t.script_order

let reset_compile_stats t =
  let s = t.stats in
  s.script_hits <- 0;
  s.script_misses <- 0;
  s.script_evictions <- 0;
  s.script_compiles <- 0;
  s.parse_passes <- 0

let compile_stats t =
  let s = t.stats in
  [
    ("enabled", if t.compile_enabled then "1" else "0");
    ("script_cache_size", string_of_int (Hashtbl.length t.script_cache));
    ("script_hits", string_of_int s.script_hits);
    ("script_misses", string_of_int s.script_misses);
    ("script_evictions", string_of_int s.script_evictions);
    ("script_compiles", string_of_int s.script_compiles);
    ("parse_passes", string_of_int s.parse_passes);
  ]

let set_time_source t f = t.time_source <- f

let current_time t =
  match t.time_source with Some f -> f () | None -> Sys.time ()

(* ------------------------------------------------------------------ *)
(* Resource limits and cancellation *)

let recursion_limit t = t.recursionlimit

let set_recursion_limit t n =
  if n < 1 then failf "recursionlimit must be at least 1"
  else t.recursionlimit <- n

let set_limit_clock t f = t.limit_clock <- f

let limit_clock t = t.limit_clock

let limit_now t =
  match t.limit_clock with
  | Some f -> f ()
  | None -> int_of_float (current_time t *. 1000.0)

let recompute_guard t =
  t.guard_active <-
    t.limit_time_ms > 0 || t.limit_cmds > 0 || t.tripped <> None
    || t.cancel_request <> None

(* Re-arm every configured budget and clear the tripped state: the time
   deadline restarts from now, the command budget refills.  This is the
   only way out of a tripped limit. *)
let rearm_limits t =
  t.tripped <- None;
  t.limit_cmds_left <- t.limit_cmds;
  t.limit_countdown <- t.limit_granularity;
  if t.limit_time_ms > 0 then
    t.limit_deadline_ms <- limit_now t + t.limit_time_ms;
  recompute_guard t

let set_time_limit ?(granularity = 1) t ms =
  if ms < 0 then failf "time limit must be a non-negative integer"
  else if granularity < 1 then failf "granularity must be at least 1"
  else begin
    t.limit_time_ms <- ms;
    t.limit_granularity <- granularity;
    rearm_limits t
  end

let set_command_limit t n =
  if n < 0 then failf "command limit must be a non-negative integer"
  else begin
    t.limit_cmds <- n;
    rearm_limits t
  end

let time_limit t = t.limit_time_ms

let command_limit t = t.limit_cmds

let limit_tripped t = t.tripped

let limit_message = function
  | Limit_time -> "time limit exceeded"
  | Limit_commands -> "command count limit exceeded"

let cancel ?(unwind = false) ?message t =
  let msg =
    match message with
    | Some m -> m
    | None -> if unwind then "eval unwound" else "eval canceled"
  in
  t.cancel_request <- Some (msg, unwind);
  t.guard.g_cancels <- t.guard.g_cancels + 1;
  recompute_guard t

let unwinding t = t.unwinding

(* For hosts that surface a limit/unwind error as a value (e.g. a send
   reply) rather than letting it propagate: once delivered, the error
   is ordinary again and [catch] must work. *)
let clear_unwinding t = t.unwinding <- false

let denied_count t = t.guard.g_denied

(* One boundary check.  Callers test [guard_active] first, so this only
   runs when some limit or cancellation is armed.  [spend] is true for a
   command dispatch (which consumes command budget); script-entry checks
   pass false.  Returns the error message when evaluation must abort. *)
let guard_check t ~spend =
  match t.tripped with
  | Some k ->
    t.unwinding <- true;
    Some (limit_message k)
  | None -> (
    match t.cancel_request with
    | Some (msg, unwind) ->
      (* Cancellation is one-shot: delivered here, consumed.  Plain
         cancels are catchable (the script may clean up); -unwind ones
         propagate through catch like limit errors. *)
      t.cancel_request <- None;
      t.unwinding <- unwind;
      t.guard.g_cancelled <- t.guard.g_cancelled + 1;
      recompute_guard t;
      Some msg
    | None ->
      let trip k =
        t.tripped <- Some k;
        t.unwinding <- true;
        (match k with
        | Limit_time -> t.guard.g_time_exceeded <- t.guard.g_time_exceeded + 1
        | Limit_commands ->
          t.guard.g_cmd_exceeded <- t.guard.g_cmd_exceeded + 1);
        Some (limit_message k)
      in
      t.guard.g_checks <- t.guard.g_checks + 1;
      let cmd_hit =
        spend && t.limit_cmds > 0
        && begin
             t.limit_cmds_left <- t.limit_cmds_left - 1;
             t.limit_cmds_left < 0
           end
      in
      if cmd_hit then trip Limit_commands
      else if t.limit_time_ms > 0 then begin
        t.limit_countdown <- t.limit_countdown - 1;
        if t.limit_countdown <= 0 then begin
          t.limit_countdown <- t.limit_granularity;
          if limit_now t >= t.limit_deadline_ms then trip Limit_time
          else None
        end
        else None
      end
      else None)

(* ------------------------------------------------------------------ *)
(* Slave interpreters, hidden commands, aliases *)

let is_safe t = t.safe

let set_safe t flag = t.safe <- flag

let find_slave t name = Hashtbl.find_opt t.slaves name

let slave_names t =
  List.sort String.compare
    (Hashtbl.fold (fun k _ acc -> k :: acc) t.slaves [])

let add_slave t name slave =
  (* Guard stats are shared down the tree so an application's metrics see
     slave activity without walking the tree on every snapshot. *)
  slave.guard <- t.guard;
  Hashtbl.replace t.slaves name slave;
  t.guard.g_creates <- t.guard.g_creates + 1

let rec delete_slave t name =
  match Hashtbl.find_opt t.slaves name with
  | None -> false
  | Some s ->
    (* Recursive teardown: a master owns its whole subtree. *)
    List.iter (fun n -> ignore (delete_slave s n)) (slave_names s);
    Hashtbl.remove t.slaves name;
    t.guard.g_deletes <- t.guard.g_deletes + 1;
    true

let rec count_slaves t =
  Hashtbl.fold (fun _ s acc -> acc + 1 + count_slaves s) t.slaves 0

let rec count_safe_slaves t =
  Hashtbl.fold
    (fun _ s acc ->
      acc + (if s.safe then 1 else 0) + count_safe_slaves s)
    t.slaves 0

let hide_command t name =
  match Hashtbl.find_opt t.commands name with
  | None ->
    Stdlib.Error (Printf.sprintf "unknown command \"%s\"" name)
  | Some def ->
    if Hashtbl.mem t.hidden name then
      Stdlib.Error
        (Printf.sprintf "hidden command named \"%s\" already exists" name)
    else begin
      Hashtbl.remove t.commands name;
      Hashtbl.replace t.hidden name def;
      refresh_canon t;
      Stdlib.Ok ()
    end

let expose_command ?as_name t name =
  let exposed = Option.value as_name ~default:name in
  match Hashtbl.find_opt t.hidden name with
  | None ->
    Stdlib.Error (Printf.sprintf "unknown hidden command \"%s\"" name)
  | Some def ->
    if Hashtbl.mem t.commands exposed then
      Stdlib.Error
        (Printf.sprintf "exposed command \"%s\" already exists" exposed)
    else begin
      Hashtbl.remove t.hidden name;
      Hashtbl.replace t.commands exposed def;
      refresh_canon t;
      Stdlib.Ok ()
    end

let hidden_names t =
  List.sort String.compare
    (Hashtbl.fold (fun k _ acc -> k :: acc) t.hidden [])

let note_alias t name target = Hashtbl.replace t.aliases name target

let drop_alias t name = Hashtbl.remove t.aliases name

let alias_target t name = Hashtbl.find_opt t.aliases name

let alias_names t =
  List.sort String.compare
    (Hashtbl.fold (fun k _ acc -> k :: acc) t.aliases [])

let count_alias_call t = t.guard.g_alias_calls <- t.guard.g_alias_calls + 1

(* ------------------------------------------------------------------ *)
(* Guard metrics exports *)

let reset_guard_stats t =
  let g = t.guard in
  g.g_checks <- 0;
  g.g_time_exceeded <- 0;
  g.g_cmd_exceeded <- 0;
  g.g_cancels <- 0;
  g.g_cancelled <- 0;
  g.g_denied <- 0;
  g.g_recursion_exceeded <- 0;
  g.g_creates <- 0;
  g.g_deletes <- 0;
  g.g_alias_calls <- 0

let limit_stats t =
  let g = t.guard in
  [
    ("checks", string_of_int g.g_checks);
    ("time_exceeded", string_of_int g.g_time_exceeded);
    ("cmd_exceeded", string_of_int g.g_cmd_exceeded);
    ("cancels", string_of_int g.g_cancels);
    ("cancelled", string_of_int g.g_cancelled);
    ("denied", string_of_int g.g_denied);
    ("recursion_exceeded", string_of_int g.g_recursion_exceeded);
  ]

let interp_stats t =
  let g = t.guard in
  [
    ("slaves", string_of_int (count_slaves t));
    ("safe_slaves", string_of_int (count_safe_slaves t));
    ("creates", string_of_int g.g_creates);
    ("deletes", string_of_int g.g_deletes);
    ("alias_calls", string_of_int g.g_alias_calls);
    ("recursionlimit", string_of_int t.recursionlimit);
    ("time_limit_ms", string_of_int t.limit_time_ms);
    ("command_limit", string_of_int t.limit_cmds);
  ]

(* ------------------------------------------------------------------ *)
(* Parser / evaluator *)

let is_sep c = Chars.is_space c

let skip_separators = Chars.skip_separators

let skip_comment = Chars.skip_comment

(* Evaluate [src] starting at [pos]. In [bracket] mode, evaluation stops at
   the first unmatched ']' (command substitution); the returned position is
   just after it. Returns (status, value, next position). *)
let rec eval_in t src pos ~bracket =
  let n = String.length src in
  if t.depth = 0 then begin
    t.error_in_progress <- false;
    t.unwinding <- false
  end;
  if t.depth > t.recursionlimit then begin
    t.guard.g_recursion_exceeded <- t.guard.g_recursion_exceeded + 1;
    (Tcl_error, "too many nested evaluations (infinite loop?)", n)
  end
  else begin
    (* Script-entry boundary: catches runaways (e.g. [while 1 {}]) whose
       bodies never dispatch a command.  No command budget is spent. *)
    match if t.guard_active then guard_check t ~spend:false else None with
    | Some msg -> (Tcl_error, msg, n)
    | None ->
    t.depth <- t.depth + 1;
    let finally () = t.depth <- t.depth - 1 in
    match eval_loop t src n pos ~bracket (Tcl_ok, "") with
    | res ->
      finally ();
      res
    | exception e ->
      finally ();
      raise e
  end

and eval_loop t src n pos ~bracket last =
  let pos = skip_separators src n pos in
  if pos >= n then
    let status, v = last in
    (status, v, pos)
  else if bracket && src.[pos] = ']' then
    let status, v = last in
    (status, v, pos + 1)
  else if src.[pos] = '#' then
    eval_loop t src n (skip_comment src n pos) ~bracket last
  else
    match parse_and_run t src n pos ~bracket with
    | Tcl_ok, v, next -> eval_loop t src n next ~bracket (Tcl_ok, v)
    | (status, v, next) -> (status, v, next)

(* Parse the words of one command (performing substitutions), then invoke
   it. *)
and parse_and_run t src n pos ~bracket =
  match parse_words t src n pos ~bracket [] with
  | exception Propagate (status, v) -> (status, v, n)
  | exception Tcl_failure msg ->
    if not t.error_in_progress then begin
      t.error_in_progress <- true;
      set_error_info t msg
    end;
    (Tcl_error, msg, n)
  | words, next ->
    if words = [] then (Tcl_ok, "", next)
    else
      let status, v = invoke t words in
      (if status = Tcl_error then
         let stop = min next n in
         trace_error t ~command:(String.sub src pos (stop - pos)) v);
      (status, v, next)

and parse_words t src n pos ~bracket acc =
  let pos = ref pos in
  (* Skip word separators; a backslash-newline counts as one. *)
  let rec skip () =
    if !pos < n && is_sep src.[!pos] then begin
      incr pos;
      skip ()
    end
    else if !pos + 1 < n && src.[!pos] = '\\' && src.[!pos + 1] = '\n' then begin
      let _, j = Chars.backslash_subst src !pos in
      pos := j;
      skip ()
    end
  in
  skip ();
  if
    !pos >= n
    || src.[!pos] = '\n'
    || src.[!pos] = ';'
    || (bracket && src.[!pos] = ']')
  then begin
    (* Command terminator: consume a newline/semicolon, leave ']' for the
       caller. *)
    let next =
      if !pos < n && (src.[!pos] = '\n' || src.[!pos] = ';') then !pos + 1
      else !pos
    in
    (List.rev acc, next)
  end
  else
    let word, next = parse_word t src n !pos ~bracket in
    parse_words t src n next ~bracket (word :: acc)

and parse_word t src n pos ~bracket =
  if src.[pos] = '{' then begin
    match Chars.find_matching_brace src pos with
    | None -> raise (Tcl_failure "missing close-brace")
    | Some j ->
      check_word_end src n (j + 1) ~bracket;
      (Chars.braced_content src pos j, j + 1)
  end
  else if src.[pos] = '"' then begin
    let buf = Buffer.create 16 in
    let next = substitute_until t src n (pos + 1) ~stop_quote:true ~bracket buf in
    check_word_end src n next ~bracket;
    (Buffer.contents buf, next)
  end
  else begin
    let buf = Buffer.create 16 in
    let next = substitute_until t src n pos ~stop_quote:false ~bracket buf in
    (Buffer.contents buf, next)
  end

and check_word_end src n pos ~bracket =
  if not (Chars.word_end_ok src n pos ~bracket) then
    raise
      (Tcl_failure "extra characters after close-brace or close-quote")

(* Scan a word (or the inside of a quoted word), appending substituted text
   to [buf]. Returns the position just after the word. [']'] only ends a
   bare word inside a command substitution; elsewhere it is an ordinary
   character, as in Tcl. *)
and substitute_until t src n pos ~stop_quote ~bracket buf =
  if pos >= n then
    if stop_quote then raise (Tcl_failure "missing close quote") else pos
  else
    let c = src.[pos] in
    if stop_quote && c = '"' then pos + 1
    else if
      (not stop_quote)
      && (is_sep c || c = '\n' || c = ';' || (bracket && c = ']'))
    then pos
    else
      match c with
      | '\\' when (not stop_quote) && pos + 1 < n && src.[pos + 1] = '\n' ->
        (* Backslash-newline terminates a bare word (it acts as a word
           separator). *)
        pos
      | '\\' ->
        let repl, j = Chars.backslash_subst src pos in
        Buffer.add_string buf repl;
        substitute_until t src n j ~stop_quote ~bracket buf
      | '$' ->
        let j = substitute_variable t src n pos ~bracket buf in
        substitute_until t src n j ~stop_quote ~bracket buf
      | '[' -> (
        match eval_in t src (pos + 1) ~bracket:true with
        | Tcl_ok, v, j ->
          Buffer.add_string buf v;
          substitute_until t src n j ~stop_quote ~bracket buf
        | status, v, _ -> raise (Propagate (status, v)))
      | c ->
        Buffer.add_char buf c;
        substitute_until t src n (pos + 1) ~stop_quote ~bracket buf

(* Substitute a $-variable reference starting at the '$'. Returns the
   position after the reference. *)
and substitute_variable t src n pos ~bracket buf =
  let start = pos + 1 in
  if start < n && src.[start] = '{' then begin
    match String.index_from_opt src start '}' with
    | None -> raise (Tcl_failure "missing close-brace for variable name")
    | Some j ->
      let name = String.sub src (start + 1) (j - start - 1) in
      Buffer.add_string buf (get_var_exn t name);
      j + 1
  end
  else begin
    let i = ref start in
    while !i < n && Chars.is_var_char src.[!i] do
      incr i
    done;
    if !i = start then begin
      (* A lone '$' is literal. *)
      Buffer.add_char buf '$';
      start
    end
    else if !i < n && src.[!i] = '(' then begin
      (* Array element: the index undergoes substitution itself. *)
      let base = String.sub src start (!i - start) in
      let idx_buf = Buffer.create 8 in
      let j = substitute_index t src n (!i + 1) ~bracket idx_buf in
      let name = base ^ "(" ^ Buffer.contents idx_buf ^ ")" in
      Buffer.add_string buf (get_var_exn t name);
      j
    end
    else begin
      let name = String.sub src start (!i - start) in
      Buffer.add_string buf (get_var_exn t name);
      !i
    end
  end

and substitute_index t src n pos ~bracket buf =
  if pos >= n then raise (Tcl_failure "missing )")
  else
    match src.[pos] with
    | ')' -> pos + 1
    | '\\' ->
      let repl, j = Chars.backslash_subst src pos in
      Buffer.add_string buf repl;
      substitute_index t src n j ~bracket buf
    | '$' ->
      let j = substitute_variable t src n pos ~bracket buf in
      substitute_index t src n j ~bracket buf
    | '[' -> (
      match eval_in t src (pos + 1) ~bracket:true with
      | Tcl_ok, v, j ->
        Buffer.add_string buf v;
        substitute_index t src n j ~bracket buf
      | status, v, _ -> raise (Propagate (status, v)))
    | c ->
      Buffer.add_char buf c;
      substitute_index t src n (pos + 1) ~bracket buf

(* Invoke one fully substituted command. *)
and invoke t words =
  match words with
  | [] -> (Tcl_ok, "")
  | name :: _ -> (
    (* Command-dispatch boundary: limits and cancellation are delivered
       here (spending command budget) before the command runs. *)
    match if t.guard_active then guard_check t ~spend:true else None with
    | Some msg -> (Tcl_error, msg)
    | None ->
      t.cmd_count <- t.cmd_count + 1;
      invoke_command t name words)

and run_builtin t cmd s words =
  try cmd t words with
  | Tcl_failure msg -> (Tcl_error, msg)
  | Usage ->
    (* A shape that looks fine (the body rejected a combination the
       table cannot express) gets a plain [wrong # args]. *)
    let m = Option.value ~default:(Count []) (misuse s (List.tl words)) in
    (Tcl_error, usage_message s m)
  | Expr.Error msg -> (Tcl_error, msg)
  | e -> (
    match translate_exn e with
    | Some msg -> (Tcl_error, msg)
    | None -> raise e)

and invoke_command t name words =
  match Hashtbl.find_opt t.commands name with
  | Some (Builtin (cmd, s)) -> run_builtin t cmd s words
  | Some (Proc p) -> call_proc t name p words
  | None -> invoke_missing t name words

(* A name with no command: [unknown] gets the words. *)
and invoke_missing t name words =
  if Hashtbl.mem t.hidden name then begin
    (* A hidden command is deliberately withheld (safe slave or send
       guard): report a denial, never fall through to [unknown]. *)
    t.guard.g_denied <- t.guard.g_denied + 1;
    ( Tcl_error,
      Printf.sprintf "permission denied: command \"%s\" is hidden" name )
  end
  else (
    match Hashtbl.find_opt t.commands "unknown" with
    | Some (Builtin (cmd, s)) -> run_builtin t cmd s ("unknown" :: words)
    | Some (Proc p) -> call_proc t "unknown" p ("unknown" :: words)
    | None -> (Tcl_error, Printf.sprintf "invalid command name \"%s\"" name))

(* Run a hidden command from the trusted side (interp invokehidden). *)
and invoke_hidden t name words =
  match Hashtbl.find_opt t.hidden name with
  | None ->
    ( Tcl_error,
      Printf.sprintf "unknown hidden command \"%s\"" name )
  | Some (Builtin (cmd, s)) -> run_builtin t cmd s words
  | Some (Proc p) -> call_proc t name p words

and call_proc t name p words =
  if t.compile_enabled then
    (* String-words entry (reference dispatch, eval_words): wrap the
       actuals; the callee owns the fresh Tvals. *)
    call_proc_vm t Vstring name p (List.map Tval.of_string (List.tl words))
  else call_proc_ref t name p words

(* The reference evaluator's procedure call: a hashtable frame and the
   body re-scanned as text (the -no-compile-cache oracle). *)
and call_proc_ref t name p words =
  let frame = new_frame () in
  let actuals = List.tl words in
  (* Bind formals to actuals, handling defaults and the trailing "args". *)
  let rec bind formals actuals =
    match (formals, actuals) with
    | [], [] -> None
    | [], _ :: _ ->
      Some (Printf.sprintf "called \"%s\" with too many arguments" name)
    | [ ("args", _) ], rest ->
      Hashtbl.replace frame.vars "args"
        (Scalar (Tval.of_string (Tcl_list.format rest)));
      None
    | (formal, _) :: tl, v :: rest ->
      Hashtbl.replace frame.vars formal (Scalar (Tval.of_string v));
      bind tl rest
    | (formal, Some default) :: tl, [] ->
      Hashtbl.replace frame.vars formal (Scalar (Tval.of_string default));
      bind tl []
    | (formal, None) :: _, [] ->
      Some
        (Printf.sprintf "no value given for parameter \"%s\" to \"%s\""
           formal name)
  in
  match bind p.formals actuals with
  | Some msg -> (Tcl_error, msg)
  | None ->
    t.stack <- frame :: t.stack;
    let res =
      Fun.protect
        ~finally:(fun () -> t.stack <- List.tl t.stack)
        (fun () ->
          t.stats.parse_passes <- t.stats.parse_passes + 1;
          let status, v, _ = eval_in t p.body 0 ~bracket:false in
          (status, v))
    in
    finish_proc name res

(* ------------------------------------------------------------------ *)
(* Bytecode VM executor.

   Runs {!Vm.code} lowered from the compiled form, mirroring eval_in /
   eval_loop / parse_and_run: every status, value, errorInfo line,
   guard delivery, command count and side-effect order must match the
   reference evaluator above. Each inlined structural opcode re-checks
   [vm_canon] and deopts to ordinary dispatch of its command when
   set/if/while/... have been redefined. *)

and exec_vm t (want : wantv) (code : frame Vm.code) =
  if t.depth = 0 then begin
    t.error_in_progress <- false;
    t.unwinding <- false
  end;
  if t.depth > t.recursionlimit then begin
    t.guard.g_recursion_exceeded <- t.guard.g_recursion_exceeded + 1;
    (Tcl_error, "too many nested evaluations (infinite loop?)")
  end
  else begin
    match if t.guard_active then guard_check t ~spend:false else None with
    | Some msg -> (Tcl_error, msg)
    | None -> (
      t.depth <- t.depth + 1;
      match
        let insns = code.Vm.insns in
        if Array.length insns = 1 then exec_vinsn t want code insns.(0)
        else exec_vinsns t code insns 0 want (Tcl_ok, "")
      with
      | res ->
        t.depth <- t.depth - 1;
        res
      | exception e ->
        t.depth <- t.depth - 1;
        raise e)
  end

and exec_vinsns t code insns i want last =
  let n = Array.length insns in
  if i >= n then last
  else
    match
      exec_vinsn t (if i = n - 1 then want else Vdiscard) code insns.(i)
    with
    | (Tcl_ok, _) as res -> exec_vinsns t code insns (i + 1) want res
    | res -> res

(* The value cell directly bound to [name] in frame [f], if any: a
   hashtable Scalar wins over a local slot (links and arrays have no
   cell and force the generic variable path). *)
and slot_find f name =
  match Hashtbl.find_opt f.vars name with
  | Some (Scalar cell) -> Some cell
  | Some _ -> None
  | None -> (
    match local_slot f name with
    | -1 -> None
    | i -> f.lcells.(i))

(* The value cell for a VM variable reference, or [Vm_unbound] if the
   name has no direct scalar cell (unbound, link, array element). The
   unbound signal is a constant exception rather than an option so the
   ubiquitous hit path allocates nothing. *)
and vref_cell t (r : frame Vm.vref) : Tval.t =
  let f = current_frame t in
  match r with
  | Vm.Rslot (i, name) ->
    (* fgen = 0 means the hashtable has never been touched, so the slot
       cannot be shadowed by a link, array or spilled binding. *)
    if f.fgen = 0 && i < Array.length f.lcells then (
      match f.lcells.(i) with
      | Some c ->
        t.vm.v_slot_hits <- t.vm.v_slot_hits + 1;
        c
      | None -> raise_notrace Vm_unbound)
    else (
      match slot_find f name with
      | Some c -> c
      | None -> raise_notrace Vm_unbound)
  | Vm.Rname (name, cache) -> (
    match !cache with
    | Some (cf, g, cell) when cf == f && g = f.fgen ->
      t.vm.v_slot_hits <- t.vm.v_slot_hits + 1;
      cell
    | _ -> (
      match Hashtbl.find_opt f.vars name with
      | Some (Scalar cell) ->
        (* Only direct scalar bindings are cached: in-place writes keep
           the generation, every structural change bumps it. *)
        cache := Some (f, f.fgen, cell);
        cell
      | Some _ -> raise_notrace Vm_unbound
      | None -> (
        match local_slot f name with
        | -1 -> raise_notrace Vm_unbound
        | i -> (
          match f.lcells.(i) with
          | Some c -> c
          | None -> raise_notrace Vm_unbound))))

and vref_name (r : frame Vm.vref) =
  match r with Vm.Rslot (_, n) -> n | Vm.Rname (n, _) -> n

and vref_get t r =
  match vref_cell t r with
  | cell -> Tval.to_string cell
  | exception Vm_unbound -> (
    let name = vref_name r in
    match get_var t name with
    | Some v -> v
    | None -> failf "can't read \"%s\": no such variable" name)

and vref_set t r v =
  match vref_cell t r with
  | cell -> Tval.set_string cell v
  | exception Vm_unbound -> set_var t (vref_name r) v

(* A bracketed script inside an expression; mirrors expr_env.eval_cmd. *)
and vexpr_cmd t code =
  match exec_vm t Vstring code with
  | Tcl_ok, v -> v
  | _, msg -> raise (Expr.Error msg)

(* Same, as an expression operand: a final expr in the script hands its
   numeric value over via [vm_xval] (only values whose rendering reparses
   to themselves are passed, so this is operand_value∘to_string elided);
   anything else falls back to parsing the string result. *)
and vexpr_cmd_operand t code =
  let insns = code.Vm.insns in
  if
    Array.length insns = 1
    && (not t.guard_active)
    && t.depth > 0
    && t.depth <= t.recursionlimit
  then begin
    (* Fused single-command bracket (the overwhelmingly common shape):
       exec_vm's prologue reduces to the depth bump — no depth-0 reset
       (we are nested), no recursion error (checked above), no guard
       delivery (inactive). *)
    t.depth <- t.depth + 1;
    t.vm_xval <- None;
    match exec_vinsn t Vtyped code insns.(0) with
    | Tcl_ok, v -> (
      t.depth <- t.depth - 1;
      match t.vm_xval with
      | Some xv ->
        t.vm_xval <- None;
        xv
      | None -> Expr.operand_value v)
    | _, msg ->
      t.depth <- t.depth - 1;
      raise (Expr.Error msg)
    | exception e ->
      t.depth <- t.depth - 1;
      raise e
  end
  else begin
    t.vm_xval <- None;
    match exec_vm t Vtyped code with
    | Tcl_ok, v -> (
      match t.vm_xval with
      | Some xv ->
        t.vm_xval <- None;
        xv
      | None -> Expr.operand_value v)
    | _, msg -> raise (Expr.Error msg)
  end

(* The lowered expression IR, evaluated as Expr.eval evaluates the same
   text: left to right, with &&, || and ?: short-circuiting. The numeric
   rep cached on a Tval cell feeds operators directly; the string parse
   it replaces (Tval.parse_num) is the one Expr.number_of_string makes,
   so the typed path cannot disagree with the reference's operand_value. *)
and eval_vexpr t (e : frame Vm.vexpr) : Expr.value =
  match e with
  | Vm.Xconst v -> v
  | Vm.Xvar r -> (
    match vref_cell t r with
    | cell -> (
      match Tval.num cell with
      | Tval.Nint i -> Expr.Int i
      | Tval.Ndbl f -> Expr.Float f
      | _ -> Expr.operand_value (Tval.to_string cell))
    | exception Vm_unbound -> (
      let name = vref_name r in
      match get_var t name with
      | Some v -> Expr.operand_value v
      | None ->
        raise
          (Expr.Error
             (Printf.sprintf "can't read \"%s\": no such variable" name))))
  | Vm.Xcmd code -> vexpr_cmd_operand t code
  | Vm.Xquoted parts ->
    let buf = Buffer.create 16 in
    List.iter
      (fun (p : frame Vm.qpart) ->
        match p with
        | Vm.Ql s -> Buffer.add_string buf s
        | Vm.Qv name -> (
          match get_var t name with
          | Some v -> Buffer.add_string buf v
          | None ->
            raise
              (Expr.Error
                 (Printf.sprintf "can't read \"%s\": no such variable" name)))
        | Vm.Qc code -> Buffer.add_string buf (vexpr_cmd t code))
      parts;
    Expr.operand_value (Buffer.contents buf)
  | Vm.Xunop (op, x) -> Expr.apply_unary op (eval_vexpr t x)
  | Vm.Xbinop ("&&", x, y) ->
    if Expr.truthy (eval_vexpr t x) then
      Expr.bool_val (Expr.truthy (eval_vexpr t y))
    else Expr.bool_val false
  | Vm.Xbinop ("||", x, y) ->
    if Expr.truthy (eval_vexpr t x) then Expr.bool_val true
    else Expr.bool_val (Expr.truthy (eval_vexpr t y))
  | Vm.Xbinop (op, x, y) -> (
    let a = eval_vexpr t x in
    let b = eval_vexpr t y in
    match (a, b) with
    | Expr.Int ia, Expr.Int ib -> (
      (* Int/Int arithmetic wraps and comparisons are integer compares
         in Expr.apply_binary; these shortcuts are value-identical. *)
      match op with
      | "+" -> Expr.Int (ia + ib)
      | "-" -> Expr.Int (ia - ib)
      | "*" -> Expr.Int (ia * ib)
      | "<" -> Expr.bool_val (ia < ib)
      | ">" -> Expr.bool_val (ia > ib)
      | "<=" -> Expr.bool_val (ia <= ib)
      | ">=" -> Expr.bool_val (ia >= ib)
      | "==" -> Expr.bool_val (ia = ib)
      | "!=" -> Expr.bool_val (ia <> ib)
      | _ -> Expr.apply_binary op a b)
    | _ -> Expr.apply_binary op a b)
  | Vm.Xternary (c, a, b) ->
    if Expr.truthy (eval_vexpr t c) then eval_vexpr t a else eval_vexpr t b
  | Vm.Xfunc (name, args) ->
    let vals = List.fold_left (fun acc a -> eval_vexpr t a :: acc) [] args in
    Expr.apply_function name (List.rev vals)

and int_rel op a b =
  match op with
  | "<" -> a < b
  | ">" -> a > b
  | "<=" -> a <= b
  | ">=" -> a >= b
  | "==" -> a = b
  | _ -> a <> b (* "!=" *)

(* Boolean-producing mirror of [Expr.truthy (eval_vexpr t e)] used for
   if/while/for conditions: comparisons, &&/|| and ! are evaluated to an
   unboxed bool.  Each clause is truthy∘eval_vexpr with the intermediate
   bool_val boxing cancelled, so values and errors are identical; the
   leading clause further shortcuts the ubiquitous [$i < const] shape
   through the variable's cached integer rep (reads are effect-free, so
   the cold fallback may simply re-evaluate the whole condition). *)
and eval_vcond t (e : frame Vm.vexpr) : bool =
  match e with
  | Vm.Xbinop
      ( (("<" | ">" | "<=" | ">=" | "==" | "!=") as op),
        Vm.Xvar r,
        Vm.Xconst (Expr.Int k) ) -> (
    match vref_cell t r with
    | cell -> (
      match Tval.num cell with
      | Tval.Nint i -> int_rel op i k
      | _ -> Expr.truthy (eval_vexpr t e))
    | exception Vm_unbound -> Expr.truthy (eval_vexpr t e))
  | Vm.Xbinop ((("<" | ">" | "<=" | ">=" | "==" | "!=") as op), x, y) -> (
    let a = eval_vexpr t x in
    let b = eval_vexpr t y in
    match (a, b) with
    | Expr.Int ia, Expr.Int ib -> int_rel op ia ib
    | _ -> Expr.truthy (Expr.apply_binary op a b))
  | Vm.Xbinop ("&&", x, y) -> eval_vcond t x && eval_vcond t y
  | Vm.Xbinop ("||", x, y) -> eval_vcond t x || eval_vcond t y
  | Vm.Xunop ("!", x) -> not (eval_vcond t x)
  | e -> Expr.truthy (eval_vexpr t e)

(* A [script] command substitution: ok yields its value, anything else
   aborts the enclosing command with that status. *)
and vsubst_cmd t code =
  match exec_vm t Vstring code with
  | Tcl_ok, v -> v
  | status, v -> raise (Propagate (status, v))

and vsubst_word t (w : frame Vm.vword) =
  match w with
  | Vm.Wlit tv -> Tval.to_string tv
  | Vm.Wvar r -> vref_get t r
  | Vm.Wvcmd code -> vsubst_cmd t code
  | Vm.Wexpr { e; code; span } ->
    if t.vm_canon then Expr.to_string (wexpr_val t e code span)
    else vsubst_cmd t code
  | Vm.Wcat parts ->
    let buf = Buffer.create 16 in
    vcat_parts t parts buf;
    Buffer.contents buf
  | Vm.Wfail (parts, msg) ->
    (* Replay the substitutions scanned before the syntax error (they may
       have side effects or abort first), then report it. *)
    vcat_parts t parts (Buffer.create 16);
    raise (Tcl_failure msg)

and vcat_parts t parts buf =
  match parts with
  | [] -> ()
  | p :: rest ->
    (match (p : frame Vm.wpart) with
    | Vm.Plit s -> Buffer.add_string buf s
    | Vm.Pvar r -> Buffer.add_string buf (vref_get t r)
    | Vm.Pidx (base, idx) ->
      let ibuf = Buffer.create 8 in
      vcat_parts t idx ibuf;
      Buffer.add_string buf
        (get_var_exn t (base ^ "(" ^ Buffer.contents ibuf ^ ")"))
    | Vm.Pcmd code -> Buffer.add_string buf (vsubst_cmd t code));
    vcat_parts t rest buf

(* Typed word substitution for command dispatch: every result is an
   OWNED Tval (fresh, or a copy whose reps are immutable), so binding
   one into a callee's variable cell needs no further copy and later
   writes through other aliases cannot leak in.  The byte-level string
   of each word is exactly what [vsubst_word] would have produced. *)
and vsubst_wordv t (w : frame Vm.vword) : Tval.t =
  match w with
  | Vm.Wlit tv -> Tval.copy tv
  | Vm.Wvar r -> (
    match vref_cell t r with
    | cell -> Tval.copy cell (* snapshot: later words may write it *)
    | exception Vm_unbound -> (
      let name = vref_name r in
      match get_var t name with
      | Some v -> Tval.of_string v
      | None -> failf "can't read \"%s\": no such variable" name))
  | Vm.Wvcmd code -> Tval.of_string (vsubst_cmd t code)
  | Vm.Wexpr { e; code; span } ->
    if t.vm_canon then (
      match e with
      | Vm.Xbinop ((("+" | "-" | "*") as op), Vm.Xvar r, Vm.Xconst (Expr.Int k))
        when (not t.guard_active) && t.depth <= t.recursionlimit -> (
        match vref_cell t r with
        | cell -> (
          match Tval.num cell with
          | Tval.Nint i ->
            (* Fused [expr {$x op k}] argument: with guards inactive the
               checks wexpr_val performs reduce to the command count
               (int arithmetic cannot fail), and the typed result skips
               both Expr boxing and string rendering. *)
            t.cmd_count <- t.cmd_count + 1;
            Tval.of_int
              (match op with "+" -> i + k | "-" -> i - k | _ -> i * k)
          | _ -> tval_of_value (wexpr_val t e code span))
        | exception Vm_unbound -> tval_of_value (wexpr_val t e code span))
      | _ -> tval_of_value (wexpr_val t e code span))
    else Tval.of_string (vsubst_cmd t code)
  | Vm.Wcat _ | Vm.Wfail _ -> Tval.of_string (vsubst_word t w)

and tval_of_value (v : Expr.value) =
  match v with
  | Expr.Int i -> Tval.of_int i
  | Expr.Float f -> Tval.of_float f
  | Expr.Str s -> Tval.of_string s

(* A whole-word [expr ...] bracket whose script is one canonical expr
   command, evaluated without the exec_vm/Ivk scaffolding.  This is the
   Wvcmd path (exec_vm prologue + Iexpr opcode) with the constant parts
   inlined: same depth accounting, same guard deliveries, same command
   count, same traces — word substitution always runs at depth >= 1, so
   exec_vm's depth-0 reset can never fire here. *)
and wexpr_val t (e : frame Vm.vexpr) code span : Expr.value =
  if t.depth > t.recursionlimit then begin
    t.guard.g_recursion_exceeded <- t.guard.g_recursion_exceeded + 1;
    raise (Propagate (Tcl_error, "too many nested evaluations (infinite loop?)"))
  end;
  (match if t.guard_active then guard_check t ~spend:false else None with
  | Some msg -> raise (Propagate (Tcl_error, msg))
  | None -> ());
  t.depth <- t.depth + 1;
  match inline_gate t code.Vm.src span with
  | Some msg ->
    t.depth <- t.depth - 1;
    raise (Propagate (Tcl_error, msg))
  | None -> (
    match eval_vexpr t e with
    | v ->
      t.depth <- t.depth - 1;
      v
    | exception exn ->
      t.depth <- t.depth - 1;
      (match exn with
      | Tcl_failure msg | Expr.Error msg ->
        trace_span t code.Vm.src span msg;
        raise (Propagate (Tcl_error, msg))
      | exn -> raise exn))

(* Words [i] onward of a command, substituted left to right. *)
and vsubst_wordsv t (ws : frame Vm.vword array) i =
  if i >= Array.length ws then []
  else
    let v = vsubst_wordv t ws.(i) in
    v :: vsubst_wordsv t ws (i + 1)

(* The same, to strings, for a builtin. *)
and vsubst_words t (ws : frame Vm.vword array) i =
  if i >= Array.length ws then []
  else
    let v = vsubst_word t ws.(i) in
    v :: vsubst_words t ws (i + 1)

(* A substitution failure before dispatch: errorInfo starts with the
   bare message, exactly as parse_and_run's handler does. *)
and subst_fail t msg =
  if not t.error_in_progress then begin
    t.error_in_progress <- true;
    set_error_info t msg
  end;
  (Tcl_error, msg)

(* One level of errorInfo for the command at [span] in [src]: its text
   is cut out of the source only now, when an error is traced. *)
and trace_span t src span msg = trace_error t ~command:(Vm.text src span) msg

(* A dispatched command's result, its error traced with the command's
   text. *)
and traced t src span = function
  | (Tcl_error, v) as res ->
    trace_span t src span v;
    res
  | res -> res

(* An inlined opcode whose builtin is no longer canonical dispatches
   the generic command it was lowered from, as an [Ivk] would.  Lowered
   code keeps no compiled form of its commands, so the command's text
   is compiled again for its words (counted like any compilation): its
   literal words, plus [arg], the value the opcode already substituted
   for its one non-literal word (a set/return value, an incr amount, a
   foreach list), so nothing is substituted twice.  Opcodes with such a
   word substitute it before they test [vm_canon]: the reference
   evaluator looks a command up only after substituting its words, so a
   substitution that shadows the builtin must reach the shadow.  The
   lowerer guarantees [arg] is present whenever the command has a
   non-literal word. *)
and deopt t want (code : frame Vm.code) span (arg : Tval.t option) =
  t.vm.v_deopts <- t.vm.v_deopts + 1;
  let word = function Some s -> Tval.of_string s | None -> Option.get arg in
  traced t code.Vm.src span
    (invoke_vm t want
       (List.map word (Vm.deopt_words ~compile:(compile_counted t) code span)))

(* Run an inlined structural command with the same guard delivery,
   command accounting and error tracing a dispatched command gets from
   invoke + parse_and_run. *)
and run_inline t src span f =
  match if t.guard_active then guard_check t ~spend:true else None with
  | Some msg ->
    trace_span t src span msg;
    (Tcl_error, msg)
  | None -> (
    t.cmd_count <- t.cmd_count + 1;
    match f () with
    | (Tcl_error, v) as res ->
      trace_span t src span v;
      res
    | res -> res
    | exception Tcl_failure msg ->
      trace_span t src span msg;
      (Tcl_error, msg)
    | exception Expr.Error msg ->
      trace_span t src span msg;
      (Tcl_error, msg))

(* Closure-free slice of run_inline for the hot opcodes: delivers the
   guard (spending) and counts the command; Some msg is an already
   traced refusal.  The caller must trace its own errors. *)
and inline_gate t src span =
  match if t.guard_active then guard_check t ~spend:true else None with
  | Some msg ->
    trace_span t src span msg;
    Some msg
  | None ->
    t.cmd_count <- t.cmd_count + 1;
    None

and inline_fail t src span msg =
  trace_span t src span msg;
  (Tcl_error, msg)

and incr_bad_value (dst : frame Vm.vref) s =
  failf
    "expected integer but got \"%s\" (reading value of variable \"%s\" to \
     increment)"
    s (vref_name dst)

(* The post-gate body of an inlined [incr]: bump the destination's
   cached int in place, or fall back to the string path for spilled
   bindings. *)
and vm_incr_apply t want (dst : frame Vm.vref) amount =
  match vref_cell t dst with
  | cell -> (
    match Tval.num cell with
    | Tval.Nint cur ->
      Tval.set_int cell (cur + amount);
      (match want with
      | Vdiscard -> (Tcl_ok, "")
      | _ -> (Tcl_ok, Tval.to_string cell))
    | _ -> incr_bad_value dst (Tval.to_string cell))
  | exception Vm_unbound -> (
    let s = get_var_exn t (vref_name dst) in
    match int_of_string_opt (String.trim s) with
    | Some cur ->
      let v = string_of_int (cur + amount) in
      set_var t (vref_name dst) v;
      (Tcl_ok, v)
    | None -> incr_bad_value dst s)

and vm_incr t want src span dst amount =
  match inline_gate t src span with
  | Some msg -> (Tcl_error, msg)
  | None -> (
    match vm_incr_apply t want dst amount with
    | res -> res
    | exception Tcl_failure msg -> inline_fail t src span msg)

and vm_incr_word t want src span dst s =
  match inline_gate t src span with
  | Some msg -> (Tcl_error, msg)
  | None -> (
    match
      (* Amount first, then current value: cmd_incr's order. *)
      match int_of_string_opt (String.trim s) with
      | Some amount -> vm_incr_apply t want dst amount
      | None -> failf "expected integer but got \"%s\" (reading increment)" s
    with
    | res -> res
    | exception Tcl_failure msg -> inline_fail t src span msg)

(* Structural loop/branch bodies, lifted out of exec_vinsn so the hot
   opcodes don't allocate a local closure per execution. *)
and vm_if_arms t want arms els =
  match arms with
  | (cond, body) :: rest ->
    if eval_vcond t cond then vm_exec_block t want body
    else vm_if_arms t want rest els
  | [] -> (
    match els with
    | Some body -> vm_exec_block t want body
    | None -> (Tcl_ok, ""))

(* exec_vm for a nested structural block (if arm, loop body): when the
   block is a single instruction and no guard is armed, the prologue
   reduces to the depth bump — the depth-0 reset cannot apply (we are
   nested) and the recursion error is checked here. *)
and vm_exec_block t want (code : frame Vm.code) =
  let insns = code.Vm.insns in
  if
    Array.length insns = 1
    && (not t.guard_active)
    && t.depth > 0
    && t.depth <= t.recursionlimit
  then begin
    t.depth <- t.depth + 1;
    match exec_vinsn t want code insns.(0) with
    | res ->
      t.depth <- t.depth - 1;
      res
    | exception e ->
      t.depth <- t.depth - 1;
      raise e
  end
  else exec_vm t want code

and vm_while_loop t cond body =
  if eval_vcond t cond then (
    match vm_exec_block t Vdiscard body with
    | (Tcl_ok, _) | (Tcl_continue, _) -> vm_while_loop t cond body
    | Tcl_break, _ -> (Tcl_ok, "")
    | res -> res)
  else (Tcl_ok, "")

and vm_for_loop t cond next body =
  if eval_vcond t cond then (
    match vm_exec_block t Vdiscard body with
    | (Tcl_ok, _) | (Tcl_continue, _) -> (
      match vm_exec_block t Vdiscard next with
      | (Tcl_error, _) as r -> r
      | _ -> vm_for_loop t cond next body)
    | Tcl_break, _ -> (Tcl_ok, "")
    | res -> res)
  else (Tcl_ok, "")

and exec_vinsn t (want : wantv) (code : frame Vm.code) (insn : frame Vm.insn) =
  let src = code.Vm.src in
  match insn with
  | Vm.Ivk { vwords = [||]; _ } -> (Tcl_ok, "")
  | Vm.Ivk { vwords; span } -> (
    match vwords.(0) with
    | Vm.Wlit nametv when vm_names_builtin t (Tval.to_string nametv) -> (
      (* A builtin takes strings: substitute straight to them, with no
         value copied per literal and none mapped back.  The name is
         looked up again after the words, which may redefine it. *)
      let name = Tval.to_string nametv in
      match name :: vsubst_words t vwords 1 with
      | exception Propagate (status, v) -> (status, v)
      | exception Tcl_failure msg -> subst_fail t msg
      | words -> traced t src span (invoke_vm_strings t want name words))
    | Vm.Wlit nametv when Array.length vwords = 2 -> (
      (* One-argument call to a literal name (`cmd $x`, `fib [expr ...]`):
         dispatch without materializing the words list. *)
      match vsubst_wordv t vwords.(1) with
      | exception Propagate (status, v) -> (status, v)
      | exception Tcl_failure msg -> subst_fail t msg
      | v1 -> traced t src span (invoke_vm1 t want nametv v1))
    | first -> (
      match
        (* A literal command-name word is passed shared, not copied: the
           callee never binds the head (procs bind the tail, builtins
           take string copies), and keeping the same physical string rep
           preserves the one-entry dispatch-cache hit. *)
        match first with
        | Vm.Wlit nametv -> nametv :: vsubst_wordsv t vwords 1
        | _ -> vsubst_wordsv t vwords 0
      with
      | exception Propagate (status, v) -> (status, v)
      | exception Tcl_failure msg -> subst_fail t msg
      | words -> traced t src span (invoke_vm t want words)))
  | Vm.Iset { dst; value = None; span } ->
    if not t.vm_canon then deopt t want code span None
    else (
      match inline_gate t src span with
      | Some msg -> (Tcl_error, msg)
      | None -> (
        match vref_get t dst with
        | v -> (Tcl_ok, v)
        | exception Tcl_failure msg -> inline_fail t src span msg))
  | Vm.Iset { dst; value = Some w; span } -> (
    match vsubst_word t w with
    | exception Propagate (status, v) -> (status, v)
    | exception Tcl_failure msg -> subst_fail t msg
    | v ->
      if not t.vm_canon then deopt t want code span (Some (Tval.of_string v))
      else (
        match inline_gate t src span with
        | Some msg -> (Tcl_error, msg)
        | None -> (
          match vref_set t dst v with
          | () -> (Tcl_ok, v)
          | exception Tcl_failure msg -> inline_fail t src span msg)))
  | Vm.Iincr { dst; by = Vm.Aconst amount; span } ->
    if not t.vm_canon then deopt t want code span None
    else vm_incr t want src span dst amount
  | Vm.Iincr { dst; by = Vm.Aword (Vm.Wvar r as w); span } when t.vm_canon
    -> (
    (* Pull the increment straight from the variable's cached int rep
       (a read cannot change canonicity, so testing first is safe);
       parse_num is trim + int_of_string_opt, so a cell that is not Nint
       is exactly one whose string form cmd_incr would reject — fall
       through with that string.  An unbound var takes the generic
       subst path to fail identically. *)
    match vref_cell t r with
    | cell -> (
      match Tval.num cell with
      | Tval.Nint amount -> vm_incr t want src span dst amount
      | _ -> vm_incr_word t want src span dst (Tval.to_string cell))
    | exception Vm_unbound -> (
      match vsubst_word t w with
      | s -> vm_incr_word t want src span dst s
      | exception Propagate (status, v) -> (status, v)
      | exception Tcl_failure msg -> subst_fail t msg))
  | Vm.Iincr { dst; by = Vm.Aword w; span } -> (
    match vsubst_word t w with
    | exception Propagate (status, v) -> (status, v)
    | exception Tcl_failure msg -> subst_fail t msg
    | s ->
      if not t.vm_canon then deopt t want code span (Some (Tval.of_string s))
      else vm_incr_word t want src span dst s)
  | Vm.Iexpr { e; span } ->
    if not t.vm_canon then deopt t want code span None
    else (
      match inline_gate t src span with
      | Some msg -> (Tcl_error, msg)
      | None -> (
        match eval_vexpr t e with
        | v -> (
          match want with
          | Vdiscard -> (Tcl_ok, "")
          | Vstring -> (Tcl_ok, Expr.to_string v)
          | Vtyped -> (
            (* Hand numeric values to the consuming expression via the
               side channel; their rendering reparses to the same value,
               so this elides operand_value∘to_string.  A Str result
               could reparse differently, so it goes through strings. *)
            match v with
            | Expr.Int _ | Expr.Float _ ->
              t.vm_xval <- Some v;
              (Tcl_ok, "")
            | Expr.Str _ -> (Tcl_ok, Expr.to_string v)))
        | exception Tcl_failure msg -> inline_fail t src span msg
        | exception Expr.Error msg -> inline_fail t src span msg))
  | Vm.Iif { arms; els; span } ->
    if not t.vm_canon then deopt t want code span None
    else (
      match inline_gate t src span with
      | Some msg -> (Tcl_error, msg)
      | None -> (
        match vm_if_arms t want arms els with
        | (Tcl_error, v) as res ->
          trace_span t src span v;
          res
        | res -> res
        | exception Tcl_failure msg -> inline_fail t src span msg
        | exception Expr.Error msg -> inline_fail t src span msg))
  | Vm.Iwhile { cond; body; span } ->
    if not t.vm_canon then deopt t want code span None
    else (
      match inline_gate t src span with
      | Some msg -> (Tcl_error, msg)
      | None -> (
        match vm_while_loop t cond body with
        | (Tcl_error, v) as res ->
          trace_span t src span v;
          res
        | res -> res
        | exception Tcl_failure msg -> inline_fail t src span msg
        | exception Expr.Error msg -> inline_fail t src span msg))
  | Vm.Ifor { init; cond; next; body; span } ->
    if not t.vm_canon then deopt t want code span None
    else (
      match inline_gate t src span with
      | Some msg -> (Tcl_error, msg)
      | None -> (
        match
          match exec_vm t Vdiscard init with
          | (Tcl_error, _) as r -> r
          | _ -> vm_for_loop t cond next body
        with
        | (Tcl_error, v) as res ->
          trace_span t src span v;
          res
        | res -> res
        | exception Tcl_failure msg -> inline_fail t src span msg
        | exception Expr.Error msg -> inline_fail t src span msg))
  | Vm.Iforeach { dst; items; body; span } -> (
    match
      match items with
      | Vm.Lconst l -> `List l
      | Vm.Lword w -> `Raw (vsubst_word t w)
    with
    | exception Propagate (status, v) -> (status, v)
    | exception Tcl_failure msg -> subst_fail t msg
    | `Raw s when not t.vm_canon ->
      deopt t want code span (Some (Tval.of_string s))
    | `List _ when not t.vm_canon -> deopt t want code span None
    | items ->
      run_inline t src span (fun () ->
          match
            match items with
            | `List l -> Stdlib.Ok l
            | `Raw s -> Tcl_list.parse s
          with
          | Stdlib.Error msg -> (Tcl_error, msg)
          | Stdlib.Ok elements ->
            let rec go = function
              | [] -> (Tcl_ok, "")
              | e :: rest -> (
                vref_set t dst e;
                match exec_vm t Vdiscard body with
                | (Tcl_ok, _) | (Tcl_continue, _) -> go rest
                | Tcl_break, _ -> (Tcl_ok, "")
                | res -> res)
            in
            go elements))
  | Vm.Ireturn { value = None; span } ->
    if not t.vm_canon then deopt t want code span None
    else (
      match inline_gate t src span with
      | Some msg -> (Tcl_error, msg)
      | None -> (Tcl_return, ""))
  | Vm.Ireturn { value = Some w; span } -> (
    match vsubst_word t w with
    | exception Propagate (status, v) -> (status, v)
    | exception Tcl_failure msg -> subst_fail t msg
    | v -> (
      if not t.vm_canon then deopt t want code span (Some (Tval.of_string v))
      else
        match inline_gate t src span with
        | Some msg -> (Tcl_error, msg)
        | None -> (Tcl_return, v)))
  | Vm.Ibreak { span } ->
    if not t.vm_canon then deopt t want code span None
    else run_inline t src span (fun () -> (Tcl_break, ""))
  | Vm.Icontinue { span } ->
    if not t.vm_canon then deopt t want code span None
    else run_inline t src span (fun () -> (Tcl_continue, ""))

(* Lowered code for a procedure body, built on first VM call and cached
   on the proc record (a redefinition installs a fresh record). *)
and proc_vm_code t p =
  match p.pvm with
  | Some code -> code
  | None ->
    let code, locals =
      Vm.lower_proc ~on_pass:(count_pass t)
        ~formals:(List.map fst p.formals)
        p.body
    in
    t.vm.v_compiled <- t.vm.v_compiled + 1;
    p.plocals <- locals;
    p.pvm <- Some code;
    code

(* Typed command dispatch for VM-executed scripts: invoke with the same
   guard delivery and accounting, but the substituted words stay Tvals
   (each one owned by the callee) so a proc binds them — numeric reps
   and all — without a string round-trip.  A one-entry cache keyed by
   the physical name string elides the table lookup on straight-line
   dispatch: one lowering shares one value per distinct literal, so it
   hits on every run of one instruction and on consecutive commands of
   one script that call the same name. *)
and invoke_vm t want (words : Tval.t list) =
  match words with
  | [] -> (Tcl_ok, "")
  | nametv :: _ -> (
    match if t.guard_active then guard_check t ~spend:true else None with
    | Some msg -> (Tcl_error, msg)
    | None -> (
      t.cmd_count <- t.cmd_count + 1;
      let name = Tval.to_string nametv in
      match vm_lookup t name with
      | d -> dispatch_vm t want name d words
      | exception Not_found ->
        invoke_missing t name (List.map Tval.to_string words)))

(* The command [name] names, through the one-entry dispatch cache, which
   a table lookup fills; [Not_found] if there is none. *)
and vm_lookup t name =
  match t.vm_lastcmd with
  | Some (n, d) when n == name -> d
  | _ ->
    let d = Hashtbl.find t.commands name in
    t.vm_lastcmd <- Some (name, d);
    d

(* Whether [name] calls a builtin, as far as the table says before the
   command's words are substituted: an unknown name counts, since
   [unknown] takes strings too.  The lookup fills the dispatch cache, so
   the dispatch after the words hits it unless they changed the table. *)
and vm_names_builtin t name =
  match vm_lookup t name with
  | Builtin _ -> true
  | Proc _ -> false
  | exception Not_found -> true

(* invoke_vm for words substituted to strings: the same guard delivery,
   count and lookup, and a builtin runs on the words as they are.  A
   name the words redefined as a procedure gets them as values. *)
and invoke_vm_strings t want name (words : string list) =
  match if t.guard_active then guard_check t ~spend:true else None with
  | Some msg -> (Tcl_error, msg)
  | None -> (
    t.cmd_count <- t.cmd_count + 1;
    match vm_lookup t name with
    | Builtin (cmd, s) -> run_builtin t cmd s words
    | Proc _ as d -> dispatch_vm t want name d (List.map Tval.of_string words)
    | exception Not_found -> invoke_missing t name words)

(* Single-argument dispatch: the same guard/count/cache sequence as
   invoke_vm, with the words list only materialized off the fast
   proc path. *)
and invoke_vm1 t want (nametv : Tval.t) (v1 : Tval.t) =
  match if t.guard_active then guard_check t ~spend:true else None with
  | Some msg -> (Tcl_error, msg)
  | None -> (
    t.cmd_count <- t.cmd_count + 1;
    let name = Tval.to_string nametv in
    match vm_lookup t name with
    | d -> dispatch_vm1 t want name d v1
    | exception Not_found -> invoke_missing t name [ name; Tval.to_string v1 ])

and dispatch_vm t want name d words =
  match d with
  | Builtin (cmd, s) -> run_builtin t cmd s (List.map Tval.to_string words)
  | Proc p ->
    if t.compile_enabled then call_proc_vm t want name p (List.tl words)
    else call_proc_ref t name p (List.map Tval.to_string words)

and dispatch_vm1 t want name d (v1 : Tval.t) =
  match d with
  | Proc p when t.compile_enabled -> call_proc_vm1 t want name p v1
  | Builtin (cmd, s) -> run_builtin t cmd s [ name; Tval.to_string v1 ]
  | Proc p -> call_proc_ref t name p [ name; Tval.to_string v1 ]

(* Formals usually have slots; one that missed (paren name, slot
   table full) binds in the hashtable like the reference does. *)
and vm_set_slot frame fname tv =
  match local_slot frame fname with
  | i when i >= 0 -> frame.lcells.(i) <- Some tv
  | _ ->
    Hashtbl.replace frame.vars fname (Scalar tv);
    bump_fgen frame

and vm_bind_formals frame name formals actuals =
  match (formals, actuals) with
  | [], [] -> None
  | [], _ :: _ ->
    Some (Printf.sprintf "called \"%s\" with too many arguments" name)
  | [ ("args", _) ], rest ->
    vm_set_slot frame "args"
      (Tval.of_string (Tcl_list.format (List.map Tval.to_string rest)));
    None
  | (formal, _) :: tl, v :: rest ->
    vm_set_slot frame formal v;
    vm_bind_formals frame name tl rest
  | (formal, Some default) :: tl, [] ->
    vm_set_slot frame formal (Tval.of_string default);
    vm_bind_formals frame name tl []
  | (formal, None) :: _, [] ->
    Some
      (Printf.sprintf "no value given for parameter \"%s\" to \"%s\"" formal
         name)

and vm_take_frame p =
  match p.pframes with
  | f :: rest when f.lnames == p.plocals ->
    p.pframes <- rest;
    f
  | _ -> vm_frame p.plocals

and run_proc_frame t want name p (code : frame Vm.code) frame =
  t.stack <- frame :: t.stack;
  match exec_vm t want code with
  | res ->
    t.stack <- List.tl t.stack;
    (* Recycle the frame unless something structural happened to it:
       a spilled binding (upvar link, array, overflow) means inline
       caches or links may still reference it, so let it go. *)
    if frame.fgen = 0 then begin
      Array.fill frame.lcells 0 (Array.length frame.lcells) None;
      p.pframes <- frame :: p.pframes
    end;
    finish_proc name res
  | exception e ->
    t.stack <- List.tl t.stack;
    raise e

and call_proc_vm t want name p (actuals : Tval.t list) =
  let code = proc_vm_code t p in
  let frame = vm_take_frame p in
  match vm_bind_formals frame name p.formals actuals with
  | Some msg -> (Tcl_error, msg)
  | None -> run_proc_frame t want name p code frame

(* One-argument call with the words list elided: binds the single
   formal straight from the substituted Tval. *)
and call_proc_vm1 t want name p (v1 : Tval.t) =
  match p.formals with
  | [ (formal, _) ] when not (String.equal formal "args") ->
    let code = proc_vm_code t p in
    let frame = vm_take_frame p in
    vm_set_slot frame formal v1;
    run_proc_frame t want name p code frame
  | _ -> call_proc_vm t want name p [ v1 ]

and finish_proc name ((status, v) as res) =
  match status with
  | Tcl_ok -> res
  | Tcl_return -> (Tcl_ok, v)
  | Tcl_break -> (Tcl_error, "invoked \"break\" outside of a loop")
  | Tcl_continue -> (Tcl_error, "invoked \"continue\" outside of a loop")
  | Tcl_error -> (Tcl_error, Printf.sprintf "%s\n    (procedure \"%s\")" v name)

let eval t src =
  if t.compile_enabled then exec_vm t Vstring (script_code t src)
  else begin
    t.stats.parse_passes <- t.stats.parse_passes + 1;
    let status, v, _ = eval_in t src 0 ~bracket:false in
    (status, v)
  end

let eval_value t src =
  match eval t src with
  | Tcl_ok, v -> Stdlib.Ok v
  | Tcl_error, msg -> Stdlib.Error msg
  | Tcl_return, _ -> Stdlib.Error "command returned \"return\" at top level"
  | Tcl_break, _ -> Stdlib.Error "invoked \"break\" outside of a loop"
  | Tcl_continue, _ ->
    Stdlib.Error "invoked \"continue\" outside of a loop"

let eval_words t words = invoke t words

let expr_env t =
  {
    Expr.get_var =
      (fun name ->
        match get_var t name with
        | Some v -> v
        | None ->
          raise
            (Expr.Error
               (Printf.sprintf "can't read \"%s\": no such variable" name)));
    Expr.eval_cmd =
      (fun script ->
        match eval t script with
        | Tcl_ok, v -> v
        | _, msg -> raise (Expr.Error msg));
  }

let eval_expr t src = Expr.eval (expr_env t) src

let eval_expr_string t src = Expr.to_string (eval_expr t src)

let eval_expr_bool t cond =
  match Expr.truthy (eval_expr t cond) with
  | b -> b
  | exception Expr.Error msg -> raise (Tcl_failure msg)
