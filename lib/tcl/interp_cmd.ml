(* The [interp] command: slave interpreters in the Safe-Tcl mold.

   A master owns a tree of named slaves ([Interp] keeps the tree; this
   module is the script surface). Slaves are full interpreters — own
   command table, own variables, own limits — created empty of toolkit
   state by a caller-supplied constructor. A [-safe] slave additionally
   has the environment-touching commands hidden: invoking one from
   inside the slave yields a counted "permission denied" error, while
   the master can still reach it with [interp invokehidden].

   Aliases marshal calls from a slave into another interpreter: the
   alias body runs in the target interpreter named at [interp alias]
   time ("" = the invoker, the common master-side case), receiving the
   bound words plus the slave's call arguments.

   Resource limits ([interp limit]) and cancellation ([interp cancel])
   arm the per-interp guard in [Interp]; the checks fire at evaluation
   boundaries in both the reference evaluator and the compiled fast
   path, so they apply to any script the slave runs later. *)

open Interp

(* Commands a -safe slave must not reach: process control, file system,
   exec-alikes, the interp machinery itself, and the simulator's fault /
   crash test hooks.  Missing entries are ignored — a bare slave never
   had the toolkit commands in the first place. *)
let unsafe_commands =
  [
    "exit";
    "exec";
    "source";
    "open";
    "close";
    "gets";
    "read";
    "eof";
    "flush";
    "file";
    "glob";
    "pwd";
    "cd";
    "interp";
    "send";
    "crashtest";
    "faultstats";
    "serverstats";
    "inject";
    "screendump";
  ]

let make_safe s =
  set_safe s true;
  List.iter
    (fun name ->
      if command_exists s name then ignore (hide_command s name))
    unsafe_commands

(* ------------------------------------------------------------------ *)
(* Path resolution: an interpreter path is a Tcl list naming a descent
   through the slave tree, relative to the interpreter running the
   command ("" names that interpreter itself). *)

let parse_path path =
  match Tcl_list.parse path with
  | Ok parts -> parts
  | Error _ -> failf "invalid interpreter path \"%s\"" path

let resolve t path =
  let rec go cur = function
    | [] -> cur
    | name :: rest -> (
      match find_slave cur name with
      | Some s -> go s rest
      | None -> failf "could not find interpreter \"%s\"" path)
  in
  go t (parse_path path)

(* Split a path into (parent, leaf) for create/delete. *)
let resolve_parent t path =
  match List.rev (parse_path path) with
  | [] -> failf "invalid interpreter path \"%s\"" path
  | leaf :: rev_prefix ->
    let rec go cur = function
      | [] -> cur
      | name :: rest -> (
        match find_slave cur name with
        | Some s -> go s rest
        | None -> failf "could not find interpreter \"%s\"" path)
    in
    (go t (List.rev rev_prefix), leaf)

(* ------------------------------------------------------------------ *)
(* Creation *)

let create_slave ~sub_interp ~master ~safe name =
  match find_slave master name with
  | Some _ ->
    Stdlib.Error
      (Printf.sprintf "interpreter named \"%s\" already exists, cannot create"
         name)
  | None ->
    let s : Interp.t = sub_interp () in
    (* Slave time limits run on the same clock as the master's, so a
       virtual clock governs the whole tree. *)
    set_limit_clock s (limit_clock master);
    if safe then make_safe s;
    add_slave master name s;
    Stdlib.Ok s

let auto_name master =
  let rec try_n n =
    let name = Printf.sprintf "interp%d" n in
    if find_slave master name = None then name else try_n (n + 1)
  in
  try_n 0

let create_sub = subsig "create" 0 ~max:1 ~switches:[ Flag "-safe"; Flag "--" ]

let cmd_create ~sub_interp t args =
  let found, rest = sub_switches create_sub args in
  let path =
    match rest with [] -> auto_name t | [ p ] -> p | _ -> raise Usage
  in
  let parent, leaf = resolve_parent t path in
  let safe = List.mem_assoc "-safe" found in
  match create_slave ~sub_interp ~master:parent ~safe leaf with
  | Stdlib.Ok _ -> (Tcl_ok, path)
  | Stdlib.Error msg -> (Tcl_error, msg)

(* ------------------------------------------------------------------ *)
(* Aliases *)

let cmd_alias t = function
  | [ path; src ] ->
    let s = resolve t path in
    (Tcl_ok, Option.value (alias_target s src) ~default:"")
  | [ path; src; "" ] ->
    (* [interp alias path src {}] deletes the alias. *)
    let s = resolve t path in
    drop_alias s src;
    ignore (delete_command s src);
    (Tcl_ok, "")
  | path :: src :: target_path :: target :: bound ->
    let s = resolve t path in
    (* The target path is resolved relative to the invoking interpreter;
       "" names the invoker itself (the common master-side case). *)
    let target_interp = resolve t target_path in
    register s (signature src 0 ~usage:(src ^ " ?arg ...?")) (fun slave words ->
        count_alias_call slave;
        (* Marshal into the target interpreter: target command + bound
           words + the slave's call arguments, evaluated with the
           target's error handling. *)
        eval_words target_interp ((target :: bound) @ List.tl words));
    note_alias s src target;
    (Tcl_ok, src)
  | _ -> raise Usage

(* ------------------------------------------------------------------ *)
(* Limits *)

let limit_option_int what v =
  match int_of_string_opt (String.trim v) with
  | Some n when n >= 0 -> n
  | _ -> failf "expected a non-negative integer for %s but got \"%s\"" what v

let cmd_limit t args =
  match args with
  | path :: kind :: opts ->
    let s = resolve t path in
    let kind =
      match kind with
      | "time" -> Limit_time
      | "commands" -> Limit_commands
      | other -> failf "bad limit type \"%s\": should be time or commands" other
    in
    if opts = [] then
      let v =
        match kind with
        | Limit_time -> time_limit s
        | Limit_commands -> command_limit s
      in
      (Tcl_ok, string_of_int v)
    else begin
      let value = ref None and granularity = ref None in
      let rec scan = function
        | [] -> ()
        | "-value" :: v :: rest ->
          value := Some (limit_option_int "-value" v);
          scan rest
        | "-granularity" :: g :: rest ->
          granularity := Some (limit_option_int "-granularity" g);
          scan rest
        | opt :: _ ->
          failf "bad option \"%s\": should be -value or -granularity" opt
      in
      scan opts;
      (match (kind, !value) with
      | Limit_time, Some ms ->
        set_time_limit s ms
          ?granularity:
            (match !granularity with Some g when g >= 1 -> Some g | _ -> None)
      | Limit_time, None -> (
        (* -granularity alone retunes the check interval of the armed
           time limit. *)
        match !granularity with
        | Some g when g >= 1 -> set_time_limit s (time_limit s) ~granularity:g
        | _ -> failf "no -value given for limit")
      | Limit_commands, Some n -> set_command_limit s n
      | Limit_commands, None -> failf "no -value given for limit");
      (Tcl_ok, "")
    end
  | _ -> raise Usage

(* ------------------------------------------------------------------ *)
(* The command *)

let cancel_sub = subsig "cancel" 0 ~max:1 ~switches:[ Flag "-unwind" ]

let cmd_interp ~sub_interp t words =
  match words with
  | _ :: "create" :: args -> cmd_create ~sub_interp t args
  | [ _; "delete" ] -> (Tcl_ok, "")
  | _ :: "delete" :: paths ->
    (try
       List.iter
         (fun path ->
           let parent, leaf = resolve_parent t path in
           if not (delete_slave parent leaf) then
             failf "could not find interpreter \"%s\"" path)
         paths;
       (Tcl_ok, "")
     with Tcl_failure msg -> (Tcl_error, msg))
  | _ :: "eval" :: path :: (_ :: _ as args) ->
    let s = resolve t path in
    eval s (String.concat " " args)
  | [ _; "exists"; path ] ->
    let ok = match resolve t path with _ -> true | exception _ -> false in
    (Tcl_ok, if ok then "1" else "0")
  | [ _; "slaves" ] -> (Tcl_ok, Tcl_list.format (slave_names t))
  | [ _; "slaves"; path ] ->
    (Tcl_ok, Tcl_list.format (slave_names (resolve t path)))
  | _ :: "alias" :: args -> cmd_alias t args
  | [ _; "aliases" ] -> (Tcl_ok, Tcl_list.format (alias_names t))
  | [ _; "aliases"; path ] ->
    (Tcl_ok, Tcl_list.format (alias_names (resolve t path)))
  | [ _; "hide"; path; name ] -> (
    match hide_command (resolve t path) name with
    | Stdlib.Ok () -> (Tcl_ok, "")
    | Stdlib.Error msg -> (Tcl_error, msg))
  | [ _; "expose"; path; name ] | [ _; "expose"; path; name; _ ] as w -> (
    let as_name =
      match w with [ _; _; _; _; e ] -> Some e | _ -> None
    in
    match expose_command ?as_name (resolve t path) name with
    | Stdlib.Ok () -> (Tcl_ok, "")
    | Stdlib.Error msg -> (Tcl_error, msg))
  | [ _; "hidden"; path ] ->
    (Tcl_ok, Tcl_list.format (hidden_names (resolve t path)))
  | _ :: "invokehidden" :: path :: name :: args ->
    invoke_hidden (resolve t path) name (name :: args)
  | [ _; "issafe" ] -> (Tcl_ok, if is_safe t then "1" else "0")
  | [ _; "issafe"; path ] ->
    (Tcl_ok, if is_safe (resolve t path) then "1" else "0")
  | _ :: "limit" :: args when List.length args <= 6 -> cmd_limit t args
  | [ _; "recursionlimit" ] -> (Tcl_ok, string_of_int (recursion_limit t))
  | [ _; "recursionlimit"; arg ] -> (
    (* One argument: an integer sets this interpreter's limit, anything
       else reads a slave's. *)
    match int_of_string_opt (String.trim arg) with
    | Some n ->
      set_recursion_limit t n;
      (Tcl_ok, string_of_int n)
    | None -> (Tcl_ok, string_of_int (recursion_limit (resolve t arg))))
  | [ _; "recursionlimit"; path; n ] -> (
    let s = resolve t path in
    match int_of_string_opt (String.trim n) with
    | Some limit ->
      set_recursion_limit s limit;
      (Tcl_ok, string_of_int limit)
    | None -> failf "expected integer but got \"%s\"" n)
  | _ :: "cancel" :: args ->
    let found, rest = sub_switches cancel_sub args in
    let unwind = List.mem_assoc "-unwind" found in
    cancel ~unwind
      (match rest with [] -> t | [ path ] -> resolve t path | _ -> raise Usage);
    (Tcl_ok, "")
  | _ -> raise Usage

let interp_signature =
  signature "interp" 1
    ~subs:
      [
        create_sub;
        subsig "delete" 0;
        subsig "eval" 2;
        subsig "exists" 1 ~max:1;
        subsig "slaves" 0 ~max:1;
        subsig "alias" 2;
        subsig "aliases" 0 ~max:1;
        subsig "hide" 2 ~max:2;
        subsig "expose" 2 ~max:3;
        subsig "hidden" 1 ~max:1;
        subsig "invokehidden" 2;
        subsig "issafe" 0 ~max:1;
        subsig "limit" 2 ~max:6;
        subsig "recursionlimit" 0 ~max:2;
        cancel_sub;
      ]
    ~usage:"interp option ?arg arg ...?"

let install ~sub_interp t = register t interp_signature (cmd_interp ~sub_interp)
