open Interp

exception Exit_program of int

(* ------------------------------------------------------------------ *)
(* Variables *)

let cmd_set t = function
  | [ _; name ] -> get_var_exn t name
  | [ _; name; value ] ->
    set_var t name value;
    value
  | _ -> raise Usage

let cmd_unset t = function
  | _ :: (_ :: _ as names) ->
    List.iter
      (fun name ->
        if not (unset_var t name) then
          failf "can't unset \"%s\": no such variable" name)
      names;
    ""
  | _ -> raise Usage

let parse_int what s =
  match int_of_string_opt (String.trim s) with
  | Some i -> i
  | None -> failf "expected integer but got \"%s\"%s" s what

let cmd_incr t = function
  | [ _; name ] | [ _; name; _ ] as words ->
    let amount =
      match words with
      | [ _; _; by ] -> parse_int " (reading increment)" by
      | _ -> 1
    in
    let current =
      parse_int
        (Printf.sprintf " (reading value of variable \"%s\" to increment)"
           name)
        (get_var_exn t name)
    in
    let v = string_of_int (current + amount) in
    set_var t name v;
    v
  | _ -> raise Usage

let cmd_append t = function
  | _ :: name :: values ->
    let current = Option.value (get_var t name) ~default:"" in
    let v = current ^ String.concat "" values in
    set_var t name v;
    v
  | _ -> raise Usage

let cmd_global t = function
  | _ :: (_ :: _ as names) ->
    List.iter
      (fun name -> link_var t ~target_level:0 ~target:name ~local:name)
      names;
    ""
  | _ -> raise Usage

(* upvar ?level? otherVar myVar ?otherVar myVar ...? *)
let cmd_upvar t words =
  let level_spec, pairs =
    match words with
    | _ :: first :: rest when parse_level t first <> None && List.length rest >= 2 ->
      (first, rest)
    | _ :: (_ :: _ :: _ as rest) -> ("1", rest)
    | _ -> raise Usage
  in
  match parse_level t level_spec with
  | None -> failf "bad level \"%s\"" level_spec
  | Some level ->
    let rec bind = function
      | [] -> ""
      | other :: local :: rest ->
        link_var t ~target_level:level ~target:other ~local;
        bind rest
      | [ _ ] ->
        raise Usage
    in
    bind pairs

let cmd_uplevel t words =
  let run level args =
    let script = String.concat " " args in
    with_level t level (fun () -> eval t script)
  in
  match words with
  | _ :: first :: (_ :: _ as rest) -> (
    match parse_level t first with
    | Some level -> run level rest
    | None -> run (max 0 (current_level t - 1)) (first :: rest))
  | [ _; script ] -> run (max 0 (current_level t - 1)) [ script ]
  | _ -> raise Usage

(* ------------------------------------------------------------------ *)
(* Procedures *)

let cmd_proc t = function
  | [ _; name; formals; body ] ->
    let parse_formal f =
      match Tcl_list.parse f with
      | Stdlib.Ok [ name ] -> (name, None)
      | Stdlib.Ok [ name; default ] -> (name, Some default)
      | Stdlib.Ok _ | Stdlib.Error _ ->
        failf "procedure \"%s\" has argument with bad format \"%s\"" name f
    in
    (match Tcl_list.parse formals with
    | Stdlib.Error msg -> failf "%s" msg
    | Stdlib.Ok fs ->
      define_proc t name (List.map parse_formal fs) body;
      "")
  | _ -> raise Usage

let cmd_return _t = function
  | [ _ ] -> (Tcl_return, "")
  | [ _; value ] -> (Tcl_return, value)
  | _ -> raise Usage

let cmd_break _t = function
  | [ _ ] -> (Tcl_break, "")
  | _ -> raise Usage

let cmd_continue _t = function
  | [ _ ] -> (Tcl_continue, "")
  | _ -> raise Usage

(* ------------------------------------------------------------------ *)
(* Control flow *)

(* if expr ?then? body ?elseif expr ?then? body ...? ??else? body? *)
let cmd_if t words =
  let rec clause = function
    | cond :: rest -> (
      let rest = match rest with "then" :: r -> r | r -> r in
      match rest with
      | body :: rest ->
        if eval_expr_bool t cond then eval t body
        else tail rest
      | [] -> raise Usage)
    | [] -> raise Usage
  and tail = function
    | [] -> ok ""
    | "elseif" :: rest -> clause rest
    | "else" :: [ body ] -> eval t body
    | [ body ] -> eval t body (* old-style implicit else *)
    | _ -> failf "wrong # args: extra words after \"else\" clause in \"if\""
  in
  clause (List.tl words)

let run_loop_body t body =
  (* Returns [`Proceed] to continue looping, or a final result. *)
  match eval t body with
  | Tcl_ok, _ | Tcl_continue, _ -> `Proceed
  | Tcl_break, _ -> `Stop (ok "")
  | (Tcl_error, msg) -> `Stop (Tcl_error, msg)
  | (Tcl_return, _) as r -> `Stop r

let cmd_while t = function
  | [ _; cond; body ] ->
    let rec loop () =
      if eval_expr_bool t cond then
        match run_loop_body t body with
        | `Proceed -> loop ()
        | `Stop r -> r
      else ok ""
    in
    loop ()
  | _ -> raise Usage

let cmd_for t = function
  | [ _; init; cond; next; body ] -> (
    match eval t init with
    | (Tcl_error, _) as e -> e
    | _ ->
      let rec loop () =
        if eval_expr_bool t cond then
          match run_loop_body t body with
          | `Stop r -> r
          | `Proceed -> (
            match eval t next with
            | (Tcl_error, _) as e -> e
            | _ -> loop ())
        else ok ""
      in
      loop ())
  | _ -> raise Usage

let cmd_foreach t = function
  | [ _; var; list; body ] -> (
    match Tcl_list.parse list with
    | Stdlib.Error msg -> (Tcl_error, msg)
    | Stdlib.Ok elements ->
      let rec loop = function
        | [] -> ok ""
        | e :: rest -> (
          set_var t var e;
          match run_loop_body t body with
          | `Proceed -> loop rest
          | `Stop r -> r)
      in
      loop elements)
  | _ -> raise Usage

(* ------------------------------------------------------------------ *)
(* Evaluation *)

let cmd_eval t = function
  | _ :: (_ :: _ as args) -> eval t (String.concat " " args)
  | _ -> raise Usage

let status_code = function
  | Tcl_ok -> 0
  | Tcl_error -> 1
  | Tcl_return -> 2
  | Tcl_break -> 3
  | Tcl_continue -> 4

let cmd_catch t = function
  | [ _; body ] ->
    let status, v = eval t body in
    (* Limit trips and unwinding cancels must not be swallowed: they
       propagate through catch so runaway scripts cannot shield
       themselves from their own resource limits. *)
    if unwinding t then (status, v)
    else begin
      mark_error_handled t;
      ok (string_of_int (status_code status))
    end
  | [ _; body; var ] ->
    let status, v = eval t body in
    if unwinding t then (status, v)
    else begin
      mark_error_handled t;
      set_var t var v;
      ok (string_of_int (status_code status))
    end
  | _ -> raise Usage

let cmd_error _t = function
  | [ _; msg ] | [ _; msg; _ ] | [ _; msg; _; _ ] -> (Tcl_error, msg)
  | _ -> raise Usage

let cmd_expr t = function
  | _ :: (_ :: _ as args) ->
    eval_expr_string t (String.concat " " args)
  | _ -> raise Usage

let cmd_source t = function
  | [ _; path ] -> (
    match In_channel.with_open_text path In_channel.input_all with
    | contents -> eval t contents
    | exception Sys_error msg ->
      (Tcl_error, Printf.sprintf "couldn't read file \"%s\": %s" path msg))
  | _ -> raise Usage

let cmd_time t = function
  | [ _; body ] | [ _; body; _ ] as words ->
    let count =
      match words with
      | [ _; _; c ] -> parse_int " (reading iteration count)" c
      | _ -> 1
    in
    if count <= 0 then failf "count must be positive"
    else begin
      (* The clock is pluggable so [time] agrees with [after] when the
         toolkit drives a virtual clock. *)
      let start = current_time t in
      let abnormal = ref None in
      (try
         for _ = 1 to count do
           match eval t body with
           | Tcl_ok, _ -> ()
           | r ->
             (* Any abnormal completion — error, break, continue or
                return — stops the loop and propagates, as in Tcl. *)
             abnormal := Some r;
             raise Stdlib.Exit
         done
       with Stdlib.Exit -> ());
      match !abnormal with
      | Some r -> r
      | None ->
        let elapsed = current_time t -. start in
        let micros = elapsed *. 1e6 /. float_of_int count in
        ok (Printf.sprintf "%.0f microseconds per iteration" micros)
    end
  | _ -> raise Usage

let cmd_rename t = function
  | [ _; old_name; new_name ] -> (
    match rename_command t old_name new_name with
    | Stdlib.Ok () -> ok ""
    | Stdlib.Error msg -> (Tcl_error, msg))
  | _ -> raise Usage

(* ------------------------------------------------------------------ *)
(* Output and process control *)

let cmd_print t = function
  | _ :: (_ :: _ as args) ->
    output t (String.concat " " args);
    ""
  | _ -> raise Usage

let cmd_exit _t = function
  | [ _ ] -> raise (Exit_program 0)
  | [ _; code ] ->
    raise (Exit_program (parse_int " (reading exit return code)" code))
  | _ -> raise Usage

let install t =
  (* [scripts] marks argument positions holding scripts so the checker
     descends into them (the control commands additionally get
     structural handling in Lint). *)
  register_value t (signature "set" 1 ~max:2 ~usage:"set varName ?newValue?")
    cmd_set;
  register_value t (signature "unset" 1 ~usage:"unset varName ?varName ...?")
    cmd_unset;
  register_value t (signature "incr" 1 ~max:2 ~usage:"incr varName ?increment?")
    cmd_incr;
  register_value t
    (signature "append" 1 ~usage:"append varName ?value value ...?")
    cmd_append;
  register_value t
    (signature "global" 1 ~usage:"global varName ?varName ...?")
    cmd_global;
  register_value t
    (signature "upvar" 2
       ~usage:"upvar ?level? otherVar localVar ?otherVar localVar ...?")
    cmd_upvar;
  register t
    (signature "uplevel" 1 ~usage:"uplevel ?level? command ?arg ...?")
    cmd_uplevel;
  register_value t
    (signature "proc" 3 ~max:3 ~scripts:[ 3 ] ~usage:"proc name args body")
    cmd_proc;
  register t (signature "return" 0 ~max:1 ~usage:"return ?value?") cmd_return;
  register t (signature "break" 0 ~max:0 ~usage:"break") cmd_break;
  register t (signature "continue" 0 ~max:0 ~usage:"continue") cmd_continue;
  register t
    (signature "if" 2 ~usage:"if condition ?then? body ?else body?")
    cmd_if;
  register t
    (signature "while" 2 ~max:2 ~scripts:[ 2 ] ~usage:"while test command")
    cmd_while;
  register t
    (signature "for" 4 ~max:4 ~scripts:[ 1; 3; 4 ]
       ~usage:"for start test next command")
    cmd_for;
  register t
    (signature "foreach" 3 ~max:3 ~scripts:[ 3 ]
       ~usage:"foreach varName list command")
    cmd_foreach;
  register t (signature "eval" 1 ~scripts:[ 1 ] ~usage:"eval arg ?arg ...?")
    cmd_eval;
  register t
    (signature "catch" 1 ~max:2 ~scripts:[ 1 ] ~usage:"catch command ?varName?")
    cmd_catch;
  register t
    (signature "error" 1 ~max:3 ~usage:"error message ?errorInfo? ?errorCode?")
    cmd_error;
  register_value t (signature "expr" 1 ~usage:"expr arg ?arg ...?") cmd_expr;
  register t (signature "source" 1 ~max:1 ~usage:"source fileName") cmd_source;
  register t
    (signature "time" 1 ~max:2 ~scripts:[ 1 ] ~usage:"time command ?count?")
    cmd_time;
  register t (signature "rename" 2 ~max:2 ~usage:"rename oldName newName")
    cmd_rename;
  register_value t (signature "print" 1 ~usage:"print string ?string ...?")
    cmd_print;
  register_value t (signature "exit" 0 ~max:1 ~usage:"exit ?returnCode?")
    cmd_exit
