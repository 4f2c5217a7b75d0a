open Interp

let filter_glob pattern names =
  match pattern with
  | None -> names
  | Some pattern -> List.filter (fun n -> Glob.matches ~pattern n) names

let cmd_info t words =
  match words with
  | [ _; "exists"; name ] -> if get_var t name <> None then "1" else "0"
  | [ _; "complete"; script ] -> if Lint.complete script then "1" else "0"
  | _ :: "commands" :: ([] | [ _ ] as rest) ->
    let pattern = match rest with [ p ] -> Some p | _ -> None in
    Tcl_list.format (filter_glob pattern (command_names t))
  | _ :: "procs" :: ([] | [ _ ] as rest) ->
    let pattern = match rest with [ p ] -> Some p | _ -> None in
    Tcl_list.format (filter_glob pattern (proc_names t))
  | [ _; "body"; name ] -> (
    match proc_info t name with
    | Some (_, body) -> body
    | None -> failf "\"%s\" isn't a procedure" name)
  | [ _; "args"; name ] -> (
    match proc_info t name with
    | Some (formals, _) -> Tcl_list.format (List.map fst formals)
    | None -> failf "\"%s\" isn't a procedure" name)
  | [ _; "default"; name; arg; var ] -> (
    match proc_info t name with
    | None -> failf "\"%s\" isn't a procedure" name
    | Some (formals, _) -> (
      match List.assoc_opt arg formals with
      | None ->
        failf "procedure \"%s\" doesn't have an argument \"%s\"" name arg
      | Some None ->
        set_var t var "";
        "0"
      | Some (Some default) ->
        set_var t var default;
        "1"))
  | _ :: "vars" :: ([] | [ _ ] as rest) ->
    let pattern = match rest with [ p ] -> Some p | _ -> None in
    Tcl_list.format
      (filter_glob pattern (var_names t ~local:true ~global:(current_level t = 0)))
  | _ :: "globals" :: ([] | [ _ ] as rest) ->
    let pattern = match rest with [ p ] -> Some p | _ -> None in
    Tcl_list.format (filter_glob pattern (var_names t ~local:false ~global:true))
  | _ :: "locals" :: ([] | [ _ ] as rest) ->
    let pattern = match rest with [ p ] -> Some p | _ -> None in
    if current_level t = 0 then ""
    else
      Tcl_list.format
        (filter_glob pattern (var_names t ~local:true ~global:false))
  | [ _; "errorinfo" ] ->
    (* The stack trace of the most recent error (also in the global
       variable errorInfo, as in real Tcl). *)
    get_error_info t
  | [ _; "level" ] -> string_of_int (current_level t)
  | [ _; "cmdcount" ] -> string_of_int (command_count t)
  | [ _; "tclversion" ] -> "6.0"
  | _ -> raise Usage

let info_signature =
  signature "info" 1 ~usage:"info option ?arg arg ...?"
    ~subs:
      [
        subsig "args" 1 ~max:1;
        subsig "body" 1 ~max:1;
        subsig "cmdcount" 0 ~max:0;
        subsig "commands" 0 ~max:1;
        subsig "complete" 1 ~max:1;
        subsig "default" 3 ~max:3;
        subsig "errorinfo" 0 ~max:0;
        subsig "exists" 1 ~max:1;
        subsig "globals" 0 ~max:1;
        subsig "level" 0 ~max:0;
        subsig "locals" 0 ~max:1;
        subsig "procs" 0 ~max:1;
        subsig "tclversion" 0 ~max:0;
        subsig "vars" 0 ~max:1;
      ]

let install t =
  register_value t info_signature cmd_info
