open Interp

(* case string ?in? {patList body patList body ...}
   or the spread form: case string ?in? patList body ?patList body ...? *)
let cmd_case t words =
  let value, rest =
    match List.tl words with
    | value :: "in" :: rest -> (value, rest)
    | value :: (_ :: _ as rest) -> (value, rest)
    | _ -> raise Usage
  in
  let pairs =
    match rest with
    | [ single ] -> (
      match Tcl_list.parse single with
      | Stdlib.Ok items -> items
      | Stdlib.Error msg -> failf "%s" msg)
    | items -> items
  in
  let rec try_pairs = function
    | pat_list :: body :: rest -> (
      let patterns =
        match Tcl_list.parse pat_list with
        | Stdlib.Ok l -> l
        | Stdlib.Error msg -> failf "%s" msg
      in
      let hit =
        List.exists
          (fun pattern ->
            pattern = "default" || Glob.matches ~pattern value)
          patterns
      in
      if hit then eval t body else try_pairs rest)
    | [ extra ] -> failf "extra case pattern with no body: \"%s\"" extra
    | [] -> ok ""
  in
  try_pairs pairs

let cmd_array t = function
  | [ _; "exists"; name ] ->
    ok (if array_names t name <> None then "1" else "0")
  | [ _; "names"; name ] | [ _; "names"; name; _ ] as words -> (
    match array_names t name with
    | None -> failf "\"%s\" isn't an array" name
    | Some names ->
      let names =
        match words with
        | [ _; _; _; pattern ] ->
          List.filter (fun n -> Glob.matches ~pattern n) names
        | _ -> names
      in
      ok (Tcl_list.format names))
  | [ _; "size"; name ] -> (
    match array_names t name with
    | None -> failf "\"%s\" isn't an array" name
    | Some names -> ok (string_of_int (List.length names)))
  | _ -> raise Usage

(* history ?option ?arg?? — the recording itself is driven by the host
   application (wish records each interactive command). *)
let cmd_history t = function
  | [ _ ] ->
    ok
      (String.concat "\n"
         (List.map
            (fun (n, script) -> Printf.sprintf "%6d  %s" n script)
            (history_events t)))
  | [ _; "event" ] | [ _; "event"; _ ] as words -> (
    let events = history_events t in
    let n =
      match words with
      | [ _; _; spec ] -> (
        match int_of_string_opt spec with
        | Some n -> n
        | None -> failf "bad history event number \"%s\"" spec)
      | _ -> (
        (* Default: the previous event. *)
        match List.rev events with
        | _ :: (n, _) :: _ -> n
        | [ (n, _) ] -> n
        | [] -> failf "no history events")
    in
    match history_event t n with
    | Some script -> ok script
    | None -> failf "event \"%d\" is too far in the past" n)
  | [ _; "nextid" ] ->
    ok
      (string_of_int
         (match List.rev (history_events t) with
         | (n, _) :: _ -> n + 1
         | [] -> 1))
  | [ _; "redo" ] | [ _; "redo"; _ ] as words -> (
    let events = history_events t in
    let script =
      match words with
      | [ _; _; spec ] -> (
        match int_of_string_opt spec with
        | Some n -> history_event t n
        | None -> None)
      | _ -> (
        match List.rev events with
        | _ :: (_, s) :: _ -> Some s
        | _ -> None)
    in
    match script with
    | Some script -> eval t script
    | None -> failf "no event to redo")
  | _ -> raise Usage

let array_signature =
  signature "array" 2 ~max:3 ~usage:"array option arrayName ?arg ...?"
    ~subs:
      [
        subsig "exists" 1 ~max:1;
        subsig "names" 1 ~max:2;
        subsig "size" 1 ~max:1;
      ]

let history_signature =
  signature "history" 0 ~max:2 ~usage:"history ?option? ?arg?"
    ~subs:
      [
        subsig "event" 0 ~max:1;
        subsig "nextid" 0 ~max:0;
        subsig "redo" 0 ~max:1;
      ]

let install t =
  register t
    (signature "case" 2
       ~usage:"case string ?in? patList body ?patList body ...?")
    cmd_case;
  register t array_signature cmd_array;
  register t history_signature cmd_history
