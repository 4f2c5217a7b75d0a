open Interp

let parse_list_exn l =
  match Tcl_list.parse l with
  | Stdlib.Ok elements -> elements
  | Stdlib.Error msg -> failf "%s" msg

(* Shared list-index parser (integer, "end", "end-N"); see Tcl_list. *)
let parse_index len s =
  match Tcl_list.parse_index ~len s with
  | Stdlib.Ok i -> i
  | Stdlib.Error msg -> failf "%s" msg

let cmd_list _t = function
  | _ :: args -> Tcl_list.format args
  | [] -> assert false

let cmd_lindex _t = function
  | [ _; l; idx ] ->
    let elements = parse_list_exn l in
    let i = parse_index (List.length elements) idx in
    if i < 0 then ""
    else (match List.nth_opt elements i with Some e -> e | None -> "")
  | _ -> raise Usage

let cmd_llength _t = function
  | [ _; l ] -> string_of_int (List.length (parse_list_exn l))
  | _ -> raise Usage

let cmd_lrange _t = function
  | [ _; l; first; last ] ->
    let elements = parse_list_exn l in
    let n = List.length elements in
    let first = max 0 (parse_index n first) in
    let last = min (n - 1) (parse_index n last) in
    if first > last then ""
    else
      Tcl_list.format
        (List.filteri (fun i _ -> i >= first && i <= last) elements)
  | _ -> raise Usage

(* [lappend x] with no values returns the variable unchanged (creating
   it empty if unset, as Tcl does); a whitespace-only current value is
   an empty list, so appending to it must not leave a leading
   separator. *)
let cmd_lappend t = function
  | _ :: name :: values ->
    let current = Option.value (get_var t name) ~default:"" in
    let v =
      match values with
      | [] -> current
      | _ ->
        if String.trim current = "" then Tcl_list.format values
        else current ^ " " ^ Tcl_list.format values
    in
    set_var t name v;
    v
  | _ -> raise Usage

let cmd_linsert _t = function
  | _ :: l :: idx :: (_ :: _ as values) ->
    let elements = parse_list_exn l in
    let n = List.length elements in
    let i = min (max 0 (parse_index n idx)) n in
    let before = List.filteri (fun j _ -> j < i) elements in
    let after = List.filteri (fun j _ -> j >= i) elements in
    Tcl_list.format (before @ values @ after)
  | _ -> raise Usage

let cmd_lreplace _t = function
  | _ :: l :: first :: last :: values ->
    let elements = parse_list_exn l in
    let n = List.length elements in
    let first = max 0 (parse_index n first) in
    let last = min (n - 1) (parse_index n last) in
    let before = List.filteri (fun j _ -> j < first) elements in
    let after = List.filteri (fun j _ -> j > last && j >= first) elements in
    Tcl_list.format (before @ values @ after)
  | _ -> raise Usage

let cmd_lsearch _t words =
  let mode, l, pattern =
    match words with
    | [ _; l; pattern ] -> (`Glob, l, pattern)
    | [ _; "-exact"; l; pattern ] -> (`Exact, l, pattern)
    | [ _; "-glob"; l; pattern ] -> (`Glob, l, pattern)
    | [ _; mode; _; _ ] ->
      failf "bad search mode \"%s\": must be -exact or -glob" mode
    | _ -> raise Usage
  in
  let matches e =
    match mode with
    | `Exact -> e = pattern
    | `Glob -> Glob.matches ~pattern e
  in
  let elements = parse_list_exn l in
  let rec find i = function
    | [] -> -1
    | e :: rest -> if matches e then i else find (i + 1) rest
  in
  string_of_int (find 0 elements)

let cmd_lsort _t words =
  let compare_by mode a b =
    match mode with
    | `Ascii -> String.compare a b
    | `Integer ->
      compare
        (match int_of_string_opt (String.trim a) with
        | Some i -> i
        | None -> failf "expected integer but got \"%s\"" a)
        (match int_of_string_opt (String.trim b) with
        | Some i -> i
        | None -> failf "expected integer but got \"%s\"" b)
    | `Real ->
      compare
        (match float_of_string_opt (String.trim a) with
        | Some f -> f
        | None -> failf "expected floating-point number but got \"%s\"" a)
        (match float_of_string_opt (String.trim b) with
        | Some f -> f
        | None -> failf "expected floating-point number but got \"%s\"" b)
  in
  let rec parse_opts mode direction = function
    | [ l ] ->
      let cmp a b =
        let c = compare_by mode a b in
        match direction with `Incr -> c | `Decr -> -c
      in
      Tcl_list.format (List.stable_sort cmp (parse_list_exn l))
    | "-integer" :: rest -> parse_opts `Integer direction rest
    | "-real" :: rest -> parse_opts `Real direction rest
    | "-ascii" :: rest -> parse_opts `Ascii direction rest
    | "-increasing" :: rest -> parse_opts mode `Incr rest
    | "-decreasing" :: rest -> parse_opts mode `Decr rest
    | opt :: _ :: _ ->
      failf
        "bad switch \"%s\": must be -ascii, -integer, -real, -increasing, or \
         -decreasing"
        opt
    | [] -> raise Usage
  in
  parse_opts `Ascii `Incr (List.tl words)

(* concat trims each argument and joins with single spaces, dropping empty
   arguments. *)
let cmd_concat _t = function
  | _ :: args ->
    String.concat " "
      (List.filter (fun s -> s <> "") (List.map String.trim args))
  | [] -> assert false

let cmd_split _t words =
  let split_on_chars chars s =
    if chars = "" then
      List.init (String.length s) (fun i -> String.make 1 s.[i])
    else begin
      let out = ref [] in
      let buf = Buffer.create 16 in
      String.iter
        (fun c ->
          if String.contains chars c then begin
            out := Buffer.contents buf :: !out;
            Buffer.clear buf
          end
          else Buffer.add_char buf c)
        s;
      List.rev (Buffer.contents buf :: !out)
    end
  in
  match words with
  | [ _; s ] -> Tcl_list.format (split_on_chars " \t\n\r" s)
  | [ _; s; chars ] -> Tcl_list.format (split_on_chars chars s)
  | _ -> raise Usage

let cmd_join _t = function
  | [ _; l ] -> String.concat " " (parse_list_exn l)
  | [ _; l; sep ] -> String.concat sep (parse_list_exn l)
  | _ -> raise Usage

let install t =
  (* Static index validator for the lint pass: the same grammar as the
     runtime's Tcl_list.parse_index, applied to literal arguments (the
     length does not matter for malformed-ness). *)
  let chk_index i =
    {
      chk_arg = i;
      chk =
        (fun v ->
          match Tcl_list.parse_index ~len:0 v with
          | Stdlib.Ok _ -> None
          | Stdlib.Error msg -> Some msg);
    }
  in
  let lindex name =
    signature name 2 ~max:2 ~usage:"lindex list index" ~checks:[ chk_index 2 ]
  and lrange name =
    signature name 3 ~max:3 ~usage:"lrange list first last"
      ~checks:[ chk_index 2; chk_index 3 ]
  and llength name = signature name 1 ~max:1 ~usage:"llength list" in
  register_value t (signature "list" 0 ~usage:"list ?arg arg ...?") cmd_list;
  register_value t (lindex "lindex") cmd_lindex;
  register_value t (llength "llength") cmd_llength;
  register_value t (lrange "lrange") cmd_lrange;
  register_value t
    (signature "lappend" 1 ~usage:"lappend varName ?value value ...?")
    cmd_lappend;
  register_value t
    (signature "linsert" 3 ~usage:"linsert list index element ?element ...?"
       ~checks:[ chk_index 2 ])
    cmd_linsert;
  register_value t
    (signature "lreplace" 3
       ~usage:"lreplace list first last ?element element ...?"
       ~checks:[ chk_index 2; chk_index 3 ])
    cmd_lreplace;
  register_value t
    (signature "lsearch" 2 ~max:3 ~usage:"lsearch ?-exact|-glob? list pattern")
    cmd_lsearch;
  register_value t
    (signature "lsort" 1
       ~usage:"lsort ?-ascii|-integer|-real? ?-increasing|-decreasing? list")
    cmd_lsort;
  register_value t (signature "concat" 0 ~usage:"concat ?arg arg ...?")
    cmd_concat;
  register_value t
    (signature "split" 1 ~max:2 ~usage:"split string ?splitChars?")
    cmd_split;
  register_value t (signature "join" 1 ~max:2 ~usage:"join list ?joinString?")
    cmd_join;
  (* Tcl-1990 aliases used by the paper's scripts. *)
  register_value t (lindex "index") cmd_lindex;
  register_value t (lrange "range") cmd_lrange;
  register_value t (llength "length") cmd_llength
