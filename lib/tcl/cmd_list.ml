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

let lsearch_signature =
  signature "lsearch" 2 ~max:2
    ~switches:[ Flag "-exact"; Flag "-glob" ]
    ~usage:"lsearch ?-exact|-glob? list pattern"

let rec search_list ~exact pattern i = function
  | [] -> -1
  | e :: _ when if exact then e = pattern else Glob.matches ~pattern e -> i
  | _ :: rest -> search_list ~exact pattern (i + 1) rest

let cmd_lsearch _t words =
  match switches lsearch_signature (List.tl words) with
  | found, [ l; pattern ] ->
    let exact = match found with (sw, _) :: _ -> sw = "-exact" | [] -> false in
    string_of_int (search_list ~exact pattern 0 (parse_list_exn l))
  | _ -> raise Usage

let lsort_signature =
  signature "lsort" 1 ~max:1
    ~switches:
      [
        Flag "-ascii";
        Flag "-integer";
        Flag "-real";
        Flag "-increasing";
        Flag "-decreasing";
      ]
    ~usage:"lsort ?-ascii|-integer|-real? ?-increasing|-decreasing? list"

(* A sort key, or the error for a word that is not one. *)
let key of_string what s =
  match of_string (String.trim s) with
  | Some v -> v
  | None -> failf "expected %s but got \"%s\"" what s

(* The switch of [kinds] given last ([switches] lists it first). *)
let rec latest kinds = function
  | [] -> ""
  | (sw, _) :: rest -> if List.mem sw kinds then sw else latest kinds rest

let cmd_lsort _t words =
  match switches lsort_signature (List.tl words) with
  | found, [ l ] ->
    let cmp =
      match latest [ "-ascii"; "-integer"; "-real" ] found with
      | "-integer" ->
        fun a b ->
          compare (key int_of_string_opt "integer" a)
            (key int_of_string_opt "integer" b)
      | "-real" ->
        fun a b ->
          compare
            (key float_of_string_opt "floating-point number" a)
            (key float_of_string_opt "floating-point number" b)
      | _ -> String.compare
    in
    let cmp =
      if latest [ "-increasing"; "-decreasing" ] found = "-decreasing" then
        fun a b -> cmp b a
      else cmp
    in
    Tcl_list.format (List.stable_sort cmp (parse_list_exn l))
  | _ -> raise Usage

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
  register_value t lsearch_signature cmd_lsearch;
  register_value t lsort_signature cmd_lsort;
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
