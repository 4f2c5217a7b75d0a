open Interp

let regexp_signature =
  signature "regexp" 2
    ~switches:[ Flag "-nocase"; Flag "-indices"; Flag "--" ]
    ~usage:"regexp ?-nocase? ?-indices? ?--? exp string ?matchVar? ?subVar ...?"

let regsub_signature =
  signature "regsub" 4 ~max:4
    ~switches:[ Flag "-all"; Flag "-nocase"; Flag "--" ]
    ~usage:"regsub ?-all? ?-nocase? ?--? exp string subSpec varName"

let compile_exn found pattern =
  match Regexp.compile ~nocase:(List.mem_assoc "-nocase" found) pattern with
  | Ok re -> re
  | Error msg -> failf "couldn't compile regular expression pattern: %s" msg

let cmd_regexp t words =
  match switches regexp_signature (List.tl words) with
  | found, exp :: str :: vars -> (
    let indices = List.mem_assoc "-indices" found in
    match Regexp.find (compile_exn found exp) str with
    | None -> "0"
    | Some caps ->
      List.iteri
        (fun i var ->
          let start, stop =
            if i < Array.length caps then caps.(i) else (-1, -1)
          in
          let value =
            if start < 0 then ""
            else if indices then Printf.sprintf "%d %d" start (stop - 1)
            else String.sub str start (stop - start)
          in
          set_var t var value)
        vars;
      "1")
  | _ -> raise Usage

let cmd_regsub t words =
  match switches regsub_signature (List.tl words) with
  | found, [ exp; str; template; var ] ->
    let all = List.mem_assoc "-all" found in
    let result, count =
      Regexp.replace (compile_exn found exp) str ~template ~all
    in
    set_var t var result;
    string_of_int count
  | _ -> raise Usage

let install t =
  register_value t regexp_signature cmd_regexp;
  register_value t regsub_signature cmd_regsub
