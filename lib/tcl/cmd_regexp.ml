open Interp

let compile_exn ~nocase pattern =
  let pattern = if nocase then String.lowercase_ascii pattern else pattern in
  match Regexp.compile pattern with
  | Ok re -> re
  | Error msg -> failf "couldn't compile regular expression pattern: %s" msg

let subject ~nocase s = if nocase then String.lowercase_ascii s else s

let rec split_flags nocase indices all = function
  | "-nocase" :: rest -> split_flags true indices all rest
  | "-indices" :: rest -> split_flags nocase true all rest
  | "-all" :: rest -> split_flags nocase indices true rest
  | rest -> (nocase, indices, all, rest)

let cmd_regexp t words =
  let nocase, indices, _all, rest = split_flags false false false (List.tl words) in
  match rest with
  | exp :: str :: vars ->
    let re = compile_exn ~nocase exp in
    (match Regexp.find re (subject ~nocase str) with
    | None -> "0"
    | Some caps ->
      List.iteri
        (fun i var ->
          let start, stop =
            if i < Array.length caps then caps.(i) else (-1, -1)
          in
          let value =
            if start < 0 then ""
            else if indices then
              Printf.sprintf "%d %d" start (stop - 1)
            else String.sub str start (stop - start)
          in
          set_var t var value)
        vars;
      "1")
  | _ -> raise Usage

let cmd_regsub t words =
  let nocase, _indices, all, rest = split_flags false false false (List.tl words) in
  match rest with
  | [ exp; str; template; var ] ->
    let re = compile_exn ~nocase exp in
    if nocase then begin
      (* Match case-insensitively but substitute from the original text:
         find match offsets on the lowercased copy, then rebuild. *)
      let folded = String.lowercase_ascii str in
      let result = Buffer.create (String.length str) in
      let count = ref 0 in
      let rec go offset =
        if offset > String.length str then ()
        else
          let tail = String.sub folded offset (String.length folded - offset) in
          let orig_tail = String.sub str offset (String.length str - offset) in
          match Regexp.find re tail with
          | None -> Buffer.add_string result orig_tail
          | Some caps ->
            let start, stop = caps.(0) in
            Buffer.add_string result (String.sub orig_tail 0 start);
            (* Re-run template expansion against the original text. *)
            let expanded, _ =
              let sub_re =
                (* caps are offsets valid for orig_tail too. *)
                caps
              in
              let buf = Buffer.create 16 in
              let group i =
                if i < Array.length sub_re then begin
                  let s0, s1 = sub_re.(i) in
                  if s0 >= 0 then
                    Buffer.add_string buf (String.sub orig_tail s0 (s1 - s0))
                end
              in
              let n = String.length template in
              let i = ref 0 in
              while !i < n do
                (match template.[!i] with
                | '&' ->
                  group 0;
                  incr i
                | '\\' when !i + 1 < n -> (
                  match template.[!i + 1] with
                  | '0' .. '9' as d ->
                    group (Char.code d - Char.code '0');
                    i := !i + 2
                  | c ->
                    Buffer.add_char buf c;
                    i := !i + 2)
                | c ->
                  Buffer.add_char buf c;
                  incr i)
              done;
              (Buffer.contents buf, 0)
            in
            Buffer.add_string result expanded;
            incr count;
            if all && stop > start then go (offset + stop)
            else if all then begin
              if start < String.length orig_tail then
                Buffer.add_char result orig_tail.[start];
              go (offset + start + 1)
            end
            else
              Buffer.add_string result
                (String.sub orig_tail stop (String.length orig_tail - stop))
      in
      go 0;
      set_var t var (Buffer.contents result);
      string_of_int !count
    end
    else begin
      let result, count = Regexp.replace re str ~template ~all in
      set_var t var result;
      string_of_int count
    end
  | word :: _ :: _ :: _ :: _ :: _ when List.length words <= 7 ->
    failf "bad switch \"%s\": must be -all or -nocase" word
  | _ -> raise Usage

let install t =
  register_value t
    (signature "regexp" 2
       ~usage:"regexp ?-nocase? ?-indices? exp string ?matchVar? ?subVar ...?")
    cmd_regexp;
  register_value t
    (signature "regsub" 4 ~max:6
       ~usage:"regsub ?-all? ?-nocase? exp string subSpec varName")
    cmd_regsub
