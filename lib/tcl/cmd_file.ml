open Interp

let known_options =
  [
    "exists"; "isdirectory"; "isfile"; "readable"; "writable"; "dirname";
    "tail"; "rootname"; "extension"; "size";
  ]

let file_size path =
  match In_channel.with_open_bin path In_channel.length with
  | len -> Some (Int64.to_int len)
  | exception Sys_error _ -> None

let apply_file_option option path =
  let bool b = if b then "1" else "0" in
  match option with
  | "exists" -> bool (Sys.file_exists path)
  | "isdirectory" -> bool (Sys.file_exists path && Sys.is_directory path)
  | "isfile" ->
    bool (Sys.file_exists path && not (Sys.is_directory path))
  | "readable" -> bool (Sys.file_exists path)
  | "writable" -> bool (Sys.file_exists path)
  | "dirname" -> Filename.dirname path
  | "tail" -> Filename.basename path
  | "rootname" -> Filename.remove_extension path
  | "extension" ->
    let base = Filename.basename path in
    (try
       let dot = String.rindex base '.' in
       String.sub base dot (String.length base - dot)
     with Not_found -> "")
  | "size" -> (
    match file_size path with
    | Some n -> string_of_int n
    | None -> failf "couldn't stat \"%s\"" path)
  | opt -> failf "bad file option \"%s\"" opt

let cmd_file _t = function
  | [ _; a; b ] ->
    (* Modern order is "file option name"; the paper's Figure 9 uses
       "file name option". Accept both by checking which word is a known
       option. *)
    if List.mem a known_options then apply_file_option a b
    else if List.mem b known_options then apply_file_option b a
    else failf "bad file option \"%s\"" a
  | _ -> raise Usage

let glob_signature =
  signature "glob" 1
    ~switches:[ Flag "-nocomplain"; Flag "--" ]
    ~usage:"glob ?-nocomplain? ?--? pattern ?pattern ...?"

let cmd_glob _t words =
  let found, patterns = switches glob_signature (List.tl words) in
  if patterns = [] then raise Usage
  else begin
    let expand pattern =
      let dir = Filename.dirname pattern in
      let base = Filename.basename pattern in
      let entries =
        match Sys.readdir (if String.contains pattern '/' then dir else ".") with
        | entries -> Array.to_list entries
        | exception Sys_error _ -> []
      in
      let matched =
        (* Hidden files only match patterns that start with a dot. *)
        List.filter
          (fun e ->
            String.length e > 0
            && (e.[0] <> '.' || (String.length base > 0 && base.[0] = '.'))
            && Glob.matches ~pattern:base e)
          entries
      in
      if String.contains pattern '/' then
        List.map (fun e -> Filename.concat dir e) matched
      else matched
    in
    let results = List.concat_map expand patterns in
    if results = [] && not (List.mem_assoc "-nocomplain" found) then
      failf "no files matched glob pattern(s)"
    else Tcl_list.format (List.sort String.compare results)
  end

let cmd_pwd _t = function
  | [ _ ] -> Sys.getcwd ()
  | _ -> raise Usage

let cmd_cd _t = function
  | [ _; dir ] -> (
    match Sys.chdir dir with
    | () -> ""
    | exception Sys_error msg -> failf "couldn't change directory: %s" msg)
  | _ -> raise Usage

(* Run a command, capturing stdout. Uses a shell via Sys.command with
   output redirected to a temporary file, so no extra library is needed. *)
let cmd_exec _t = function
  | _ :: (_ :: _ as argv) ->
    let background, argv =
      match List.rev argv with
      | "&" :: rest -> (true, List.rev rest)
      | _ -> (false, argv)
    in
    (* [exec &] names no program. *)
    if argv = [] then raise Usage;
    let command = Filename.quote_command (List.hd argv) (List.tl argv) in
    if background then begin
      ignore (Sys.command (command ^ " &"));
      ""
    end
    else begin
      let tmp = Filename.temp_file "tclexec" ".out" in
      Fun.protect
        ~finally:(fun () -> try Sys.remove tmp with Sys_error _ -> ())
        (fun () ->
          let status =
            Sys.command (command ^ " > " ^ Filename.quote tmp ^ " 2>&1")
          in
          let out =
            In_channel.with_open_text tmp In_channel.input_all
          in
          let out =
            (* Trim a single trailing newline, as Tcl's exec does. *)
            if String.length out > 0 && out.[String.length out - 1] = '\n'
            then String.sub out 0 (String.length out - 1)
            else out
          in
          if status <> 0 then
            failf "command \"%s\" returned non-zero exit status %d: %s"
              (List.hd argv) status out
          else out)
    end
  | _ -> raise Usage

(* ------------------------------------------------------------------ *)
(* File channels (Tcl's open/close/gets/read/eof/flush, plus puts to a
   channel). Channel ids look like "file3" and live on the interpreter
   that opened them; stdout/stderr/stdin are built in. *)

let find_channel t id =
  match Hashtbl.find_opt (channels t) id with
  | Some c -> Some c
  | None -> (
    match id with
    | "stdout" -> Some (Chan_out stdout)
    | "stderr" -> Some (Chan_out stderr)
    | "stdin" -> Some (Chan_in stdin)
    | _ -> None)

let channel_exn t id =
  match find_channel t id with
  | Some c -> c
  | None -> failf "file \"%s\" isn't open" id

let out_channel_exn t id =
  match channel_exn t id with
  | Chan_out oc -> oc
  | Chan_in _ -> failf "\"%s\" wasn't opened for writing" id

let in_channel_exn t id =
  match channel_exn t id with
  | Chan_in ic -> ic
  | Chan_out _ -> failf "\"%s\" wasn't opened for reading" id

let cmd_open t = function
  | [ _; path ] | [ _; path; "r" ] -> (
    match open_in path with
    | ic -> add_channel t (Chan_in ic)
    | exception Sys_error msg -> failf "couldn't open \"%s\": %s" path msg)
  | [ _; path; mode ] -> (
    let flags =
      match mode with
      | "w" -> Some [ Open_wronly; Open_creat; Open_trunc ]
      | "a" -> Some [ Open_wronly; Open_creat; Open_append ]
      | _ -> None
    in
    match flags with
    | None -> failf "bad access mode \"%s\": must be r, w, or a" mode
    | Some flags -> (
      match open_out_gen flags 0o644 path with
      | oc -> add_channel t (Chan_out oc)
      | exception Sys_error msg -> failf "couldn't open \"%s\": %s" path msg))
  | _ -> raise Usage

let cmd_close t = function
  | [ _; id ] ->
    (match channel_exn t id with
    | Chan_in ic -> close_in ic
    | Chan_out oc -> close_out oc);
    Hashtbl.remove (channels t) id;
    ""
  | _ -> raise Usage

let cmd_gets t = function
  | [ _; id ] -> (
    match In_channel.input_line (in_channel_exn t id) with
    | Some line -> line
    | None -> "")
  | [ _; id; var ] -> (
    match In_channel.input_line (in_channel_exn t id) with
    | Some line ->
      set_var t var line;
      string_of_int (String.length line)
    | None ->
      set_var t var "";
      "-1")
  | _ -> raise Usage

let cmd_read t = function
  | [ _; id ] -> In_channel.input_all (in_channel_exn t id)
  | [ _; id; count ] -> (
    let ic = in_channel_exn t id in
    match int_of_string_opt count with
    | Some n ->
      let buf = Bytes.create n in
      let got = input ic buf 0 n in
      Bytes.sub_string buf 0 got
    | None -> failf "expected integer but got \"%s\"" count)
  | _ -> raise Usage

let cmd_eof t = function
  | [ _; id ] -> (
    let ic = in_channel_exn t id in
    match In_channel.pos ic >= In_channel.length ic with
    | b -> if b then "1" else "0"
    | exception Sys_error _ -> "1")
  | _ -> raise Usage

let cmd_flush t = function
  | [ _; id ] ->
    flush (out_channel_exn t id);
    ""
  | _ -> raise Usage

(* puts with channel support: [puts ?-nonewline? ?fileId? string]. The
   default destination is the interpreter's output hook, so tests and
   embedding applications can capture it. *)
let cmd_puts t words =
  let nonewline, rest =
    match words with
    | _ :: "-nonewline" :: rest -> (true, rest)
    | _ :: rest -> (false, rest)
    | [] -> (false, [])
  in
  let write_default s = output t (if nonewline then s else s ^ "\n") in
  match rest with
  | [ s ] ->
    write_default s;
    ""
  | [ id; s ] -> (
    match find_channel t id with
    | Some (Chan_out oc) ->
      output_string oc s;
      if not nonewline then output_char oc '\n';
      ""
    | Some (Chan_in _) -> failf "\"%s\" wasn't opened for writing" id
    | None ->
      (* Not a channel: treat both words as one message, as old Tcl's
         two-argument puts to stdout did not exist — error clearly. *)
      failf "file \"%s\" isn't open" id)
  | _ -> raise Usage

let install t =
  register_value t (signature "file" 2 ~max:2 ~usage:"file option name")
    cmd_file;
  register_value t glob_signature cmd_glob;
  register_value t (signature "pwd" 0 ~max:0 ~usage:"pwd") cmd_pwd;
  register_value t (signature "cd" 1 ~max:1 ~usage:"cd dirName") cmd_cd;
  register_value t (signature "exec" 1 ~usage:"exec arg ?arg ...?") cmd_exec;
  register_value t (signature "open" 1 ~max:2 ~usage:"open fileName ?access?")
    cmd_open;
  register_value t (signature "close" 1 ~max:1 ~usage:"close fileId") cmd_close;
  register_value t (signature "gets" 1 ~max:2 ~usage:"gets fileId ?varName?")
    cmd_gets;
  register_value t (signature "read" 1 ~max:2 ~usage:"read fileId ?numBytes?")
    cmd_read;
  register_value t (signature "eof" 1 ~max:1 ~usage:"eof fileId") cmd_eof;
  register_value t (signature "flush" 1 ~max:1 ~usage:"flush fileId") cmd_flush;
  register_value t
    (signature "puts" 1 ~max:3 ~usage:"puts ?-nonewline? ?fileId? string")
    cmd_puts
