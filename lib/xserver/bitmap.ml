type t = {
  name : string;
  width : int;
  height : int;
  bits : bool array array;
}

(* Built-in stipples: every-other-pixel patterns of varying density. *)
let make_pattern name width height f =
  {
    name;
    width;
    height;
    bits = Array.init height (fun y -> Array.init width (fun x -> f x y));
  }

let builtins =
  [
    ("gray50", fun () -> make_pattern "gray50" 4 4 (fun x y -> (x + y) mod 2 = 0));
    ("gray25", fun () -> make_pattern "gray25" 4 4 (fun x y -> (x + (2 * y)) mod 4 = 0));
    ("gray12", fun () -> make_pattern "gray12" 4 4 (fun x y -> x mod 4 = 0 && y mod 2 = 0));
    ("black", fun () -> make_pattern "black" 4 4 (fun _ _ -> true));
    ("white", fun () -> make_pattern "white" 4 4 (fun _ _ -> false));
    ("questhead", fun () -> make_pattern "questhead" 8 8 (fun x y -> (x * y) mod 3 = 0));
    ("warning", fun () -> make_pattern "warning" 8 8 (fun x y -> x = y || x + y = 7));
    ("hourglass", fun () -> make_pattern "hourglass" 8 8 (fun x y -> x >= min y (7 - y) && x <= max y (7 - y)));
  ]

(* Built-in pattern used when a bitmap request fails: a 50% stipple keeps
   stippled drawing visibly dithered instead of crashing. *)
let fallback () = make_pattern "gray50" 4 4 (fun x y -> (x + y) mod 2 = 0)

(* Minimal XBM reader: find "_width N", "_height N" and the 0xNN bytes. *)
let parse_xbm ~name contents =
  let find_define key =
    let rec scan i =
      match String.index_from_opt contents i '#' with
      | None -> None
      | Some j ->
        let line_end =
          match String.index_from_opt contents j '\n' with
          | Some e -> e
          | None -> String.length contents
        in
        let line = String.sub contents j (line_end - j) in
        let has_key =
          let kl = String.length key and ll = String.length line in
          let rec go p = p + kl <= ll && (String.sub line p kl = key || go (p + 1)) in
          go 0
        in
        if has_key then
          (* Last whitespace-separated token is the number. *)
          let tokens =
            List.filter (fun s -> s <> "") (String.split_on_char ' ' line)
          in
          (match List.rev tokens with
          | last :: _ -> int_of_string_opt (String.trim last)
          | [] -> None)
        else scan (line_end + 1)
    in
    scan 0
  in
  let read_bytes () =
    let bytes = ref [] in
    let n = String.length contents in
    let i = ref 0 in
    while !i < n - 1 do
      if contents.[!i] = '0' && (contents.[!i + 1] = 'x' || contents.[!i + 1] = 'X')
      then begin
        let j = ref (!i + 2) in
        while
          !j < n
          &&
          match contents.[!j] with
          | '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true
          | _ -> false
        do
          incr j
        done;
        (match int_of_string_opt (String.sub contents !i (!j - !i)) with
        | Some b -> bytes := b :: !bytes
        | None -> ());
        i := !j
      end
      else incr i
    done;
    List.rev !bytes
  in
  match (find_define "_width", find_define "_height") with
  | Some width, Some height when width > 0 && height > 0 ->
    let bytes = Array.of_list (read_bytes ()) in
    let bytes_per_row = (width + 7) / 8 in
    if Array.length bytes < bytes_per_row * height then None
    else
      let bits =
        Array.init height (fun y ->
            Array.init width (fun x ->
                let b = bytes.((y * bytes_per_row) + (x / 8)) in
                b land (1 lsl (x mod 8)) <> 0))
      in
      Some { name; width; height; bits }
  | _ -> None

let parse spec =
  if spec = "" then None
  else if spec.[0] = '@' then begin
    let path = String.sub spec 1 (String.length spec - 1) in
    match In_channel.with_open_text path In_channel.input_all with
    | contents -> parse_xbm ~name:spec contents
    | exception Sys_error _ -> None
  end
  else
    Option.map (fun f -> f ()) (List.assoc_opt spec builtins)
