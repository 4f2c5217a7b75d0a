let failf = Tcl.Interp.failf

type side = Top | Bottom | Left | Right

type opts = {
  side : side;
  fill_x : bool;
  fill_y : bool;
  expand : bool;
  padx : int;
  pady : int;
  anchor : Core.anchor; (* position within the parcel ("frame" option) *)
}

let default_opts =
  {
    side = Top;
    fill_x = false;
    fill_y = false;
    expand = false;
    padx = 0;
    pady = 0;
    anchor = Core.Center;
  }

type slave = { sw : Core.widget; mutable opts : opts }

(* One application's packing lists, made by [install] and shared by the
   command, the configure hook and the slaves' geometry-manager closures;
   a slave leaves its list when it is destroyed ([gm_lost_slave]). *)
type state = {
  masters : (string, slave list ref) Hashtbl.t;
  mutable arranging : string list; (* masters currently being laid out *)
}

let side_name = function
  | Top -> "top"
  | Bottom -> "bottom"
  | Left -> "left"
  | Right -> "right"

let parse_opts text =
  let words =
    match Tcl.Tcl_list.parse text with
    | Ok w -> w
    | Error msg -> failf "%s" msg
  in
  let rec go opts = function
    | [] -> opts
    | "top" :: rest -> go { opts with side = Top } rest
    | "bottom" :: rest -> go { opts with side = Bottom } rest
    | "left" :: rest -> go { opts with side = Left } rest
    | "right" :: rest -> go { opts with side = Right } rest
    | "fill" :: rest -> go { opts with fill_x = true; fill_y = true } rest
    | "fillx" :: rest -> go { opts with fill_x = true } rest
    | "filly" :: rest -> go { opts with fill_y = true } rest
    | "expand" :: rest -> go { opts with expand = true } rest
    | "padx" :: n :: rest -> (
      match Core.parse_pixels n with
      | Some px -> go { opts with padx = px } rest
      | None -> failf "bad pad value \"%s\"" n)
    | "pady" :: n :: rest -> (
      match Core.parse_pixels n with
      | Some px -> go { opts with pady = px } rest
      | None -> failf "bad pad value \"%s\"" n)
    | "frame" :: anchor :: rest -> (
      match anchor with
      | "n" -> go { opts with anchor = Core.N } rest
      | "ne" -> go { opts with anchor = Core.NE } rest
      | "e" -> go { opts with anchor = Core.E } rest
      | "se" -> go { opts with anchor = Core.SE } rest
      | "s" -> go { opts with anchor = Core.S } rest
      | "sw" -> go { opts with anchor = Core.SW } rest
      | "w" -> go { opts with anchor = Core.W } rest
      | "nw" -> go { opts with anchor = Core.NW } rest
      | "center" -> go { opts with anchor = Core.Center } rest
      | bad -> failf "bad anchor \"%s\" in \"frame\" option" bad)
    | bad :: _ ->
      failf
        "bad option \"%s\": should be top, bottom, left, right, expand, \
         fill, fillx, filly, padx, pady, or frame"
        bad
  in
  go default_opts words

(* ------------------------------------------------------------------ *)
(* Layout (a port of tkPack.c's ArrangePacking) *)

let req_w s = s.sw.Core.req_width + (2 * s.opts.padx)
let req_h s = s.sw.Core.req_height + (2 * s.opts.pady)

(* How much extra width an expanding left/right slave may take: the
   leftover cavity width divided among the expanding slaves that remain. *)
let x_expansion slaves cavity_width =
  let rec go slaves cavity num_expand min_expand =
    match slaves with
    | [] ->
      let current =
        if num_expand > 0 then cavity / num_expand else min_expand
      in
      max 0 (min min_expand current)
    | s :: rest -> (
      match s.opts.side with
      | Top | Bottom ->
        let current =
          if num_expand > 0 then (cavity - req_w s) / num_expand
          else min_expand
        in
        go rest cavity num_expand (min min_expand current)
      | Left | Right ->
        go rest (cavity - req_w s)
          (if s.opts.expand then num_expand + 1 else num_expand)
          min_expand)
  in
  go slaves cavity_width 0 max_int

let y_expansion slaves cavity_height =
  let rec go slaves cavity num_expand min_expand =
    match slaves with
    | [] ->
      let current =
        if num_expand > 0 then cavity / num_expand else min_expand
      in
      max 0 (min min_expand current)
    | s :: rest -> (
      match s.opts.side with
      | Left | Right ->
        let current =
          if num_expand > 0 then (cavity - req_h s) / num_expand
          else min_expand
        in
        go rest cavity num_expand (min min_expand current)
      | Top | Bottom ->
        go rest (cavity - req_h s)
          (if s.opts.expand then num_expand + 1 else num_expand)
          min_expand)
  in
  go slaves cavity_height 0 max_int

(* The master's requested size: what the slaves need (geometry
   propagation). *)
let compute_request slaves =
  let rec go slaves x y max_w max_h =
    match slaves with
    | [] -> (max x max_w, max y max_h)
    | s :: rest -> (
      match s.opts.side with
      | Top | Bottom ->
        go rest x (y + req_h s) (max max_w (x + req_w s)) max_h
      | Left | Right ->
        go rest (x + req_w s) y max_w (max max_h (y + req_h s)))
  in
  go slaves 0 0 0 0

let arrange_now state master =
  match Hashtbl.find_opt state.masters master.Core.path with
  | None | Some { contents = [] } -> ()
  | Some { contents = slaves } ->
    let slaves = List.filter (fun s -> not s.sw.Core.destroyed) slaves in
    (* Geometry propagation: tell the master how big it wants to be. *)
    let want_w, want_h = compute_request slaves in
    if want_w > 0 && want_h > 0 then
      Core.request_size master ~width:want_w ~height:want_h;
    (* Arrange into the actual size. *)
    let rec place slaves cavity_x cavity_y cavity_w cavity_h =
      match slaves with
      | [] -> ()
      | s :: rest ->
        let frame_x, frame_y, frame_w, frame_h, cavity_x, cavity_y, cavity_w, cavity_h
            =
          match s.opts.side with
          | Top | Bottom ->
            let fh = req_h s in
            let fh =
              if s.opts.expand then fh + y_expansion slaves cavity_h else fh
            in
            let fh, ch = if fh > cavity_h then (cavity_h, 0) else (fh, cavity_h - fh) in
            let fy =
              if s.opts.side = Top then cavity_y else cavity_y + ch
            in
            let cy = if s.opts.side = Top then cavity_y + fh else cavity_y in
            (cavity_x, fy, cavity_w, fh, cavity_x, cy, cavity_w, ch)
          | Left | Right ->
            let fw = req_w s in
            let fw =
              if s.opts.expand then fw + x_expansion slaves cavity_w else fw
            in
            let fw, cw = if fw > cavity_w then (cavity_w, 0) else (fw, cavity_w - fw) in
            let fx =
              if s.opts.side = Left then cavity_x else cavity_x + cw
            in
            let cx = if s.opts.side = Left then cavity_x + fw else cavity_x in
            (fx, cavity_y, fw, cavity_h, cx, cavity_y, cw, cavity_h)
        in
        (* Position the slave inside its frame. *)
        let avail_w = frame_w - (2 * s.opts.padx) in
        let avail_h = frame_h - (2 * s.opts.pady) in
        let width =
          if s.opts.fill_x || s.sw.Core.req_width > avail_w then avail_w
          else s.sw.Core.req_width
        in
        let height =
          if s.opts.fill_y || s.sw.Core.req_height > avail_h then avail_h
          else s.sw.Core.req_height
        in
        if width <= 0 || height <= 0 then Core.unmap_widget s.sw
        else begin
          let hslack = avail_w - width and vslack = avail_h - height in
          let dx =
            match s.opts.anchor with
            | Core.NW | Core.W | Core.SW -> 0
            | Core.NE | Core.E | Core.SE -> hslack
            | Core.N | Core.S | Core.Center -> hslack / 2
          in
          let dy =
            match s.opts.anchor with
            | Core.NW | Core.N | Core.NE -> 0
            | Core.SW | Core.S | Core.SE -> vslack
            | Core.W | Core.E | Core.Center -> vslack / 2
          in
          let x = frame_x + s.opts.padx + dx in
          let y = frame_y + s.opts.pady + dy in
          Core.move_resize s.sw ~x ~y ~width ~height;
          Core.map_widget s.sw
        end;
        place rest cavity_x cavity_y cavity_w cavity_h
    in
    place slaves 0 0 master.Core.width master.Core.height

let arrange state master =
  let path = master.Core.path in
  (* request_size on the master can re-enter (the master may itself be a
     packed slave); the per-master guard keeps the recursion shallow while
     still letting enclosing masters re-layout. *)
  if not (List.mem path state.arranging) then begin
    state.arranging <- path :: state.arranging;
    Fun.protect
      ~finally:(fun () ->
        state.arranging <- List.filter (fun p -> p <> path) state.arranging)
      (fun () ->
        arrange_now state master;
        (* A second pass picks up the size the master was just granted. *)
        arrange_now state master)
  end

let manager_for state master =
  {
    Core.gm_name = "pack";
    gm_slave_request =
      (fun _slave ->
        if not master.Core.destroyed then arrange state master);
    gm_lost_slave =
      (fun slave ->
        match Hashtbl.find_opt state.masters master.Core.path with
        | Some cell -> cell := List.filter (fun s -> s.sw != slave) !cell
        | None -> ());
  }

let append state ~master pairs =
  let cell =
    match Hashtbl.find_opt state.masters master.Core.path with
    | Some cell -> cell
    | None ->
      let cell = ref [] in
      Hashtbl.replace state.masters master.Core.path cell;
      cell
  in
  List.iter
    (fun (w, opts) ->
      (match Path.parent w.Core.path with
      | Some p when p = master.Core.path -> ()
      | _ ->
        failf "can't pack %s inside %s: not its parent" w.Core.path
          master.Core.path);
      (match w.Core.geom_mgr with
      | Some mgr when mgr.Core.gm_name = "pack" ->
        (* Repacking: drop any previous entry. *)
        cell := List.filter (fun s -> s.sw != w) !cell
      | Some mgr -> mgr.Core.gm_lost_slave w
      | None -> ());
      w.Core.geom_mgr <- Some (manager_for state master);
      cell := !cell @ [ { sw = w; opts } ])
    pairs;
  arrange state master

let find_master state w =
  Hashtbl.fold
    (fun master_path cell acc ->
      if List.exists (fun s -> s.sw == w) !cell then Some (master_path, cell)
      else acc)
    state.masters None

let unpack state w =
  match find_master state w with
  | None -> ()
  | Some (master_path, cell) ->
    cell := List.filter (fun s -> s.sw != w) !cell;
    w.Core.geom_mgr <- None;
    Core.unmap_widget w;
    (match Core.lookup w.Core.app master_path with
    | Some master when not master.Core.destroyed -> arrange state master
    | Some _ | None -> ())

let slaves state master =
  match Hashtbl.find_opt state.masters master.Core.path with
  | None -> []
  | Some cell -> List.map (fun s -> s.sw) !cell

let info state master =
  match Hashtbl.find_opt state.masters master.Core.path with
  | None -> ""
  | Some cell ->
    Tcl.Tcl_list.format
      (List.concat_map
         (fun s ->
           let flags =
             [ side_name s.opts.side ]
             @ (if s.opts.fill_x && s.opts.fill_y then [ "fill" ]
                else if s.opts.fill_x then [ "fillx" ]
                else if s.opts.fill_y then [ "filly" ]
                else [])
             @ (if s.opts.expand then [ "expand" ] else [])
             @ (if s.opts.padx > 0 then [ "padx"; string_of_int s.opts.padx ]
                else [])
             @
             if s.opts.pady > 0 then [ "pady"; string_of_int s.opts.pady ]
             else []
           in
           [ s.sw.Core.path; Tcl.Tcl_list.format flags ])
         !cell)

(* ------------------------------------------------------------------ *)
(* The Tcl command *)

(* Modern-style arguments as a convenience: pack .w -side left -expand 1. *)
let parse_modern app path rest =
  let w = Core.lookup_exn app path in
  let rec go opts = function
    | [] -> (w, opts)
    | "-side" :: v :: rest ->
      let side =
        match v with
        | "top" -> Top
        | "bottom" -> Bottom
        | "left" -> Left
        | "right" -> Right
        | _ -> failf "bad side \"%s\"" v
      in
      go { opts with side } rest
    | "-fill" :: v :: rest -> (
      match v with
      | "x" -> go { opts with fill_x = true } rest
      | "y" -> go { opts with fill_y = true } rest
      | "both" -> go { opts with fill_x = true; fill_y = true } rest
      | "none" -> go { opts with fill_x = false; fill_y = false } rest
      | _ -> failf "bad fill style \"%s\"" v)
    | "-expand" :: v :: rest ->
      go { opts with expand = (v <> "0" && v <> "false" && v <> "no") } rest
    | "-padx" :: v :: rest -> (
      match Core.parse_pixels v with
      | Some px -> go { opts with padx = px } rest
      | None -> failf "bad pad value \"%s\"" v)
    | "-pady" :: v :: rest -> (
      match Core.parse_pixels v with
      | Some px -> go { opts with pady = px } rest
      | None -> failf "bad pad value \"%s\"" v)
    | bad :: _ -> failf "bad option \"%s\"" bad
  in
  go default_opts rest

let command app state : Tcl.Interp.command =
 fun _interp words ->
  let ok = Tcl.Interp.ok in
  match words with
  | _ :: "append" :: master_path :: rest ->
    let master = Core.lookup_exn app master_path in
    let rec pairs = function
      | [] -> []
      | path :: opts :: rest ->
        (Core.lookup_exn app path, parse_opts opts) :: pairs rest
      | [ path ] -> [ (Core.lookup_exn app path, default_opts) ]
    in
    append state ~master (pairs rest);
    ok ""
  | _ :: "unpack" :: paths ->
    List.iter (fun p -> unpack state (Core.lookup_exn app p)) paths;
    ok ""
  | [ _; "info"; master_path ] ->
    ok (info state (Core.lookup_exn app master_path))
  | [ _; "slaves"; master_path ] ->
    ok
      (Tcl.Tcl_list.format
         (List.map
            (fun w -> w.Core.path)
            (slaves state (Core.lookup_exn app master_path))))
  | _ :: path :: rest when String.length path > 0 && path.[0] = '.' ->
    let w, opts = parse_modern app path rest in
    let master_path =
      match Path.parent w.Core.path with
      | Some p -> p
      | None -> failf "can't pack the main window"
    in
    append state ~master:(Core.lookup_exn app master_path) [ (w, opts) ];
    ok ""
  | _ -> raise Tcl.Interp.Usage

let pack_signature =
  Tcl.Interp.(
    signature "pack" 1
      ~usage:"pack append master window options ?window options ...?"
      ~subs:
        [
          subsig "append" 1;
          subsig "info" 1 ~max:1;
          subsig "slaves" 1 ~max:1;
          subsig "unpack" 0;
        ])

let install app =
  let state = { masters = Hashtbl.create 16; arranging = [] } in
  Tcl.Interp.register app.Core.interp pack_signature (command app state);
  (* Re-layout when a master is resized. *)
  app.Core.configure_hooks <-
    (fun w ->
      if
        Hashtbl.mem state.masters w.Core.path
        && not (List.mem w.Core.path state.arranging)
      then arrange state w)
    :: app.Core.configure_hooks
