let failf = Tcl.Interp.failf

type placement = {
  px : int option;
  py : int option;
  relx : float option;
  rely : float option;
  pwidth : int option;
  pheight : int option;
}

let empty =
  { px = None; py = None; relx = None; rely = None; pwidth = None; pheight = None }

(* Position one slave according to its placement and the master's size.
   [placements] (slave path -> placement) is one application's table, made
   by [install]; a slave's entry goes when it is destroyed
   ([gm_lost_slave]). *)
let arrange_slave placements w =
  match Hashtbl.find_opt placements w.Core.path with
  | None -> ()
  | Some p ->
    let master =
      match Path.parent w.Core.path with
      | Some mp -> Core.lookup w.Core.app mp
      | None -> None
    in
    let mw, mh =
      match master with
      | Some m -> (m.Core.width, m.Core.height)
      | None -> (w.Core.width, w.Core.height)
    in
    let x =
      match (p.px, p.relx) with
      | Some x, _ -> x
      | None, Some f -> int_of_float (f *. float_of_int mw)
      | None, None -> w.Core.x
    in
    let y =
      match (p.py, p.rely) with
      | Some y, _ -> y
      | None, Some f -> int_of_float (f *. float_of_int mh)
      | None, None -> w.Core.y
    in
    let width = Option.value p.pwidth ~default:w.Core.req_width in
    let height = Option.value p.pheight ~default:w.Core.req_height in
    Core.move_resize w ~x ~y ~width ~height;
    Core.map_widget w

let manager placements =
  {
    Core.gm_name = "place";
    gm_slave_request = (fun w -> arrange_slave placements w);
    gm_lost_slave = (fun w -> Hashtbl.remove placements w.Core.path);
  }

let rec parse_options p = function
  | [] -> p
  | "-x" :: v :: rest -> (
    match Core.parse_pixels v with
    | Some x -> parse_options { p with px = Some x } rest
    | None -> failf "bad screen distance \"%s\"" v)
  | "-y" :: v :: rest -> (
    match Core.parse_pixels v with
    | Some y -> parse_options { p with py = Some y } rest
    | None -> failf "bad screen distance \"%s\"" v)
  | "-relx" :: v :: rest -> (
    match float_of_string_opt v with
    | Some f -> parse_options { p with relx = Some f } rest
    | None -> failf "expected floating-point number but got \"%s\"" v)
  | "-rely" :: v :: rest -> (
    match float_of_string_opt v with
    | Some f -> parse_options { p with rely = Some f } rest
    | None -> failf "expected floating-point number but got \"%s\"" v)
  | "-width" :: v :: rest -> (
    match Core.parse_pixels v with
    | Some x -> parse_options { p with pwidth = Some x } rest
    | None -> failf "bad screen distance \"%s\"" v)
  | "-height" :: v :: rest -> (
    match Core.parse_pixels v with
    | Some x -> parse_options { p with pheight = Some x } rest
    | None -> failf "bad screen distance \"%s\"" v)
  | bad :: _ -> failf "unknown place option \"%s\"" bad

let command app placements : Tcl.Interp.command =
 fun _interp words ->
  match words with
  | [ _; "forget"; path ] ->
    (match Core.lookup app path with
    | Some w ->
      Hashtbl.remove placements path;
      if
        match w.Core.geom_mgr with
        | Some m -> m.Core.gm_name = "place"
        | None -> false
      then begin
        w.Core.geom_mgr <- None;
        Core.unmap_widget w
      end
    | None -> ());
    Tcl.Interp.ok ""
  | [ _; "info"; path ] ->
    ignore (Core.lookup_exn app path);
    Tcl.Interp.ok
      (match Hashtbl.find_opt placements path with
      | None -> ""
      | Some p ->
        String.concat " "
          (List.filter
             (fun s -> s <> "")
             [
               (match p.px with Some x -> Printf.sprintf "-x %d" x | None -> "");
               (match p.py with Some y -> Printf.sprintf "-y %d" y | None -> "");
               (match p.relx with
               | Some f -> Printf.sprintf "-relx %g" f
               | None -> "");
               (match p.rely with
               | Some f -> Printf.sprintf "-rely %g" f
               | None -> "");
             ]))
  | _ :: path :: options when String.length path > 0 && path.[0] = '.' ->
    let w = Core.lookup_exn app path in
    let existing =
      Option.value (Hashtbl.find_opt placements path) ~default:empty
    in
    let p = parse_options existing options in
    (match w.Core.geom_mgr with
    | Some m when m.Core.gm_name <> "place" -> m.Core.gm_lost_slave w
    | _ -> ());
    w.Core.geom_mgr <- Some (manager placements);
    Hashtbl.replace placements path p;
    arrange_slave placements w;
    Tcl.Interp.ok ""
  | _ -> raise Tcl.Interp.Usage

let place_signature =
  Tcl.Interp.(
    signature "place" 1 ~usage:"place window ?options? | place forget window"
      ~subs:[ subsig "forget" 1 ~max:1; subsig "info" 1 ~max:1 ])

let install app =
  let placements = Hashtbl.create 8 in
  Tcl.Interp.register app.Core.interp place_signature (command app placements);
  (* Re-place slaves when masters resize. *)
  app.Core.configure_hooks <-
    (fun master ->
      Hashtbl.iter
        (fun path _ ->
          match Core.lookup app path with
          | Some w when Path.parent path = Some master.Core.path ->
            arrange_slave placements w
          | Some _ | None -> ())
        placements)
    :: app.Core.configure_hooks
