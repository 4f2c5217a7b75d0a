open Xsim

let failf = Tcl.Interp.failf

(* ------------------------------------------------------------------ *)
(* Option specs *)

type option_type =
  | Ot_string
  | Ot_int
  | Ot_pixels
  | Ot_color
  | Ot_font
  | Ot_cursor
  | Ot_bitmap
  | Ot_relief
  | Ot_boolean
  | Ot_anchor

type spec = {
  switch : string;
  db_name : string;
  db_class : string;
  default : string;
  otype : option_type;
}

let spec ~switch ~db ~cls ~default otype =
  { switch; db_name = db; db_class = cls; default; otype }

type relief = Raised | Sunken | Flat

type anchor = N | NE | E | SE | S | SW | W | NW | Center

(* Screen distances at the simulated 75 dpi. *)
let parse_pixels s =
  let s = String.trim s in
  if s = "" then None
  else
    let n = String.length s in
    let last = s.[n - 1] in
    let numeric, scale =
      match last with
      | 'c' -> (String.sub s 0 (n - 1), 75.0 /. 2.54)
      | 'm' -> (String.sub s 0 (n - 1), 75.0 /. 25.4)
      | 'i' -> (String.sub s 0 (n - 1), 75.0)
      | 'p' -> (String.sub s 0 (n - 1), 75.0 /. 72.0)
      | _ -> (s, 1.0)
    in
    match float_of_string_opt (String.trim numeric) with
    | Some f -> Some (int_of_float (Float.round (f *. scale)))
    | None -> None

(* ------------------------------------------------------------------ *)
(* Core types *)

type wdata = ..

type wdata += No_data

type widget = {
  path : string;
  wclass : wclass;
  win : Xid.t;
  app : app;
  config : (string, string) Hashtbl.t;
  mutable destroyed : bool;
  mutable x : int;
  mutable y : int;
  mutable width : int;
  mutable height : int;
  mutable mapped : bool;
  mutable req_width : int;
  mutable req_height : int;
  mutable geom_mgr : geom_mgr option;
  mutable redraw_pending : bool;
  mutable damage : Geom.rect list;
  mutable data : wdata;
  mutable last_click : (int * int * int) option;
  mutable press_history : (Event.t * int) list;
}

and wclass = {
  cname : string;
  specs : spec list;
  subs : Tcl.Interp.sub_sig list;
      (* subcommands beyond configure/cget: the widget command's usage
         errors and the creating command's lint signature read it *)
  mutable configure_hook : widget -> unit;
  mutable display : widget -> unit;
  mutable display_damaged : (widget -> Geom.rect -> unit) option;
  mutable handle_event : widget -> Event.t -> unit;
  mutable subcommands : widget -> string list -> Tcl.Interp.result;
  mutable cleanup : widget -> unit;
}

and geom_mgr = {
  gm_name : string;
  gm_slave_request : widget -> unit;
  gm_lost_slave : widget -> unit;
}

and app = {
  mutable app_name : string;
  app_class : string;
  interp : Tcl.Interp.t;
  conn : Server.connection;
  server : Server.t;
  widgets : (string, widget) Hashtbl.t;
  by_xid : (Xid.t, widget) Hashtbl.t;
  cache : Rescache.t;
  options : Optiondb.t;
  bindings : (string, binding list ref) Hashtbl.t;
  disp : Dispatch.t;
  metrics : Metrics.t;
  mutable focus_path : string option;
  comm_win : Xid.t;
  mutable send_serial : int;
  mutable title : string;
  mutable app_destroyed : bool;
  mutable error_handler : string -> unit;
  mutable configure_hooks : (widget -> unit) list;
  mutable pre_handlers : (app -> Event.delivery -> bool) list;
  mutable drain_hooks : (unit -> int) list;
  mutable grab_path : string option;
  sel : sel_state;
  send : send_state;
}

and binding = {
  bseq : Bindpattern.pattern list;
  bkey : string;
  bscript : string;
}

and sel_state = {
  mutable sel_owner_path : string option;
  mutable sel_provider : (unit -> string) option;
  mutable sel_tcl_handler : string option;
  mutable sel_pending : string option option;
  sel_handlers : (string, string) Hashtbl.t; (* [selection handle] scripts *)
}

and send_request = {
  sq_serial : string;
  sq_sender : Xid.t;
  sq_mode : string; (* "call" (reply wanted) or "async" *)
  sq_script : string;
}

and send_future = {
  ft_target : string;
  ft_comm : Xid.t;
  ft_serial : string;
  ft_deadline : int; (* ms on the sender's dispatcher clock *)
  ft_timeout_ms : int; (* the deadline's span, for the timeout message *)
  (* None while pending; Some (state, value) with state one of
     ok/error/died/timeout/overflow/denied/limited once resolved. *)
  mutable ft_state : (string * string) option;
}

and send_state = {
  mailbox : send_request Queue.t;
  mutable mailbox_limit : int;
  mutable self_fast_path : bool;
  futures : (string, send_future) Hashtbl.t;
  mutable future_serial : int;
  mutable send_rng : int; (* deterministic backoff-jitter state *)
  (* Guarded evaluation of incoming scripts (Sendcmd.eval_remote). *)
  mutable guard_mode : guard_mode;
  mutable guard_time_ms : int; (* 0 = no time limit *)
  mutable guard_cmds : int; (* 0 = no command budget *)
  mutable draining : bool; (* a guarded request is evaluating *)
  mutable guard_interp : Tcl.Interp.t option; (* lazy Guard_safe slave *)
}

and guard_mode =
  | Guard_off  (** main interpreter, no limits (backward compatible) *)
  | Guard_limits  (** main interpreter, limits armed per request *)
  | Guard_safe  (** a [-safe] slave interpreter, limits armed *)

(* ------------------------------------------------------------------ *)
(* Local application registry (in-process "display clients"), kept in
   the server's client slot so it dies with the display. *)

type display_clients = {
  mutable dc_apps : app list;
  dc_by_comm : (Xid.t, app) Hashtbl.t;
}

type Server.clients += Display_clients of display_clients

let clients_for server =
  match Server.clients server with
  | Display_clients dc -> dc
  | _ ->
    let dc = { dc_apps = []; dc_by_comm = Hashtbl.create 64 } in
    Server.set_clients server (Display_clients dc);
    dc

let local_apps server = (clients_for server).dc_apps

let app_of_comm server comm =
  Hashtbl.find_opt (clients_for server).dc_by_comm comm

(* The display registry is sharded over a fixed set of root-window
   properties keyed by a hash of the application name, so a single-name
   lookup reads one shard (O(1) at 1000 registered interps) instead of
   scanning one monolithic property. *)
let registry_shards = 32

let registry_shard_property k = Printf.sprintf "TK_REGISTRY_S%02d" k

let shard_of_name name =
  (* FNV-1a, masked to stay in positive fixnum range: deterministic
     across runs and architectures. *)
  let h = ref 0x811c9dc5 in
  String.iter
    (fun c -> h := (!h lxor Char.code c) * 0x01000193 land 0x3FFFFFFF)
    name;
  !h mod registry_shards

(* ------------------------------------------------------------------ *)
(* Graceful degradation *)

(* Run [f], absorbing any X protocol error: the error is recorded against
   the server's fault counters and the operation degrades to [default].
   This is what makes widget operations on dead windows no-ops and lets
   the intrinsics ride out injected faults (ROADMAP: robustness). *)
let absorb app ~default f =
  try f ()
  with Xerror.X_error e ->
    Server.note_absorbed app.server e;
    default

(* Last-resort net: an X error escaping a Tcl command procedure becomes a
   script error ("X protocol error: BadWindow ..."), not a crash. *)
let () =
  Tcl.Interp.add_exn_translator (function
    | Xerror.X_error e -> Some (Xerror.describe e)
    | _ -> None)

(* ------------------------------------------------------------------ *)
(* Display registry (paper §6): name -> communication window, sharded *)

(* A registry entry is live iff its communication window still exists: a
   crashed peer's windows were reaped by the server, so its entry is a
   ghost. Every accessor prunes ghosts, so [winfo interps] never lists a
   dead interpreter and stale entries don't linger until a send to them
   happens to fail. *)
let registry_entry_live app (_, xid) =
  match Server.lookup_window app.server xid with
  | Some w -> not w.Window.destroyed
  | None -> false

let parse_registry_entries data =
  match Tcl.Tcl_list.parse data with
  | Error _ -> []
  | Ok entries ->
    List.filter_map
      (fun e ->
        match Tcl.Tcl_list.parse e with
        | Ok [ name; xid ] ->
          Option.map (fun id -> (name, id)) (int_of_string_opt xid)
        | _ -> None)
      entries

let write_registry_shard app k entries =
  let entries = List.filter (registry_entry_live app) entries in
  absorb app ~default:() @@ fun () ->
  let root = Server.root app.server in
  let prop = Server.intern_atom app.conn (registry_shard_property k) in
  Server.change_property app.conn root ~prop ~ptype:Atom.string
    (Tcl.Tcl_list.format
       (List.map
          (fun (name, xid) -> Tcl.Tcl_list.format [ name; string_of_int xid ])
          entries))

(* One shard's entries as stored, ghosts included. *)
let raw_shard app k =
  absorb app ~default:[] @@ fun () ->
  let root = Server.root app.server in
  let prop = Server.intern_atom app.conn (registry_shard_property k) in
  match Server.get_property app.conn root ~prop with
  | None -> []
  | Some p -> parse_registry_entries p.Window.prop_data

let read_registry_shard app k =
  let entries = raw_shard app k in
  let live = List.filter (registry_entry_live app) entries in
  (* Garbage-collect: rewrite the shard without the ghosts. *)
  let ghosts = List.length entries - List.length live in
  if ghosts > 0 then begin
    app.metrics.Metrics.ghosts_collected <-
      app.metrics.Metrics.ghosts_collected + ghosts;
    write_registry_shard app k live
  end;
  live

let lookup_registry app name =
  List.assoc_opt name (read_registry_shard app (shard_of_name name))

(* The send hot path: one shard read, no liveness pings — O(1) requests
   per lookup regardless of fleet size.  The entry may be stale (the peer
   crashed without cleanup); callers find that out when posting to the
   dead window fails, then fall back to the pinging {!lookup_registry}
   which garbage-collects the ghost. *)
let lookup_registry_raw app name =
  List.assoc_opt name (raw_shard app (shard_of_name name))

let read_registry app =
  let rec shards k acc =
    if k >= registry_shards then acc
    else shards (k + 1) (acc @ read_registry_shard app k)
  in
  (* Sorted-stable: the aggregate order is by name, independent of shard
     layout and registration order. *)
  List.sort (fun (a, _) (b, _) -> String.compare a b) (shards 0 [])

let write_registry app entries =
  let buckets = Array.make registry_shards [] in
  List.iter
    (fun (name, xid) ->
      let k = shard_of_name name in
      buckets.(k) <- buckets.(k) @ [ (name, xid) ])
    entries;
  Array.iteri (fun k bucket -> write_registry_shard app k bucket) buckets

let register_name app ~name ~comm =
  (* Make the name unique on the display, probing only the candidate's
     own shard each time (O(1) per probe). *)
  let taken candidate = lookup_registry app candidate <> None in
  let unique =
    if not (taken name) then name
    else
      let rec try_n n =
        let candidate = Printf.sprintf "%s #%d" name n in
        if taken candidate then try_n (n + 1) else candidate
      in
      try_n 2
  in
  let k = shard_of_name unique in
  write_registry_shard app k (read_registry_shard app k @ [ (unique, comm) ]);
  unique

(* ------------------------------------------------------------------ *)
(* Widget lookup *)

let lookup app path = Hashtbl.find_opt app.widgets path

let lookup_exn app path =
  match lookup app path with
  | Some w when not w.destroyed -> w
  | Some _ | None -> failf "bad window path name \"%s\"" path

let main_widget app = lookup_exn app "."

let children w =
  Hashtbl.fold
    (fun path child acc ->
      if Path.parent path = Some w.path then child :: acc else acc)
    w.app.widgets []
  |> List.sort (fun a b -> String.compare a.path b.path)

(* ------------------------------------------------------------------ *)
(* Configuration machinery *)

let find_spec w switch =
  let specs = w.wclass.specs in
  match List.find_opt (fun s -> s.switch = switch) specs with
  | Some s -> s
  | None -> (
    (* Unique abbreviations are accepted, as in Tk. *)
    let is_prefix p s =
      String.length p <= String.length s
      && String.sub s 0 (String.length p) = p
    in
    match List.filter (fun s -> is_prefix switch s.switch) specs with
    | [ s ] -> s
    | [] -> failf "unknown option \"%s\"" switch
    | _ -> failf "ambiguous option \"%s\"" switch)

let validate w spec value =
  match spec.otype with
  | Ot_string -> ()
  | Ot_int ->
    if int_of_string_opt (String.trim value) = None then
      failf "expected integer but got \"%s\"" value
  | Ot_pixels ->
    if parse_pixels value = None then
      failf "bad screen distance \"%s\"" value
  | Ot_color ->
    if Rescache.color w.app.cache value = None then
      failf "unknown color name \"%s\"" value
  | Ot_font ->
    if Rescache.font w.app.cache value = None then
      failf "font \"%s\" doesn't exist" value
  | Ot_cursor ->
    if value <> "" && Rescache.cursor w.app.cache value = None then
      failf "bad cursor spec \"%s\"" value
  | Ot_bitmap ->
    if value <> "" && Rescache.bitmap w.app.cache value = None then
      failf "bitmap \"%s\" not defined" value
  | Ot_relief -> (
    match value with
    | "raised" | "sunken" | "flat" -> ()
    | _ -> failf "bad relief type \"%s\": must be raised, sunken or flat" value)
  | Ot_boolean -> (
    match String.lowercase_ascii value with
    | "0" | "1" | "true" | "false" | "yes" | "no" | "on" | "off" -> ()
    | _ -> failf "expected boolean value but got \"%s\"" value)
  | Ot_anchor -> (
    match value with
    | "n" | "ne" | "e" | "se" | "s" | "sw" | "w" | "nw" | "center" -> ()
    | _ ->
      failf
        "bad anchor position \"%s\": must be n, ne, e, se, s, sw, w, nw, or \
         center"
        value)

let set_option w spec value =
  validate w spec value;
  Hashtbl.replace w.config spec.switch value

let configure w pairs =
  let rec go = function
    | [] -> ()
    | switch :: value :: rest ->
      set_option w (find_spec w switch) value;
      go rest
    | [ switch ] -> failf "value for \"%s\" missing" switch
  in
  go pairs;
  w.wclass.configure_hook w

let cget w switch =
  let spec = find_spec w switch in
  match Hashtbl.find_opt w.config spec.switch with
  | Some v -> v
  | None -> spec.default

(* The (name, class) chain used for option-database lookups: the
   application, then every window from the top down. *)
let name_chain w =
  let rec prefixes acc path =
    match Path.parent path with
    | None -> acc
    | Some parent -> prefixes (path :: acc) parent
  in
  let paths = prefixes [] w.path in
  (w.app.app_name, w.app.app_class)
  :: List.filter_map
       (fun path ->
         Option.map
           (fun widget -> (Path.basename path, widget.wclass.cname))
           (lookup w.app path))
       paths

let configure_info w switch =
  let one spec =
    let current =
      match Hashtbl.find_opt w.config spec.switch with
      | Some v -> v
      | None -> spec.default
    in
    Tcl.Tcl_list.format
      [ spec.switch; spec.db_name; spec.db_class; spec.default; current ]
  in
  match switch with
  | Some s -> one (find_spec w s)
  | None ->
    Tcl.Tcl_list.format (List.map one w.wclass.specs)

(* Typed accessors. Values were validated at configure time, so failures
   here indicate a missing default in a widget's spec table. *)
let get_string w switch = cget w switch

let get_int w switch =
  match int_of_string_opt (String.trim (cget w switch)) with
  | Some i -> i
  | None -> failf "option %s of %s is not an integer" switch w.path

let get_pixels w switch =
  match parse_pixels (cget w switch) with
  | Some px -> px
  | None -> failf "option %s of %s is not a screen distance" switch w.path

let get_boolean w switch =
  match String.lowercase_ascii (cget w switch) with
  | "1" | "true" | "yes" | "on" -> true
  | _ -> false

let get_relief w switch =
  match cget w switch with
  | "raised" -> Raised
  | "sunken" -> Sunken
  | _ -> Flat

let get_anchor w switch =
  match cget w switch with
  | "n" -> N
  | "ne" -> NE
  | "e" -> E
  | "se" -> SE
  | "s" -> S
  | "sw" -> SW
  | "w" -> W
  | "nw" -> NW
  | _ -> Center

let get_color w switch =
  match Rescache.color w.app.cache (cget w switch) with
  | Some c -> c
  | None -> Color.black

let get_font w switch =
  match Rescache.font w.app.cache (cget w switch) with
  | Some f -> f
  | None -> Font.fallback ()

let resolve_option_or_literal w name =
  if String.length name > 0 && name.[0] = '-' then cget w name else name

let widget_gc w ~fg ?font () =
  let fg = resolve_option_or_literal w fg in
  let font = Option.map (resolve_option_or_literal w) font in
  Rescache.gc w.app.cache ~foreground:fg ?font ()

(* ------------------------------------------------------------------ *)
(* Class helpers *)

let make_class ?(subs = []) ~name ~specs () =
  {
    cname = name;
    specs;
    subs;
    configure_hook = (fun _ -> ());
    display = (fun _ -> ());
    display_damaged = None;
    handle_event = (fun _ _ -> ());
    subcommands = (fun _ _ -> raise Tcl.Interp.Usage);
    cleanup = (fun _ -> ());
  }

(* ------------------------------------------------------------------ *)
(* Geometry plumbing *)

(* When pending damage covers this fraction of the widget (percent), the
   sweep deopts to a full clear + redraw: clipping bookkeeping stops
   paying for itself once most of the window is dirty anyway. *)
let damage_deopt_percent = 60

(* Pending damage is kept as a handful of disjoint-ish rects rather than
   one bounding union: a frame that dirties a status line top-left and a
   cursor bottom-right would otherwise union into most of the window and
   deopt every sweep. *)
let max_damage_rects = 4

let arm_repaint w =
  let m = w.app.metrics in
  w.redraw_pending <- true;
  m.Metrics.redraws_scheduled <- m.Metrics.redraws_scheduled + 1;
  Dispatch.when_idle w.app.disp (fun () ->
      w.redraw_pending <- false;
      let damage = w.damage in
      w.damage <- [];
      (* Re-check at sweep time: the widget may have been destroyed
         after this redraw was scheduled; drawing into its (possibly
         recycled) window would be wrong. *)
      if w.destroyed then
        m.Metrics.redraws_skipped_dead <- m.Metrics.redraws_skipped_dead + 1
      else if w.mapped then begin
        m.Metrics.redraws_drawn <- m.Metrics.redraws_drawn + 1;
        let partial =
          (* A partial repaint needs a class that understands clips; and
             once damage swamps the window, full redraw is cheaper. *)
          match (damage, w.wclass.display_damaged) with
          | [], _ -> None
          | _ :: _, None ->
            m.Metrics.damage_deopt_full <- m.Metrics.damage_deopt_full + 1;
            None
          | rects, Some repaint ->
            let wrect =
              Geom.rect ~x:0 ~y:0 ~width:w.width ~height:w.height
            in
            let total =
              List.fold_left
                (fun acc r ->
                  match Geom.intersect r wrect with
                  | Some v -> acc + Geom.area v
                  | None -> acc)
                0 rects
            in
            if total * 100 >= Geom.area wrect * damage_deopt_percent then begin
              m.Metrics.damage_deopt_full <- m.Metrics.damage_deopt_full + 1;
              None
            end
            else
              (* The class gets the damage unclipped: an edit outside the
                 window still leaves retained ops to replace or drop
                 there.  Only the threshold is about what shows. *)
              Some (repaint, rects)
        in
        (* A rejected request mid-repaint leaves the window partially
           drawn until the next Expose — but the application lives on. *)
        absorb w.app ~default:() (fun () ->
            match partial with
            | Some (repaint, clips) ->
              m.Metrics.damage_drawn <- m.Metrics.damage_drawn + 1;
              List.iter (fun clip -> repaint w clip) clips
            | None ->
              Server.clear_window w.app.conn w.win;
              w.wclass.display w)
      end)

let schedule_redraw w =
  let m = w.app.metrics in
  if w.redraw_pending then begin
    (* Idle-time redisplay (paper §3.2): this repaint rides the one
       already scheduled. The collapsed count is the traffic saved. *)
    m.Metrics.redraws_collapsed <- m.Metrics.redraws_collapsed + 1;
    (* A full redraw subsumes any pending partial damage. *)
    if w.damage <> [] then begin
      w.damage <- [];
      m.Metrics.damage_deopt_full <- m.Metrics.damage_deopt_full + 1
    end
  end
  else if not w.destroyed then arm_repaint w

let schedule_damage w rect =
  if not (Geom.is_empty rect) then begin
    let m = w.app.metrics in
    if w.redraw_pending then begin
      m.Metrics.redraws_collapsed <- m.Metrics.redraws_collapsed + 1;
      match w.damage with
      | [] ->
        (* A full redraw is already pending; it covers this damage. *)
        ()
      | rects ->
        (* Coalesce: merge into whichever pending rect grows the least,
           or keep the rect separate while there is room and merging
           would cost more area than it saves. Precision lost to a union
           is at worst extra clean items considered, never missed dirt. *)
        m.Metrics.damage_coalesced <- m.Metrics.damage_coalesced + 1;
        let grow r = Geom.area (Geom.union r rect) - Geom.area r in
        let best =
          List.fold_left
            (fun best r ->
              match best with
              | Some (c, _) when c <= grow r -> best
              | _ -> Some (grow r, r))
            None rects
        in
        (match best with
        | Some (cost, target)
          when List.length rects >= max_damage_rects
               || cost <= Geom.area rect ->
          w.damage <-
            List.map (fun r -> if r == target then Geom.union r rect else r) rects
        | _ -> w.damage <- rect :: rects)
    end
    else if not w.destroyed then begin
      w.damage <- [ rect ];
      m.Metrics.damage_scheduled <- m.Metrics.damage_scheduled + 1;
      arm_repaint w
    end
  end

let move_resize w ~x ~y ~width ~height =
  if
    (not w.destroyed)
    && (x <> w.x || y <> w.y || width <> w.width || height <> w.height)
  then begin
    absorb w.app ~default:() (fun () ->
        Server.configure_window w.app.conn ~x ~y ~width ~height w.win);
    (* Structure cache: mirror the change without waiting for the
       ConfigureNotify round trip. *)
    w.x <- x;
    w.y <- y;
    let resized = width <> w.width || height <> w.height in
    w.width <- width;
    w.height <- height;
    if resized then schedule_redraw w
  end

let request_size w ~width ~height =
  let width = max 1 width and height = max 1 height in
  if width <> w.req_width || height <> w.req_height then begin
    w.req_width <- width;
    w.req_height <- height;
    match w.geom_mgr with
    | Some mgr -> mgr.gm_slave_request w
    | None ->
      (* The main window negotiates with the window manager; our simulated
         WM always grants the request. *)
      if w.path = "." then
        move_resize w ~x:w.x ~y:w.y ~width ~height
  end

let map_widget w =
  if (not w.mapped) && not w.destroyed then begin
    absorb w.app ~default:() (fun () -> Server.map_window w.app.conn w.win);
    w.mapped <- true;
    schedule_redraw w
  end

let unmap_widget w =
  if w.mapped && not w.destroyed then begin
    absorb w.app ~default:() (fun () -> Server.unmap_window w.app.conn w.win);
    w.mapped <- false
  end

(* ------------------------------------------------------------------ *)
(* Bindings *)

let bindings_for app path =
  match Hashtbl.find_opt app.bindings path with
  | Some l -> !l
  | None -> []

let bind_widget app ~path ~sequence ~script =
  match Bindpattern.parse_sequence sequence with
  | Error msg -> failf "%s" msg
  | Ok bseq ->
    let bkey = Bindpattern.canonical bseq in
    let cell =
      match Hashtbl.find_opt app.bindings path with
      | Some l -> l
      | None ->
        let l = ref [] in
        Hashtbl.replace app.bindings path l;
        l
    in
    cell := List.filter (fun b -> b.bkey <> bkey) !cell;
    if script <> "" then cell := { bseq; bkey; bscript = script } :: !cell

let binding_script app ~path ~sequence =
  match Bindpattern.parse_sequence sequence with
  | Error msg -> failf "%s" msg
  | Ok bseq ->
    let bkey = Bindpattern.canonical bseq in
    List.find_map
      (fun b -> if b.bkey = bkey then Some b.bscript else None)
      (bindings_for app path)

let bound_sequences app ~path =
  List.map (fun b -> b.bkey) (bindings_for app path)

(* Figure 7: %-substitution of event fields into binding scripts. *)
let percent_substitute script w (event : Event.t) ~time =
  let coords =
    match event with
    | Event.Key_press k | Event.Key_release k -> Some (k.Event.kx, k.Event.ky)
    | Event.Button_press b | Event.Button_release b ->
      Some (b.Event.bx, b.Event.by)
    | Event.Motion m -> Some (m.Event.mx, m.Event.my)
    | Event.Configure_notify c -> Some (c.Event.cx, c.Event.cy)
    | Event.Expose e -> Some (e.Event.ex, e.Event.ey)
    | _ -> None
  in
  let dims =
    match event with
    | Event.Configure_notify c -> Some (c.Event.cwidth, c.Event.cheight)
    | Event.Expose e -> Some (e.Event.ewidth, e.Event.eheight)
    | _ -> None
  in
  let state =
    match event with
    | Event.Key_press k | Event.Key_release k -> Some k.Event.key_state
    | Event.Button_press b | Event.Button_release b ->
      Some b.Event.button_state
    | Event.Motion m -> Some m.Event.motion_state
    | Event.Enter c | Event.Leave c -> Some c.Event.crossing_state
    | _ -> None
  in
  let state_mask =
    match state with
    | None -> 0
    | Some s ->
      (if s.Event.shift then 1 else 0)
      lor (if s.Event.lock then 2 else 0)
      lor (if s.Event.control then 4 else 0)
      lor (if s.Event.meta then 8 else 0)
      lor (if s.Event.alt then 16 else 0)
      lor (if s.Event.button1 then 256 else 0)
      lor (if s.Event.button2 then 512 else 0)
      lor if s.Event.button3 then 1024 else 0
  in
  let rec root_x widget acc =
    match Path.parent widget.path with
    | None -> acc + widget.x
    | Some p -> (
      match lookup widget.app p with
      | Some parent -> root_x parent (acc + widget.x)
      | None -> acc + widget.x)
  in
  let rec root_y widget acc =
    match Path.parent widget.path with
    | None -> acc + widget.y
    | Some p -> (
      match lookup widget.app p with
      | Some parent -> root_y parent (acc + widget.y)
      | None -> acc + widget.y)
  in
  let expand c =
    match c with
    | '%' -> "%"
    | 'W' -> w.path
    | 'T' -> Event.name event
    | 't' -> string_of_int time
    | 'x' -> ( match coords with Some (x, _) -> string_of_int x | None -> "??")
    | 'y' -> ( match coords with Some (_, y) -> string_of_int y | None -> "??")
    | 'X' -> (
      match coords with
      | Some (x, _) -> string_of_int (root_x w 0 + x)
      | None -> "??")
    | 'Y' -> (
      match coords with
      | Some (_, y) -> string_of_int (root_y w 0 + y)
      | None -> "??")
    | 'w' -> ( match dims with Some (dw, _) -> string_of_int dw | None -> "??")
    | 'h' -> ( match dims with Some (_, dh) -> string_of_int dh | None -> "??")
    | 'b' -> (
      match event with
      | Event.Button_press b | Event.Button_release b ->
        string_of_int b.Event.button
      | _ -> "??")
    | 'K' -> (
      match event with
      | Event.Key_press k | Event.Key_release k -> k.Event.keysym
      | _ -> "??")
    | 'A' -> (
      match event with
      | Event.Key_press k | Event.Key_release k -> (
        match Event.char_of_keysym k.Event.keysym with
        | Some c -> String.make 1 c
        | None -> "")
      | _ -> "")
    | 's' -> string_of_int state_mask
    | c -> "%" ^ String.make 1 c
  in
  let buf = Buffer.create (String.length script + 16) in
  let n = String.length script in
  let i = ref 0 in
  while !i < n do
    if script.[!i] = '%' && !i + 1 < n then begin
      Buffer.add_string buf (expand script.[!i + 1]);
      i := !i + 2
    end
    else begin
      Buffer.add_char buf script.[!i];
      incr i
    end
  done;
  Buffer.contents buf

(* Callbacks (bindings, -command scripts, timers) always run at global
   scope, as in real Tk — even when the event loop is being pumped from
   inside a procedure (tkwait). *)
let eval_callback app ?(context = "command") script =
  match
    Tcl.Interp.with_level app.interp 0 (fun () ->
        Tcl.Interp.eval app.interp script)
  with
  | Tcl.Interp.Tcl_error, msg ->
    app.error_handler (Printf.sprintf "error in %s: %s" context msg)
  | _ -> ()

(* Find and run the most specific binding matching this event. *)
let run_bindings app w event ~click_count ~time =
  let candidates = bindings_for app w.path in
  let matches b =
    match b.bseq with
    | [ p ] -> Bindpattern.matches p event ~click_count
    | seq ->
      Bindpattern.is_press event
      &&
      let k = List.length seq in
      let history = w.press_history in
      List.length history >= k
      &&
      let recent = List.filteri (fun i _ -> i < k) history in
      (* [recent] is newest-first; patterns are oldest-first. *)
      List.for_all2
        (fun pattern (ev, cc) -> Bindpattern.matches pattern ev ~click_count:cc)
        seq (List.rev recent)
  in
  let best =
    List.fold_left
      (fun best b ->
        if not (matches b) then best
        else
          let score = Bindpattern.specificity b.bseq in
          match best with
          | Some (bs, _) when bs >= score -> best
          | _ -> Some (score, b))
      None candidates
  in
  match best with
  | None -> ()
  | Some (_, b) ->
    app.metrics.Metrics.binding_dispatches <-
      app.metrics.Metrics.binding_dispatches + 1;
    let script = percent_substitute b.bscript w event ~time in
    eval_callback app ~context:(Printf.sprintf "binding for %s" w.path) script

(* ------------------------------------------------------------------ *)
(* Widget creation / destruction *)

(* A call the class rejects gets its message from the class's table. *)
let widget_command w : Tcl.Interp.command =
 fun _interp words ->
  if w.destroyed then failf "bad window path name \"%s\"" w.path
  else
    try
      match words with
      | _ :: "configure" :: rest -> (
        match rest with
        | [] -> Tcl.Interp.ok (configure_info w None)
        | [ switch ] -> Tcl.Interp.ok (configure_info w (Some switch))
        | pairs ->
          configure w pairs;
          Tcl.Interp.ok "")
      | [ _; "cget"; switch ] -> Tcl.Interp.ok (cget w switch)
      | words -> w.wclass.subcommands w words
    with Tcl.Interp.Usage ->
      let args = List.tl words in
      failf "%s"
        (Tcl.Interp.widget_message w.path
           (match Tcl.Interp.widget_misuse w.wclass.subs args with
           | Some why -> why
           | None -> Tcl.Interp.Count [ List.hd args ]))

let make_widget app ~path ?(data = No_data) wclass ~args =
  if not (Path.is_valid path) then failf "bad window path name \"%s\"" path;
  if Hashtbl.mem app.widgets path then
    failf "window name \"%s\" already exists" path;
  let parent_win =
    match Path.parent path with
    | None -> Server.root app.server (* the main window "." *)
    | Some parent_path -> (
      match lookup app parent_path with
      | Some parent -> parent.win
      | None -> failf "bad window path name \"%s\"" path)
  in
  let win =
    let create () =
      Server.create_window app.conn ~parent:parent_win ~x:0 ~y:0 ~width:1
        ~height:1 ~border_width:0
    in
    (* One retry: an injected fault advances the plan's tick, so the second
       attempt goes through. A second rejection is reported at the script
       level instead of unwinding the event loop. *)
    try create ()
    with Xerror.X_error e -> (
      Server.note_absorbed app.server e;
      try create ()
      with Xerror.X_error e2 ->
        Server.note_absorbed app.server e2;
        failf "couldn't create window for \"%s\": %s" path (Xerror.describe e2))
  in
  let w =
    {
      path;
      wclass;
      win;
      app;
      config = Hashtbl.create 16;
      destroyed = false;
      x = 0;
      y = 0;
      width = 1;
      height = 1;
      mapped = false;
      req_width = 1;
      req_height = 1;
      geom_mgr = None;
      redraw_pending = false;
      damage = [];
      data;
      last_click = None;
      press_history = [];
    }
  in
  Hashtbl.replace app.widgets path w;
  Hashtbl.replace app.by_xid win w;
  (* Initial configuration: command line beats the option database beats
     class defaults (paper §4). *)
  let explicit = Hashtbl.create 8 in
  let rec record = function
    | switch :: _ :: rest ->
      Hashtbl.replace explicit (find_spec w switch).switch ();
      record rest
    | _ -> ()
  in
  (try record args
   with e ->
     Hashtbl.remove app.widgets path;
     Hashtbl.remove app.by_xid win;
     absorb app ~default:() (fun () -> Server.destroy_window app.conn win);
     raise e);
  let chain = name_chain w in
  List.iter
    (fun spec ->
      if not (Hashtbl.mem explicit spec.switch) then
        match
          Optiondb.get app.options ~name_chain:chain ~name:spec.db_name
            ~cls:spec.db_class
        with
        | Some v -> ( try set_option w spec v with Tcl.Interp.Tcl_failure _ -> ())
        | None -> Hashtbl.replace w.config spec.switch spec.default)
    wclass.specs;
  (match
     ( (try
          configure w args;
          None
        with e -> Some e),
       () )
   with
  | Some e, () ->
    Hashtbl.remove app.widgets path;
    Hashtbl.remove app.by_xid win;
    absorb app ~default:() (fun () -> Server.destroy_window app.conn win);
    raise e
  | None, () -> ());
  Tcl.Interp.register app.interp
    (Tcl.Interp.signature path 1 ~usage:(path ^ " option ?arg arg ...?"))
    (widget_command w);
  w

(* Remove a widget from the application's tables without touching the
   server (used when the server told us the window is gone). *)
let forget_widget w =
  if not w.destroyed then begin
    w.destroyed <- true;
    w.wclass.cleanup w;
    (match w.geom_mgr with
    | Some mgr -> mgr.gm_lost_slave w
    | None -> ());
    w.geom_mgr <- None;
    Hashtbl.remove w.app.bindings w.path;
    ignore (Tcl.Interp.delete_command w.app.interp w.path);
    Hashtbl.remove w.app.widgets w.path;
    Hashtbl.remove w.app.by_xid w.win;
    if w.app.focus_path = Some w.path then w.app.focus_path <- None;
    Hashtbl.remove w.app.sel.sel_handlers w.path;
    if w.app.sel.sel_owner_path = Some w.path then begin
      w.app.sel.sel_owner_path <- None;
      w.app.sel.sel_provider <- None;
      w.app.sel.sel_tcl_handler <- None
    end
  end

let unregister_app app =
  let dc = clients_for app.server in
  dc.dc_apps <- List.filter (fun a -> a != app) dc.dc_apps;
  Hashtbl.remove dc.dc_by_comm app.comm_win;
  (* Remove our name from its registry shard. *)
  let k = shard_of_name app.app_name in
  write_registry_shard app k
    (List.filter
       (fun (name, _) -> name <> app.app_name)
       (read_registry_shard app k))

let destroy_app app =
  if not app.app_destroyed then begin
    app.app_destroyed <- true;
    let paths =
      Hashtbl.fold (fun path _ acc -> path :: acc) app.widgets []
      |> List.sort (fun a b -> compare (String.length b) (String.length a))
    in
    List.iter
      (fun path ->
        match lookup app path with
        | Some w -> forget_widget w
        | None -> ())
      paths;
    unregister_app app;
    Server.close app.conn
  end

let destroy_widget w =
  if not w.destroyed then
    if w.path = "." then destroy_app w.app
    else begin
      let app = w.app in
      let win = w.win in
      let doomed =
        Hashtbl.fold
          (fun path widget acc ->
            if Path.is_ancestor ~ancestor:w.path path then widget :: acc
            else acc)
          app.widgets []
        |> List.sort
             (fun a b -> compare (String.length b.path) (String.length a.path))
      in
      List.iter forget_widget doomed;
      (* If the server already destroyed the window (or a fault is
         injected) the widget is gone client-side regardless: no-op. *)
      absorb app ~default:() (fun () -> Server.destroy_window app.conn win)
    end

(* ------------------------------------------------------------------ *)
(* Event processing *)

let double_click_ms = 500

let set_focus app path =
  if app.focus_path <> path then begin
    app.focus_path <- path;
    (* Also move the server's input focus so keystrokes reach this
       application even when the pointer is elsewhere (the window manager
       grants the focus; we are our own WM). FocusIn/FocusOut events come
       back through the normal event stream. *)
    match path with
    | Some p -> (
      match lookup app p with
      | Some w when not w.destroyed ->
        absorb app ~default:() (fun () ->
            Server.set_input_focus app.conn w.win)
      | Some _ | None -> ())
    | None ->
      absorb app ~default:() (fun () ->
          Server.set_input_focus app.conn Xid.none)
  end

(* X errors escaping a class event handler are absorbed here so one dead
   window (or injected fault) cannot take the event loop down. *)
let process_one app (d : Event.delivery) =
  absorb app ~default:() @@ fun () ->
  if List.exists (fun h -> h app d) app.pre_handlers then ()
  else
    match Hashtbl.find_opt app.by_xid d.Event.window with
    | None -> ()
    | Some w ->
      (* An active grab confines pointer events to the grab subtree. *)
      let grabbed_out =
        match (app.grab_path, d.Event.event) with
        | ( Some grab,
            ( Event.Button_press _ | Event.Button_release _ | Event.Motion _
            | Event.Enter _ | Event.Leave _ ) ) ->
          not (Path.is_ancestor ~ancestor:grab w.path)
        | _ -> false
      in
      if w.destroyed || grabbed_out then ()
      else begin
        (* Structure cache maintenance. *)
        (match d.Event.event with
        | Event.Configure_notify c ->
          w.x <- c.Event.cx;
          w.y <- c.Event.cy;
          w.width <- c.Event.cwidth;
          w.height <- c.Event.cheight;
          List.iter (fun hook -> hook w) app.configure_hooks
        | Event.Map_notify -> w.mapped <- true
        | Event.Unmap_notify -> w.mapped <- false
        | Event.Expose _ -> schedule_redraw w
        | Event.Destroy_notify -> forget_widget w
        | _ -> ());
        if w.destroyed then ()
        else begin
          (* Keyboard focus: keystrokes are redirected to the focus window
             (paper §3.7). *)
          let target =
            match d.Event.event with
            | Event.Key_press _ | Event.Key_release _ -> (
              match app.focus_path with
              | Some fp -> (
                match lookup app fp with
                | Some fw when not fw.destroyed -> fw
                | Some _ | None -> w)
              | None -> w)
            | _ -> w
          in
          (* Multi-click counting for Double/Triple modifiers. *)
          let click_count =
            match d.Event.event with
            | Event.Button_press b ->
              let count =
                match target.last_click with
                | Some (btn, t0, n)
                  when btn = b.Event.button
                       && d.Event.time - t0 <= double_click_ms ->
                  n + 1
                | _ -> 1
              in
              target.last_click <- Some (b.Event.button, d.Event.time, count);
              count
            | _ -> 1
          in
          (if Bindpattern.is_press d.Event.event then
             let entry = (d.Event.event, click_count) in
             target.press_history <-
               entry :: List.filteri (fun i _ -> i < 7) target.press_history);
          target.wclass.handle_event target d.Event.event;
          if not target.destroyed then
            run_bindings app target d.Event.event ~click_count
              ~time:d.Event.time
        end
      end

let process_pending app =
  let count = ref 0 in
  let rec drain () =
    match Server.next_event app.conn with
    | Some d ->
      incr count;
      process_one app d;
      drain ()
    | None -> ()
  in
  drain ();
  !count

let update app =
  let rec go guard =
    if app.app_destroyed then ()
    else begin
      let n = process_pending app in
      (* Deferred work queued by protocol modules (the send mailbox):
         drained here, from the event loop, never re-entrantly from the
         middle of an X event handler. *)
      let drained =
        List.fold_left (fun acc drain -> acc + drain ()) 0 app.drain_hooks
      in
      let timers = Dispatch.run_due_timers app.disp in
      let idles = Dispatch.run_idle app.disp in
      if n + drained + timers + idles > 0 && guard > 0 then go (guard - 1)
    end
  in
  go 1000

let update_all server = List.iter update (local_apps server)

(* ------------------------------------------------------------------ *)
(* Metrics registry: every counter the stack keeps, in one flat list
   (the [xstat] command and the bench JSON emitter read this). *)

let metrics_snapshot app =
  let s = Server.stats app.conn in
  let d = Dispatch.counters app.disp in
  let ms f = Printf.sprintf "%.3f" f in
  [
    ("requests_total", string_of_int s.Server.total_requests);
    ("round_trips", string_of_int s.Server.round_trips);
    ("requests_resource", string_of_int s.Server.resource_allocs);
    ("requests_window", string_of_int s.Server.window_requests);
    ("requests_draw", string_of_int s.Server.draw_requests);
    ("requests_property", string_of_int s.Server.property_requests);
    ("rescache_hits", string_of_int (Rescache.hits app.cache));
    ("rescache_misses", string_of_int (Rescache.misses app.cache));
    ("rescache_fallbacks", string_of_int (Rescache.fallbacks app.cache));
  ]
  @ Metrics.to_list app.metrics
  @ Metrics.damage_to_list app.metrics
  @ Metrics.canvas_to_list app.metrics
  @ Metrics.send_to_list app.metrics
  @ [
      ("timers_fired", string_of_int d.Dispatch.timers_fired);
      ("idles_run", string_of_int d.Dispatch.idles_run);
      ("dispatch_sweeps", string_of_int d.Dispatch.sweeps);
      ("sweep_ms_total", ms d.Dispatch.sweep_ms_total);
      ("sweep_ms_last", ms d.Dispatch.sweep_ms_last);
      ("faults_injected", string_of_int (Server.faults_injected app.server));
      ("faults_absorbed", string_of_int (Server.faults_absorbed app.server));
      ("trace_records", string_of_int (Server.trace_length app.conn));
    ]
  @ List.map
      (fun (k, v) -> ("tcl.compile." ^ k, v))
      (Tcl.Interp.compile_stats app.interp)
  @ List.map
      (fun (k, v) -> ("tcl.vm." ^ k, v))
      (Tcl.Interp.vm_stats app.interp)
  @ List.map
      (fun (k, v) -> ("tcl.lint." ^ k, v))
      (Tcl.Interp.lint_stats app.interp)
  @ List.map
      (fun (k, v) -> ("tcl.limit." ^ k, v))
      (Tcl.Interp.limit_stats app.interp)
  @ List.map
      (fun (k, v) -> ("tcl.interp." ^ k, v))
      (Tcl.Interp.interp_stats app.interp)

let metric app name =
  List.assoc_opt name (metrics_snapshot app)

(* Server fault counters are display-global (other clients' absorption
   accounting rides on them), so a per-app reset leaves them alone. *)
let reset_metrics app =
  Server.reset_stats app.conn;
  Rescache.reset_counters app.cache;
  Metrics.reset app.metrics;
  Dispatch.reset_counters app.disp;
  Tcl.Interp.reset_compile_stats app.interp;
  Tcl.Interp.reset_vm_stats app.interp;
  Tcl.Interp.reset_lint_stats app.interp;
  Tcl.Interp.reset_guard_stats app.interp

let mainloop app =
  while not app.app_destroyed do
    update app;
    if not app.app_destroyed then begin
      let timeout =
        match Dispatch.next_deadline_ms app.disp with
        | Some ms -> float_of_int (min ms 50) /. 1000.0
        | None -> 0.05
      in
      (* The loop blocks here between events — no busy-spin when a timer
         is due in under a millisecond (next_deadline_ms rounds up) and no
         separate idle nap needed. *)
      Dispatch.poll_files app.disp ~timeout
    end
  done

(* ------------------------------------------------------------------ *)
(* Container (frame-like) class, shared by "." and the frame widget *)

let container_specs =
  [
    spec ~switch:"-background" ~db:"background" ~cls:"Background"
      ~default:"#cccccc" Ot_color;
    spec ~switch:"-bg" ~db:"background" ~cls:"Background" ~default:"#cccccc"
      Ot_color;
    spec ~switch:"-borderwidth" ~db:"borderWidth" ~cls:"BorderWidth"
      ~default:"0" Ot_pixels;
    spec ~switch:"-relief" ~db:"relief" ~cls:"Relief" ~default:"flat"
      Ot_relief;
    spec ~switch:"-width" ~db:"width" ~cls:"Width" ~default:"0" Ot_pixels;
    spec ~switch:"-height" ~db:"height" ~cls:"Height" ~default:"0" Ot_pixels;
    spec ~switch:"-geometry" ~db:"geometry" ~cls:"Geometry" ~default:""
      Ot_string;
    spec ~switch:"-cursor" ~db:"cursor" ~cls:"Cursor" ~default:"" Ot_cursor;
  ]

(* -bg is an alias for -background: keep them coherent. *)
let sync_bg_aliases w =
  match
    (Hashtbl.find_opt w.config "-bg", Hashtbl.find_opt w.config "-background")
  with
  | Some bg, Some background when bg <> background ->
    (* The most recently configured one wins; we can't tell which that
       was, so prefer -bg only if -background still has its default. *)
    let default =
      (List.find (fun s -> s.switch = "-background") w.wclass.specs).default
    in
    if background = default then Hashtbl.replace w.config "-background" bg
    else Hashtbl.replace w.config "-bg" background
  | Some bg, None -> Hashtbl.replace w.config "-background" bg
  | _ -> ()

let parse_geometry_spec s =
  match String.index_opt s 'x' with
  | Some i -> (
    let ws = String.sub s 0 i in
    let hs = String.sub s (i + 1) (String.length s - i - 1) in
    match (int_of_string_opt ws, int_of_string_opt hs) with
    | Some w, Some h -> Some (w, h)
    | _ -> None)
  | None -> None

let container_configure w =
  sync_bg_aliases w;
  absorb w.app ~default:() (fun () ->
      Server.set_window_background w.app.conn w.win
        (get_color w "-background"));
  let bw = get_pixels w "-borderwidth" in
  let width = get_pixels w "-width" and height = get_pixels w "-height" in
  (match parse_geometry_spec (get_string w "-geometry") with
  | Some (gw, gh) -> request_size w ~width:gw ~height:gh
  | None ->
    if width > 0 || height > 0 then
      request_size w
        ~width:(if width > 0 then width else w.req_width)
        ~height:(if height > 0 then height else w.req_height));
  ignore bw;
  schedule_redraw w

let container_display w =
  let bw = get_pixels w "-borderwidth" in
  if bw > 0 then
    match get_relief w "-relief" with
    | Flat -> ()
    | relief ->
      Server.draw_relief w.app.conn w.win
        (Geom.rect ~x:0 ~y:0 ~width:w.width ~height:w.height)
        ~raised:(relief = Raised) ~width:bw

let container_class ~name =
  let cls = make_class ~name ~specs:container_specs () in
  cls.configure_hook <- container_configure;
  cls.display <- container_display;
  cls

(* ------------------------------------------------------------------ *)
(* Application creation *)

let create_app ?(app_class = "Tk") ~server ~name () =
  let conn = Server.connect server ~name in
  let interp = Tcl.Builtins.new_interp () in
  let comm_win =
    let create () =
      Server.create_window conn ~parent:(Server.root server) ~x:(-10) ~y:(-10)
        ~width:1 ~height:1 ~border_width:0
    in
    try create ()
    with Xerror.X_error e ->
      (* Retry once under fault injection; see make_widget. *)
      Server.note_absorbed server e;
      create ()
  in
  let app =
    {
      app_name = name;
      app_class;
      interp;
      conn;
      server;
      widgets = Hashtbl.create 32;
      by_xid = Hashtbl.create 32;
      cache = Rescache.create conn;
      options = Optiondb.create ();
      bindings = Hashtbl.create 32;
      disp = Dispatch.create ();
      metrics = Metrics.create ();
      focus_path = None;
      comm_win;
      send_serial = 0;
      title = name;
      app_destroyed = false;
      error_handler =
        (fun msg -> prerr_endline ("tk background error: " ^ msg));
      configure_hooks = [];
      pre_handlers = [];
      drain_hooks = [];
      grab_path = None;
      sel =
        {
          sel_owner_path = None;
          sel_provider = None;
          sel_tcl_handler = None;
          sel_pending = None;
          sel_handlers = Hashtbl.create 8;
        };
      send =
        {
          mailbox = Queue.create ();
          mailbox_limit = 64;
          self_fast_path = true;
          futures = Hashtbl.create 8;
          future_serial = 0;
          (* Seed the backoff jitter from the connection id: deterministic
             per app, independent of wall-clock time. *)
          send_rng = (Server.connection_id conn * 2654435761) land 0x3FFFFFFF;
          guard_mode = Guard_off;
          guard_time_ms = 0;
          guard_cmds = 0;
          draining = false;
          guard_interp = None;
        };
    }
  in
  (* The [time] command reads the dispatcher's pluggable clock, so under
     a virtual clock it agrees with [after]. *)
  Tcl.Interp.set_time_source interp
    (Some (fun () -> Dispatch.clock_seconds app.disp));
  (* Resource limits run on the dispatcher's millisecond clock, so a
     virtual clock makes limit enforcement deterministic, and slaves
     created later inherit the same clock. *)
  Tcl.Interp.set_limit_clock interp
    (Some (fun () -> Dispatch.now_ms app.disp));
  (* Register a unique application name in its registry shard (paper §6). *)
  app.app_name <- register_name app ~name ~comm:comm_win;
  let dc = clients_for server in
  dc.dc_apps <- dc.dc_apps @ [ app ];
  Hashtbl.replace dc.dc_by_comm comm_win app;
  (* Background errors (bindings, timers, idle callbacks) go to a
     user-redefinable Tcl procedure: [tkerror] (the paper-era name) when
     defined, else [bgerror] (its later spelling), else stderr. The event
     loop keeps running either way. *)
  app.error_handler <-
    (fun msg ->
      let report proc =
        match Tcl.Interp.eval_words app.interp [ proc; msg ] with
        | Tcl.Interp.Tcl_error, m ->
          prerr_endline (Printf.sprintf "tk: error in %s: %s" proc m)
        | _ -> ()
      in
      if Tcl.Interp.command_exists app.interp "tkerror" then report "tkerror"
      else if Tcl.Interp.command_exists app.interp "bgerror" then
        report "bgerror"
      else prerr_endline ("tk background error: " ^ msg));
  (* Exceptions escaping timer and idle callbacks must not unwind the
     event loop: X errors are absorbed, script errors become background
     errors, anything else (e.g. the exit exception) still propagates. *)
  Dispatch.set_on_error app.disp (function
    | Xerror.X_error e -> Server.note_absorbed app.server e
    | Tcl.Interp.Tcl_failure msg -> app.error_handler msg
    | e -> raise e);
  (* The main window. Our simulated window manager cascades the top-level
     windows of successive applications so they don't cover each other. *)
  let main =
    make_widget app ~path:"." (container_class ~name:app_class) ~args:[]
  in
  let idx = List.length dc.dc_apps - 1 in
  let root_w = (Server.root_window server).Window.width in
  let x = idx * 340 mod max 340 root_w
  and y = idx * 340 / max 340 root_w * 300 in
  move_resize main ~x ~y ~width:200 ~height:200;
  request_size main ~width:200 ~height:200;
  map_widget main;
  app
