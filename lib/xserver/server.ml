type stats = {
  mutable total_requests : int;
  mutable round_trips : int;
  mutable resource_allocs : int;
  mutable window_requests : int;
  mutable draw_requests : int;
  mutable property_requests : int;
}

type req_kind = Resource | Window_op | Draw | Property | Other

(* Deterministic fault-injection plan: a seeded modulo counter plus an
   optional kind filter and a FIFO of one-shot scripted failures. The
   injected/absorbed pair is the invariant the robustness tests check:
   every fault the plan raises must be absorbed by some layer above. *)
type fault_plan = {
  mutable fail_every_nth : int; (* 0 = disabled *)
  mutable fail_kind : req_kind option; (* None = any request class *)
  mutable fault_seed : int;
  mutable fault_tick : int;
  mutable scripted : Xerror.code list;
  mutable injected : int;
  mutable absorbed : int;
}

(* A selection conversion the owner has been asked to perform but has not
   yet answered. Tracked so that when the owner's connection dies, the
   requestor receives a refusing SelectionNotify instead of waiting
   forever. *)
type pending_convert = {
  pc_selection : Atom.t;
  pc_target : Atom.t;
  pc_requestor : Xid.t;
  pc_owner_cid : int;
}

(* The toolkit's table of this display's in-process clients. xsim cannot
   name the toolkit's types, so the slot is an extensible variant. *)
type clients = ..

type clients += No_clients

type t = {
  xids : Xid.allocator;
  atoms : Atom.table;
  root_win : Window.t;
  windows : (Xid.t, Window.t) Hashtbl.t;
  connections : (int, connection) Hashtbl.t; (* cid -> live connection *)
  mutable next_cid : int;
  mutable clock : int;
  selections : (Atom.t, Xid.t) Hashtbl.t;
  mutable pending_converts : pending_convert list;
  mutable pointer : Geom.point;
  mutable pointer_win : Xid.t;
  mutable focus : Xid.t; (* Xid.none = pointer-root focus *)
  mutable mod_state : Event.state;
  mutable buttons_down : int list;
  faults : fault_plan;
  mutable clients : clients;
}

and connection = {
  cid : int;
  cname : string;
  server : t;
  queue : Event.delivery Queue.t;
  cstats : stats;
  mutable dead : bool;
  mutable crashed : bool; (* dead by crash, not orderly close *)
  mutable crash_at : int; (* crash plan: die at this request number; 0 = off *)
  mutable tracing : bool;
  mutable trace : req_kind Trace.t;
}

let new_stats () =
  {
    total_requests = 0;
    round_trips = 0;
    resource_allocs = 0;
    window_requests = 0;
    draw_requests = 0;
    property_requests = 0;
  }

let create ?(width = 1024) ?(height = 768) () =
  let xids = Xid.allocator () in
  let root_id = Xid.fresh xids in
  let root_win =
    Window.create ~id:root_id ~owner_cid:0 ~parent:None ~x:0 ~y:0 ~width
      ~height ~border_width:0
  in
  root_win.Window.mapped <- true;
  root_win.Window.background <- Some Color.white;
  let windows = Hashtbl.create 64 in
  Hashtbl.replace windows root_id root_win;
  {
    xids;
    atoms = Atom.table ();
    root_win;
    windows;
    connections = Hashtbl.create 8;
    next_cid = 1;
    clock = 0;
    selections = Hashtbl.create 4;
    pending_converts = [];
    (* Park the pointer in the far corner so freshly mapped windows don't
       receive a spurious Enter. *)
    pointer = { Geom.x = width - 1; y = height - 1 };
    pointer_win = root_id;
    focus = Xid.none;
    mod_state = Event.empty_state;
    buttons_down = [];
    faults =
      {
        fail_every_nth = 0;
        fail_kind = None;
        fault_seed = 0;
        fault_tick = 0;
        scripted = [];
        injected = 0;
        absorbed = 0;
      };
    clients = No_clients;
  }

let connect server ~name =
  let conn =
    {
      cid = server.next_cid;
      cname = name;
      server;
      queue = Queue.create ();
      cstats = new_stats ();
      dead = false;
      crashed = false;
      crash_at = 0;
      tracing = false;
      trace = Trace.create ();
    }
  in
  server.next_cid <- server.next_cid + 1;
  Hashtbl.replace server.connections conn.cid conn;
  conn

let root t = t.root_win.Window.id
let root_window t = t.root_win
let clients t = t.clients
let set_clients t c = t.clients <- c
let server_of conn = conn.server
let connection_id conn = conn.cid
let stats conn = conn.cstats

let reset_stats conn =
  let s = conn.cstats in
  s.total_requests <- 0;
  s.round_trips <- 0;
  s.resource_allocs <- 0;
  s.window_requests <- 0;
  s.draw_requests <- 0;
  s.property_requests <- 0

let time t = t.clock
let advance_time t ms = t.clock <- t.clock + max 0 ms

(* ------------------------------------------------------------------ *)
(* Fault injection *)

let set_fault_plan t ?(seed = 0) ?(fail_every_nth = 0) ?fail_kind () =
  let p = t.faults in
  p.fail_every_nth <- fail_every_nth;
  p.fail_kind <- fail_kind;
  p.fault_seed <- seed;
  p.fault_tick <- 0

let script_fault t code = t.faults.scripted <- t.faults.scripted @ [ code ]

let clear_faults t =
  let p = t.faults in
  p.fail_every_nth <- 0;
  p.fail_kind <- None;
  p.scripted <- [];
  p.fault_tick <- 0

let faults_injected t = t.faults.injected
let faults_absorbed t = t.faults.absorbed

let note_absorbed t (e : Xerror.info) =
  if e.Xerror.injected then begin
    t.faults.absorbed <- t.faults.absorbed + 1;
    (* Upgrade the trace record of the absorbed request. The serial is
       per-connection, so stop at the first tracing connection that still
       holds a matching injected-fault record. *)
    let flipped = ref false in
    Hashtbl.iter
      (fun _ c ->
        if (not !flipped) && c.tracing then
          flipped := Trace.mark_absorbed c.trace ~serial:e.Xerror.serial)
      t.connections
  end

(* The error code a rejected request of each class would carry. *)
let code_for_kind = function
  | Resource -> Xerror.BadAlloc
  | Window_op -> Xerror.BadWindow
  | Draw -> Xerror.BadMatch
  | Property -> Xerror.BadAtom
  | Other -> Xerror.BadValue

let kind_matches plan kind =
  match plan.fail_kind with None -> true | Some k -> k = kind

let maybe_inject conn kind resource =
  let plan = conn.server.faults in
  let serial = conn.cstats.total_requests in
  match plan.scripted with
  | code :: rest when kind_matches plan kind ->
    plan.scripted <- rest;
    plan.injected <- plan.injected + 1;
    Xerror.raise_error ~resource ~serial ~injected:true code
  | _ ->
    if plan.fail_every_nth > 0 && kind_matches plan kind then begin
      plan.fault_tick <- plan.fault_tick + 1;
      if (plan.fault_tick + plan.fault_seed) mod plan.fail_every_nth = 0
      then begin
        plan.injected <- plan.injected + 1;
        Xerror.raise_error ~resource ~serial ~injected:true
          (code_for_kind kind)
      end
    end

let lookup_window t id = Hashtbl.find_opt t.windows id

let window_exn conn id =
  match lookup_window conn.server id with
  | Some w -> w
  | None ->
    Xerror.raise_error ~resource:id ~serial:conn.cstats.total_requests
      Xerror.BadWindow

let find_connection t cid = Hashtbl.find_opt t.connections cid

let deliver_to_cid t ~cid ~window event =
  match find_connection t cid with
  | Some conn when not conn.dead ->
    Queue.add { Event.window; time = t.clock; event } conn.queue
  | Some _ | None -> ()

(* Deliver an event for a window to its owner connection. *)
let deliver t win event =
  deliver_to_cid t ~cid:win.Window.owner_cid ~window:win.Window.id event

(* Root-window SubstructureNotify approximation: tell every surviving
   client about a structural change it did not cause itself. *)
let broadcast_survivors t ~except_cid ~window event =
  Hashtbl.iter
    (fun _ c ->
      if c.cid <> except_cid && not c.dead then
        Queue.add { Event.window; time = t.clock; event } c.queue)
    t.connections

(* ------------------------------------------------------------------ *)
(* Pointer bookkeeping shared by window operations and input *)

let expose_event w =
  Event.Expose
    { ex = 0; ey = 0; ewidth = w.Window.width; eheight = w.Window.height; count = 0 }

(* Recompute which window contains the pointer, emitting Leave/Enter. *)
let update_pointer_window t =
  let target =
    match Window.window_at t.root_win t.pointer with
    | Some w -> w.Window.id
    | None -> t.root_win.Window.id
  in
  if target <> t.pointer_win then begin
    let state = t.mod_state in
    (match lookup_window t t.pointer_win with
    | Some old when not old.Window.destroyed ->
      deliver t old (Event.Leave { crossing_state = state })
    | Some _ | None -> ());
    t.pointer_win <- target;
    match lookup_window t target with
    | Some w -> deliver t w (Event.Enter { crossing_state = state })
    | None -> ()
  end

(* ------------------------------------------------------------------ *)
(* Connection death: orderly close and abrupt crash *)

(* Selection conversions the dying client was asked to perform are
   refused, so a requestor blocked on SelectionNotify unblocks instead of
   waiting out its timeout. *)
let refuse_pending_converts t cid =
  let mine, rest =
    List.partition (fun pc -> pc.pc_owner_cid = cid) t.pending_converts
  in
  t.pending_converts <- rest;
  List.iter
    (fun pc ->
      match lookup_window t pc.pc_requestor with
      | Some req_win ->
        deliver t req_win
          (Event.Selection_notify
             {
               sn_selection = pc.pc_selection;
               sn_target = pc.pc_target;
               sn_property = None;
               sn_requestor = pc.pc_requestor;
             })
      | None -> ())
    mine

(* Reap everything a dead client left behind, exactly as the X server
   does when a connection drops: destroy its windows (deepest first,
   notifying surviving owners of nested windows), release the selections
   and focus they held, refuse its unanswered selection conversions, and
   tell surviving clients what disappeared. *)
let reap_connection conn =
  let t = conn.server in
  conn.dead <- true;
  Queue.clear conn.queue;
  Hashtbl.remove t.connections conn.cid;
  (* Top-most windows owned by the client: every other window it owned is
     a descendant of one of these and dies with the subtree. *)
  let tops =
    Hashtbl.fold
      (fun _ w acc ->
        if
          w.Window.owner_cid = conn.cid
          && (match w.Window.parent with
             | None -> true
             | Some p -> p.Window.owner_cid <> conn.cid)
        then w :: acc
        else acc)
      t.windows []
  in
  List.iter
    (fun top ->
      let doomed = Window.descendants top in
      List.iter
        (fun d ->
          d.Window.destroyed <- true;
          d.Window.mapped <- false;
          (* A surviving client with a window nested inside the dead
             client's tree still receives its DestroyNotify. *)
          deliver t d Event.Destroy_notify;
          Hashtbl.remove t.windows d.Window.id;
          Hashtbl.iter
            (fun sel owner ->
              if owner = d.Window.id then begin
                Hashtbl.remove t.selections sel;
                broadcast_survivors t ~except_cid:conn.cid
                  ~window:d.Window.id
                  (Event.Selection_clear { selection = sel })
              end)
            (Hashtbl.copy t.selections);
          if t.focus = d.Window.id then t.focus <- Xid.none)
        (List.rev doomed);
      Window.unlink top;
      broadcast_survivors t ~except_cid:conn.cid ~window:top.Window.id
        Event.Destroy_notify)
    tops;
  refuse_pending_converts t conn.cid;
  update_pointer_window t

let close conn = if not conn.dead then reap_connection conn

let kill_connection conn =
  if not conn.dead then begin
    conn.crashed <- true;
    reap_connection conn
  end

let set_crash_plan conn ~at_request = conn.crash_at <- max 0 at_request
let crash_plan conn = conn.crash_at
let connection_alive conn = not conn.dead
let connection_crashed conn = conn.crashed

let dead_conn_error conn =
  Xerror.raise_error ~resource:Xid.none ~serial:conn.cstats.total_requests
    Xerror.BadConnection

(* ------------------------------------------------------------------ *)
(* Wire tracing *)

let kind_name = function
  | Resource -> "resource"
  | Window_op -> "window"
  | Draw -> "draw"
  | Property -> "property"
  | Other -> "other"

let set_tracing ?capacity conn flag =
  (match capacity with
  | Some c when c <> Trace.capacity conn.trace ->
    conn.trace <- Trace.create ~capacity:c ()
  | _ -> ());
  conn.tracing <- flag

let tracing conn = conn.tracing
let trace conn = Trace.to_list conn.trace
let trace_length conn = Trace.length conn.trace
let clear_trace conn = Trace.clear conn.trace
let trace_dump conn = Trace.dump ~kind_name conn.trace

let record_trace conn kind resource outcome =
  if conn.tracing then
    Trace.add conn.trace
      {
        Trace.serial = conn.cstats.total_requests;
        kind;
        resource;
        time = conn.server.clock;
        outcome;
      }

(* Account for one protocol request; the logical clock ticks so event
   timestamps stay ordered. The fault plan rejects the request after it
   has been counted, as a real server rejects a request it received. A
   dead connection rejects everything; the crash plan kills the
   connection the moment its request counter reaches [crash_at]. *)
let request ?(round_trip = false) ?(resource = Xid.none) conn kind =
  if conn.dead then begin
    record_trace conn kind resource Trace.Bad_connection;
    dead_conn_error conn
  end;
  let s = conn.cstats in
  s.total_requests <- s.total_requests + 1;
  if round_trip then s.round_trips <- s.round_trips + 1;
  (match kind with
  | Resource -> s.resource_allocs <- s.resource_allocs + 1
  | Window_op -> s.window_requests <- s.window_requests + 1
  | Draw -> s.draw_requests <- s.draw_requests + 1
  | Property -> s.property_requests <- s.property_requests + 1
  | Other -> ());
  conn.server.clock <- conn.server.clock + 1;
  if conn.crash_at > 0 && s.total_requests >= conn.crash_at then begin
    kill_connection conn;
    record_trace conn kind resource Trace.Bad_connection;
    dead_conn_error conn
  end;
  match maybe_inject conn kind resource with
  | () -> record_trace conn kind resource Trace.Ok
  | exception (Xerror.X_error _ as e) ->
    record_trace conn kind resource Trace.Injected_fault;
    raise e

let window_exists conn id =
  request ~round_trip:true ~resource:id conn Other;
  Hashtbl.mem conn.server.windows id

(* ------------------------------------------------------------------ *)
(* Atoms *)

let intern_atom conn name =
  request ~round_trip:true conn Other;
  Atom.intern conn.server.atoms name

let atom_name conn atom =
  request ~round_trip:true conn Other;
  Atom.name conn.server.atoms atom

(* ------------------------------------------------------------------ *)
(* Windows *)

let create_window conn ~parent ~x ~y ~width ~height ~border_width =
  request ~resource:parent conn Window_op;
  let t = conn.server in
  let parent_win = window_exn conn parent in
  let id = Xid.fresh t.xids in
  let w =
    Window.create ~id ~owner_cid:conn.cid ~parent:(Some parent_win) ~x ~y
      ~width ~height ~border_width
  in
  Hashtbl.replace t.windows id w;
  id

let destroy_window conn id =
  request ~resource:id conn Window_op;
  let t = conn.server in
  match lookup_window t id with
  | None -> ()
  | Some w ->
    if w.Window.id = t.root_win.Window.id then
      (* X refuses to destroy the root window. *)
      Xerror.raise_error ~resource:id ~serial:conn.cstats.total_requests
        Xerror.BadWindow;
    let doomed = Window.descendants w in
    (* Notify deepest-first, as X does. *)
    List.iter
      (fun d ->
        d.Window.destroyed <- true;
        d.Window.mapped <- false;
        deliver t d Event.Destroy_notify;
        Hashtbl.remove t.windows d.Window.id;
        (* Drop selection ownership held by destroyed windows. *)
        Hashtbl.iter
          (fun sel owner ->
            if owner = d.Window.id then Hashtbl.remove t.selections sel)
          (Hashtbl.copy t.selections);
        if t.focus = d.Window.id then t.focus <- Xid.none)
      (List.rev doomed);
    Window.unlink w;
    update_pointer_window t

let map_window conn id =
  request ~resource:id conn Window_op;
  let t = conn.server in
  let w = window_exn conn id in
  if not w.Window.mapped then begin
    w.Window.mapped <- true;
    deliver t w Event.Map_notify;
    if Window.viewable w then deliver t w (expose_event w);
    update_pointer_window t
  end

let unmap_window conn id =
  request ~resource:id conn Window_op;
  let t = conn.server in
  let w = window_exn conn id in
  if w.Window.mapped then begin
    w.Window.mapped <- false;
    deliver t w Event.Unmap_notify;
    update_pointer_window t
  end

let configure_window conn ?x ?y ?width ?height ?border_width id =
  request ~resource:id conn Window_op;
  let t = conn.server in
  let w = window_exn conn id in
  let resized =
    (match width with Some v -> v <> w.Window.width | None -> false)
    || match height with Some v -> v <> w.Window.height | None -> false
  in
  Option.iter (fun v -> w.Window.x <- v) x;
  Option.iter (fun v -> w.Window.y <- v) y;
  Option.iter (fun v -> w.Window.width <- max 1 v) width;
  Option.iter (fun v -> w.Window.height <- max 1 v) height;
  Option.iter (fun v -> w.Window.border_width <- v) border_width;
  deliver t w
    (Event.Configure_notify
       {
         cx = w.Window.x;
         cy = w.Window.y;
         cwidth = w.Window.width;
         cheight = w.Window.height;
       });
  if resized && Window.viewable w then deliver t w (expose_event w);
  update_pointer_window t

let raise_window conn id =
  request ~resource:id conn Window_op;
  let t = conn.server in
  Window.raise_to_top (window_exn conn id);
  update_pointer_window t

let lower_window conn id =
  request ~resource:id conn Window_op;
  let t = conn.server in
  Window.lower_to_bottom (window_exn conn id);
  update_pointer_window t

let set_window_background conn id color =
  request ~resource:id conn Window_op;
  (window_exn conn id).Window.background <- Some color

let set_override_redirect conn id flag =
  request ~resource:id conn Window_op;
  (window_exn conn id).Window.override_redirect <- flag

let query_geometry conn id =
  request ~round_trip:true conn Other;
  Option.map
    (fun w ->
      Geom.rect ~x:w.Window.x ~y:w.Window.y ~width:w.Window.width
        ~height:w.Window.height)
    (lookup_window conn.server id)

(* ------------------------------------------------------------------ *)
(* Resources *)

let alloc_color conn spec =
  request ~round_trip:true conn Resource;
  Color.parse spec

let open_font conn name =
  request ~round_trip:true conn Resource;
  Font.parse name

let alloc_cursor conn name =
  request ~round_trip:true conn Resource;
  Cursor.parse name

let alloc_bitmap conn spec =
  request ~round_trip:true conn Resource;
  Bitmap.parse spec

let create_gc conn ?foreground ?background ?font ?line_width () =
  request conn Resource;
  Gcontext.make ~id:(Xid.fresh conn.server.xids) ?foreground ?background
    ?font ?line_width ()

(* ------------------------------------------------------------------ *)
(* Properties *)

let notify_property t w ~prop_atom ~deleted =
  let ev = Event.Property_notify { prop_atom; prop_deleted = deleted } in
  deliver t w ev;
  List.iter
    (fun cid ->
      if cid <> w.Window.owner_cid then
        deliver_to_cid t ~cid ~window:w.Window.id ev)
    w.Window.property_listeners

let change_property conn id ~prop ~ptype data =
  request ~resource:id conn Property;
  let t = conn.server in
  let w = window_exn conn id in
  Hashtbl.replace w.Window.properties prop
    { Window.prop_type = ptype; prop_data = data };
  notify_property t w ~prop_atom:prop ~deleted:false

let append_property conn id ~prop ~ptype data =
  request ~resource:id conn Property;
  let t = conn.server in
  let w = window_exn conn id in
  let merged =
    match Hashtbl.find_opt w.Window.properties prop with
    | Some existing -> existing.Window.prop_data ^ data
    | None -> data
  in
  Hashtbl.replace w.Window.properties prop
    { Window.prop_type = ptype; prop_data = merged };
  notify_property t w ~prop_atom:prop ~deleted:false

let get_property conn id ~prop =
  request ~round_trip:true conn Property;
  match lookup_window conn.server id with
  | None -> None
  | Some w -> Hashtbl.find_opt w.Window.properties prop

let delete_property conn id ~prop =
  request ~resource:id conn Property;
  let t = conn.server in
  match lookup_window t id with
  | None -> ()
  | Some w ->
    if Hashtbl.mem w.Window.properties prop then begin
      Hashtbl.remove w.Window.properties prop;
      notify_property t w ~prop_atom:prop ~deleted:true
    end

let listen_property conn id =
  request ~resource:id conn Property;
  let w = window_exn conn id in
  if not (List.mem conn.cid w.Window.property_listeners) then
    w.Window.property_listeners <-
      conn.cid :: w.Window.property_listeners

(* ------------------------------------------------------------------ *)
(* Selections *)

let set_selection_owner conn ~selection window =
  request conn Other;
  let t = conn.server in
  let previous =
    Option.value (Hashtbl.find_opt t.selections selection) ~default:Xid.none
  in
  if previous <> Xid.none && previous <> window then (
    match lookup_window t previous with
    | Some w -> deliver t w (Event.Selection_clear { selection })
    | None -> ());
  if window = Xid.none then Hashtbl.remove t.selections selection
  else Hashtbl.replace t.selections selection window

let get_selection_owner conn ~selection =
  request ~round_trip:true conn Other;
  Option.value
    (Hashtbl.find_opt conn.server.selections selection)
    ~default:Xid.none

let convert_selection conn ~selection ~target ~property ~requestor =
  request conn Other;
  let t = conn.server in
  let owner =
    Option.value (Hashtbl.find_opt t.selections selection) ~default:Xid.none
  in
  match lookup_window t owner with
  | Some owner_win ->
    t.pending_converts <-
      {
        pc_selection = selection;
        pc_target = target;
        pc_requestor = requestor;
        pc_owner_cid = owner_win.Window.owner_cid;
      }
      :: t.pending_converts;
    deliver t owner_win
      (Event.Selection_request
         {
           sr_selection = selection;
           sr_target = target;
           sr_property = property;
           sr_requestor = requestor;
         })
  | None -> (
    (* No owner: refuse immediately. *)
    match lookup_window t requestor with
    | Some req_win ->
      deliver t req_win
        (Event.Selection_notify
           {
             sn_selection = selection;
             sn_target = target;
             sn_property = None;
             sn_requestor = requestor;
           })
    | None -> ())

let send_selection_notify conn ~requestor ~selection ~target ~property ~data =
  request conn Other;
  let t = conn.server in
  t.pending_converts <-
    List.filter
      (fun pc ->
        not (pc.pc_requestor = requestor && pc.pc_selection = selection))
      t.pending_converts;
  match lookup_window t requestor with
  | None -> ()
  | Some req_win ->
    (match (property, data) with
    | Some prop, Some data ->
      Hashtbl.replace req_win.Window.properties prop
        { Window.prop_type = Atom.string; prop_data = data }
    | _ -> ());
    deliver t req_win
      (Event.Selection_notify
         {
           sn_selection = selection;
           sn_target = target;
           sn_property = property;
           sn_requestor = requestor;
         })

(* ------------------------------------------------------------------ *)
(* Drawing *)

let clear_window conn id =
  request ~resource:id conn Draw;
  Window.clear_drawing (window_exn conn id)

let clear_keyed conn id key =
  request ~resource:id conn Draw;
  Window.clear_key (window_exn conn id) key

let fill_rect ?key conn id gc rect =
  request ~resource:id conn Draw;
  Window.add_draw_op ?key (window_exn conn id)
    (Window.Fill_rect (rect, gc.Gcontext.foreground))

let draw_rect ?key conn id gc rect =
  request ~resource:id conn Draw;
  Window.add_draw_op ?key (window_exn conn id)
    (Window.Draw_rect (rect, gc.Gcontext.foreground))

let draw_text ?key conn id gc ~x ~y text =
  request ~resource:id conn Draw;
  let font =
    match gc.Gcontext.font with
    | Some f -> f
    | None -> Font.fallback ()
  in
  Window.add_draw_op ?key (window_exn conn id)
    (Window.Draw_text { tx = x; ty = y; text; color = gc.Gcontext.foreground; font })

let draw_line ?key conn id gc ~x1 ~y1 ~x2 ~y2 =
  request ~resource:id conn Draw;
  Window.add_draw_op ?key (window_exn conn id)
    (Window.Draw_line { x1; y1; x2; y2; color = gc.Gcontext.foreground })

let draw_relief ?key conn id rect ~raised ~width =
  request ~resource:id conn Draw;
  Window.add_draw_op ?key (window_exn conn id)
    (Window.Draw_relief { rrect = rect; raised; rwidth = width })

(* ------------------------------------------------------------------ *)
(* Focus *)

let set_input_focus conn id =
  request conn Other;
  let t = conn.server in
  if t.focus <> id then begin
    (match lookup_window t t.focus with
    | Some old -> deliver t old Event.Focus_out
    | None -> ());
    t.focus <- id;
    match lookup_window t id with
    | Some w -> deliver t w Event.Focus_in
    | None -> ()
  end

(* ------------------------------------------------------------------ *)
(* Event queues *)

let next_event conn =
  if Queue.is_empty conn.queue then None else Some (Queue.pop conn.queue)

let pending conn = Queue.length conn.queue

(* ------------------------------------------------------------------ *)
(* Input injection *)

let window_relative t id =
  match lookup_window t id with
  | Some w ->
    let origin = Window.root_position w in
    { Geom.x = t.pointer.Geom.x - origin.Geom.x;
      y = t.pointer.Geom.y - origin.Geom.y }
  | None -> t.pointer

let inject_motion t ~x ~y =
  t.clock <- t.clock + 1;
  t.pointer <- { Geom.x = x; y };
  update_pointer_window t;
  let rel = window_relative t t.pointer_win in
  match lookup_window t t.pointer_win with
  | Some w ->
    deliver t w
      (Event.Motion { mx = rel.Geom.x; my = rel.Geom.y; motion_state = t.mod_state })
  | None -> ()

let with_button state button pressed =
  match button with
  | 1 -> { state with Event.button1 = pressed }
  | 2 -> { state with Event.button2 = pressed }
  | 3 -> { state with Event.button3 = pressed }
  | _ -> state

let inject_button t ~button ~pressed =
  t.clock <- t.clock + 1;
  let rel = window_relative t t.pointer_win in
  let ev =
    if pressed then
      Event.Button_press
        { button; bx = rel.Geom.x; by = rel.Geom.y; button_state = t.mod_state }
    else
      Event.Button_release
        { button; bx = rel.Geom.x; by = rel.Geom.y; button_state = t.mod_state }
  in
  (* X reports the state *before* the transition, so update afterwards. *)
  t.mod_state <- with_button t.mod_state button pressed;
  t.buttons_down <-
    (if pressed then button :: t.buttons_down
     else List.filter (fun b -> b <> button) t.buttons_down);
  match lookup_window t t.pointer_win with
  | Some w -> deliver t w ev
  | None -> ()

let modifier_of_keysym = function
  | "Shift_L" | "Shift_R" -> Some `Shift
  | "Control_L" | "Control_R" -> Some `Control
  | "Meta_L" | "Meta_R" -> Some `Meta
  | "Alt_L" | "Alt_R" -> Some `Alt
  | "Caps_Lock" -> Some `Lock
  | _ -> None

let apply_modifier state m pressed =
  match m with
  | `Shift -> { state with Event.shift = pressed }
  | `Control -> { state with Event.control = pressed }
  | `Meta -> { state with Event.meta = pressed }
  | `Alt -> { state with Event.alt = pressed }
  | `Lock -> { state with Event.lock = pressed }

let focus_target t =
  if t.focus <> Xid.none && Hashtbl.mem t.windows t.focus then t.focus
  else t.pointer_win

let inject_key t ~keysym ~pressed =
  t.clock <- t.clock + 1;
  match modifier_of_keysym keysym with
  | Some m -> t.mod_state <- apply_modifier t.mod_state m pressed
  | None -> (
    let target = focus_target t in
    let rel = window_relative t target in
    let key =
      {
        Event.keysym;
        key_state = t.mod_state;
        kx = rel.Geom.x;
        ky = rel.Geom.y;
      }
    in
    let ev = if pressed then Event.Key_press key else Event.Key_release key in
    match lookup_window t target with
    | Some w -> deliver t w ev
    | None -> ())

let inject_string t s =
  String.iter
    (fun c ->
      let upper = c >= 'A' && c <= 'Z' in
      let keysym = Event.keysym_of_char c in
      if upper then inject_key t ~keysym:"Shift_L" ~pressed:true;
      inject_key t ~keysym ~pressed:true;
      inject_key t ~keysym ~pressed:false;
      if upper then inject_key t ~keysym:"Shift_L" ~pressed:false)
    s
