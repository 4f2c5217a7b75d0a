(** The simulated X display server.

    One [Server.t] models one display: a window tree rooted at a screen-
    sized root window, an atom table, per-client connections with event
    queues, selections, a pointer and a keyboard. Clients talk to it
    through {!connection} values; every call that would be an X protocol
    request increments that connection's request counters, so the traffic
    saved by Tk's caches (paper §3.3) is directly measurable. Calls marked
    "round trip" are those that block on a reply in real X.

    Input is injected with the [inject_*] functions, which synthesize the
    event stream a real server would produce (Enter/Leave on crossings,
    Motion, key events to the focus window). *)

type t

type connection

(** Request counters for one connection. *)
type stats = {
  mutable total_requests : int;
  mutable round_trips : int;
  mutable resource_allocs : int;  (** colors, fonts, cursors, bitmaps *)
  mutable window_requests : int;
  mutable draw_requests : int;
  mutable property_requests : int;
}

val create : ?width:int -> ?height:int -> unit -> t
(** A display whose root window has the given size (default 1024x768). *)

val connect : t -> name:string -> connection
(** Open a client connection ([name] is for diagnostics). *)

val close : connection -> unit
(** Orderly shutdown: destroys every window the client created (as the X
    server does, deepest first — surviving owners of nested windows get
    their [Destroy_notify]), releases the selections and focus it held,
    refuses its unanswered selection conversions, notifies survivors of
    the vanished top-level windows, and drops its queue. Any further
    request on the connection raises [BadConnection]. *)

val kill_connection : connection -> unit
(** Abrupt crash: same reaping as {!close}, but the connection is marked
    as crashed — the simulation of a client dying mid-session rather
    than exiting. Distinct from {!close} only in intent (and in
    {!connection_crashed}); both leave the connection dead. *)

val connection_alive : connection -> bool

val connection_crashed : connection -> bool
(** Dead by {!kill_connection} (or the crash plan) rather than {!close}. *)

val set_crash_plan : connection -> at_request:int -> unit
(** Arm a scriptable crash: the connection dies (as by
    {!kill_connection}) the moment its total request count reaches
    [at_request], and that request raises [BadConnection]. [0] disarms.
    Deterministic: same request stream, same point of death — the
    crash-lifecycle analogue of {!set_fault_plan}. *)

val crash_plan : connection -> int
(** The armed [at_request] threshold (0 = disarmed). *)

val root : t -> Xid.t
val root_window : t -> Window.t

type clients = ..
(** The toolkit's per-display client table, kept on the server so that it
    lives exactly as long as the display does. Extensible because xsim
    cannot name the toolkit's application type; a fresh server holds a
    private empty constructor. *)

val clients : t -> clients
val set_clients : t -> clients -> unit

val server_of : connection -> t
val connection_id : connection -> int
val stats : connection -> stats
val reset_stats : connection -> unit

val time : t -> int
(** The server's logical clock (ms). It advances on every request and
    injected input event. *)

val advance_time : t -> int -> unit
(** Advance the logical clock (used to simulate delays, e.g. for testing
    double-click timeouts). *)

(** {1 Errors and fault injection}

    Requests that name a dead resource raise {!Xerror.X_error} (e.g.
    [BadWindow] for operations on a destroyed window) instead of
    succeeding silently. In addition, a deterministic fault-injection
    plan can make the server reject otherwise-valid requests, to test
    that every layer above the protocol degrades gracefully. Rejected
    requests are still counted in the connection's {!stats}. *)

(** Request classes, used for per-class accounting and for scoping
    injected faults ([Resource] = color/font/cursor/bitmap/GC allocation). *)
type req_kind = Resource | Window_op | Draw | Property | Other

val kind_name : req_kind -> string
(** ["resource"], ["window"], ["draw"], ["property"], ["other"]. *)

(** {1 Wire tracing}

    Each connection carries a bounded ring of {!Trace.record}s. While
    tracing is enabled, every protocol request appends one record
    (serial, class, resource, logical timestamp, outcome); the ring
    overwrites its oldest entry once full, so tracing can stay on for a
    whole session. Requests made while tracing is off are only counted
    in {!stats}, not traced. *)

val set_tracing : ?capacity:int -> connection -> bool -> unit
(** Enable/disable tracing. [capacity] (default {!Trace.default_capacity})
    resizes the ring, discarding existing records, when it differs from
    the current capacity. *)

val tracing : connection -> bool

val trace : connection -> req_kind Trace.record list
(** The ring's contents, oldest first. *)

val trace_length : connection -> int

val clear_trace : connection -> unit

val trace_dump : connection -> string
(** Human-readable table: serial, timestamp, class, resource, outcome. *)

val set_fault_plan :
  t -> ?seed:int -> ?fail_every_nth:int -> ?fail_kind:req_kind -> unit -> unit
(** Arm the plan: every [fail_every_nth]-th request (phase-shifted by
    [seed]) raises an {!Xerror.X_error} whose code matches the request
    class ([Resource] → [BadAlloc], [Window_op] → [BadWindow], [Draw] →
    [BadMatch], [Property] → [BadAtom], [Other] → [BadValue]). With
    [fail_kind], only that class is eligible. [fail_every_nth = 0]
    disables periodic injection. Deterministic: same seed, same request
    stream, same faults. *)

val script_fault : t -> Xerror.code -> unit
(** Queue a one-shot failure: the next eligible request raises [code].
    Scripted faults fire before the periodic plan and may be queued in
    sequence. *)

val clear_faults : t -> unit
(** Disarm periodic and scripted injection (counters are kept). *)

val faults_injected : t -> int
(** Faults the plan has raised. *)

val faults_absorbed : t -> int
(** Injected faults that some layer above caught and degraded around
    (via {!note_absorbed}). A healthy stack keeps this equal to
    {!faults_injected}. *)

val note_absorbed : t -> Xerror.info -> unit
(** Record that an [X_error] was absorbed. Counts only injected faults,
    so genuine errors (e.g. a send to a dead peer) don't skew the
    injected/absorbed invariant. *)

(** {1 Atoms} *)

val intern_atom : connection -> string -> Atom.t
(** Round trip. *)

val atom_name : connection -> Atom.t -> string option
(** Round trip. *)

(** {1 Windows} *)

val create_window :
  connection ->
  parent:Xid.t ->
  x:int ->
  y:int ->
  width:int ->
  height:int ->
  border_width:int ->
  Xid.t
(** @raise Failure if [parent] does not exist. *)

val destroy_window : connection -> Xid.t -> unit
(** Destroys the window and all descendants; each creating connection
    receives a [Destroy_notify] per destroyed window. *)

val map_window : connection -> Xid.t -> unit
(** Maps the window; delivers [Map_notify] and an [Expose] if it becomes
    viewable. *)

val unmap_window : connection -> Xid.t -> unit

val configure_window :
  connection ->
  ?x:int ->
  ?y:int ->
  ?width:int ->
  ?height:int ->
  ?border_width:int ->
  Xid.t ->
  unit
(** Move/resize; delivers [Configure_notify] (and [Expose] on resize of a
    viewable window). *)

val raise_window : connection -> Xid.t -> unit
val lower_window : connection -> Xid.t -> unit
val set_window_background : connection -> Xid.t -> Color.t -> unit
val set_override_redirect : connection -> Xid.t -> bool -> unit

val lookup_window : t -> Xid.t -> Window.t option

val window_exists : connection -> Xid.t -> bool
(** Round trip: does the window still exist? The liveness ping used by
    [send] to distinguish a dead peer from a merely unresponsive one. *)

val query_geometry : connection -> Xid.t -> Geom.rect option
(** Round trip: window geometry in parent coordinates. The Tk structure
    cache exists to avoid this call. *)

(** {1 Resources (round trips; the targets of Tk's resource cache)} *)

val alloc_color : connection -> string -> Color.t option
val open_font : connection -> string -> Font.t option
val alloc_cursor : connection -> string -> Cursor.t option
val alloc_bitmap : connection -> string -> Bitmap.t option

val create_gc :
  connection ->
  ?foreground:Color.t ->
  ?background:Color.t ->
  ?font:Font.t ->
  ?line_width:int ->
  unit ->
  Gcontext.t

(** {1 Properties} *)

val change_property :
  connection -> Xid.t -> prop:Atom.t -> ptype:Atom.t -> string -> unit
(** Set a property; [Property_notify] goes to the window's owner and to
    registered listeners. *)

val append_property :
  connection -> Xid.t -> prop:Atom.t -> ptype:Atom.t -> string -> unit
(** X's [PropModeAppend]: atomically append [data] to the property's
    current contents (creating it when absent). This is how Tk's [send]
    posts requests — appends never overwrite an unread predecessor, so
    bursts from many senders queue up losslessly on the wire. *)

val get_property : connection -> Xid.t -> prop:Atom.t -> Window.prop option
(** Round trip. *)

val delete_property : connection -> Xid.t -> prop:Atom.t -> unit

val listen_property : connection -> Xid.t -> unit
(** Register interest in [Property_notify] events on a window this
    connection does not own (X's PropertyChangeMask on another client's
    window — how [send] watches the registry). *)

(** {1 Selections} *)

val set_selection_owner : connection -> selection:Atom.t -> Xid.t -> unit
(** The previous owner (if any) receives [Selection_clear]. Passing
    [Xid.none] relinquishes ownership. *)

val get_selection_owner : connection -> selection:Atom.t -> Xid.t
(** Round trip; {!Xid.none} when unowned. *)

val convert_selection :
  connection ->
  selection:Atom.t ->
  target:Atom.t ->
  property:Atom.t ->
  requestor:Xid.t ->
  unit
(** Ask the selection owner to convert: the owner's connection receives
    [Selection_request]; if the selection is unowned the requestor
    immediately receives a refusing [Selection_notify]. *)

val send_selection_notify :
  connection ->
  requestor:Xid.t ->
  selection:Atom.t ->
  target:Atom.t ->
  property:Atom.t option ->
  data:string option ->
  unit
(** The owner's reply: stores [data] in the property on the requestor
    window (if accepted) and delivers [Selection_notify]. *)

(** {1 Drawing (retained in per-window keyed display lists)}

    Every draw call takes an optional [?key]: ops land in the window's
    keyed op store ({!Window.ops}) and the rasterizer paints keys in
    ascending order. Omitting the key assigns a fresh auto key per op
    (plain append order — what the simple widgets want). A client that
    keys its ops (the canvas keys each item by its display serial) can
    later replace just that group with {!clear_keyed} + re-draw, which is
    the wire-level damage repaint: O(changed ops), not a full
    {!clear_window} + redraw. *)

val clear_window : connection -> Xid.t -> unit

val clear_keyed : connection -> Xid.t -> int -> unit
(** Drop the retained ops under one key (counted as a Draw request). *)

val fill_rect : ?key:int -> connection -> Xid.t -> Gcontext.t -> Geom.rect -> unit
val draw_rect : ?key:int -> connection -> Xid.t -> Gcontext.t -> Geom.rect -> unit

val draw_text :
  ?key:int -> connection -> Xid.t -> Gcontext.t -> x:int -> y:int -> string -> unit
(** [y] is the text baseline, per X convention. *)

val draw_line :
  ?key:int ->
  connection -> Xid.t -> Gcontext.t -> x1:int -> y1:int -> x2:int -> y2:int -> unit

val draw_relief :
  ?key:int -> connection -> Xid.t -> Geom.rect -> raised:bool -> width:int -> unit
(** Tk-style 3-D border (drawn by widgets with two GCs in real Tk; modelled
    as one request here). *)

(** {1 Focus} *)

val set_input_focus : connection -> Xid.t -> unit
(** [Focus_out]/[Focus_in] are delivered to the old and new focus
    windows. Passing {!Xid.none} reverts to pointer-root focus. *)

(** {1 Event queues} *)

val next_event : connection -> Event.delivery option
val pending : connection -> int

(** {1 Input injection (test/driver side — not client requests)} *)

val inject_motion : t -> x:int -> y:int -> unit
(** Move the pointer to root coordinates (x, y): generates Leave/Enter on
    window crossings and a Motion event in the pointer window. *)

val inject_button : t -> button:int -> pressed:bool -> unit
(** Press/release a pointer button at the current pointer position. *)

val inject_key : t -> keysym:string -> pressed:bool -> unit
(** Press/release a key: delivered to the focus window (or the pointer
    window under pointer-root focus). Modifier keysyms (Shift_L,
    Control_L, Meta_L, Alt_L) update the modifier state. *)

val inject_string : t -> string -> unit
(** Convenience: type a string, one key press/release pair per char. *)
