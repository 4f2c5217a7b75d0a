(** The Tk intrinsics core: applications, widgets, the widget framework
    (classes, configuration options, widget commands), the event
    dispatcher, event bindings with %-substitution, the structure cache and
    geometry-management plumbing (paper §3).

    An {!app} bundles one Tcl interpreter with one X connection and a tree
    of widgets named by path names; creating a widget creates both an X
    window and a Tcl {e widget command} with the same name as the window
    path (paper §4). *)

open Xsim

(** {1 Widget configuration options} *)

type option_type =
  | Ot_string
  | Ot_int
  | Ot_pixels  (** accepts 3, 3.5c, 2m, 1i, 10p *)
  | Ot_color
  | Ot_font
  | Ot_cursor
  | Ot_bitmap
  | Ot_relief  (** raised | sunken | flat *)
  | Ot_boolean
  | Ot_anchor  (** n ne e se s sw w nw center *)

type spec = {
  switch : string;  (** command-line switch, e.g. ["-background"] *)
  db_name : string;  (** option database name, e.g. ["background"] *)
  db_class : string;  (** option database class, e.g. ["Background"] *)
  default : string;
  otype : option_type;
}

val spec :
  switch:string -> db:string -> cls:string -> default:string -> option_type -> spec

type relief = Raised | Sunken | Flat

type anchor = N | NE | E | SE | S | SW | W | NW | Center

val parse_geometry_spec : string -> (int * int) option
(** Parse a ["COLSxROWS"] / ["WIDTHxHEIGHT"] geometry option value. *)

val parse_pixels : string -> int option
(** Screen distance: bare numbers are pixels; suffix [c]entimetres,
    [m]illimetres, [i]nches, [p]oints (at the simulated 75 dpi). *)

(** {1 Widgets and applications} *)

type wdata = ..
(** Widget-private state; each widget class adds its own constructor. *)

type wdata += No_data

type widget = {
  path : string;
  wclass : wclass;
  win : Xid.t;
  app : app;
  config : (string, string) Hashtbl.t;  (** switch -> current value *)
  mutable destroyed : bool;
  (* Structure cache (paper §3.3): geometry mirrored from the server so
     widgets and winfo don't need round trips. *)
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
      (** accumulated damage for the pending repaint, in widget
          coordinates, coalesced to at most a handful of rects; [[]]
          while a pending repaint is a full redraw *)
  mutable data : wdata;
  mutable last_click : (int * int * int) option; (* button, time, count *)
  mutable press_history : (Event.t * int) list; (* newest first *)
}

and wclass = {
  cname : string;
  specs : spec list;
  subs : Tcl.Interp.sub_sig list;
      (** options beyond configure/cget and their arities: the widget
          command's usage errors and lint both read this table *)
  mutable configure_hook : widget -> unit;
      (** called after any option change and at creation *)
  mutable display : widget -> unit;  (** repaint into the X window *)
  mutable display_damaged : (widget -> Geom.rect -> unit) option;
      (** repaint only the given (widget-coordinate) clip, leaving
          retained drawing outside it alone; the clip is the damage as
          scheduled, so it may reach outside the window. Classes without
          one get a full redraw whenever damage is scheduled *)
  mutable handle_event : widget -> Event.t -> unit;
      (** the widget's built-in ("C code") event behaviour *)
  mutable subcommands : widget -> string list -> Tcl.Interp.result;
      (** runs the options in [subs]; receives the full word list and
          raises {!Tcl.Interp.Usage} for a call it does not accept *)
  mutable cleanup : widget -> unit;
}

and geom_mgr = {
  gm_name : string;
  gm_slave_request : widget -> unit;
      (** a managed window changed its requested size *)
  gm_lost_slave : widget -> unit;
}

and app = {
  mutable app_name : string;  (** unique on the display; used by [send] *)
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
  metrics : Metrics.t;  (** toolkit-side counters (see {!metrics_snapshot}) *)
  mutable focus_path : string option;
  comm_win : Xid.t;  (** hidden window used by the [send] protocol *)
  mutable send_serial : int;
  mutable title : string;
  mutable app_destroyed : bool;
  mutable error_handler : string -> unit;
      (** reports errors from event bindings and timers *)
  mutable configure_hooks : (widget -> unit) list;
      (** geometry managers re-layout when masters resize *)
  mutable pre_handlers : (app -> Event.delivery -> bool) list;
      (** protocol modules (send, selection) intercept events; [true] =
          consumed *)
  mutable drain_hooks : (unit -> int) list;
      (** deferred-work queues ({!update} runs these each sweep; the send
          mailbox drains here, never re-entrantly from an event handler);
          each returns the number of items processed *)
  mutable grab_path : string option;
      (** while set, pointer events outside this subtree are discarded
          (the [grab] command — modal dialogs and menus) *)
  sel : sel_state;
  send : send_state;  (** send-fabric state (mailbox, futures, policies) *)
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
      (** in-flight [selection get]: None = waiting *)
  sel_handlers : (string, string) Hashtbl.t;
      (** [selection handle] scripts by window path; a window's entry goes
          when the window is destroyed *)
}

and send_request = {
  sq_serial : string;
  sq_sender : Xid.t;  (** sender's communication window (reply address) *)
  sq_mode : string;  (** ["call"] (reply wanted) or ["async"] *)
  sq_script : string;
}
(** One incoming [send] request, parked in the receiver's mailbox until
    the event loop drains it. *)

and send_future = {
  ft_target : string;
  ft_comm : Xid.t;
  ft_serial : string;
  ft_deadline : int;  (** ms on the sender's dispatcher clock *)
  ft_timeout_ms : int;
      (** the span [ft_deadline] was set from, named in the timeout
          message *)
  mutable ft_state : (string * string) option;
      (** [None] while pending; [Some (state, value)] with state one of
          ok/error/died/timeout/overflow/denied/limited once resolved *)
}
(** A posted send awaiting its reply: a synchronous send, one target of a
    broadcast, or a [send -future] handle. *)

and send_state = {
  mailbox : send_request Queue.t;
  mutable mailbox_limit : int;
      (** bound on queued requests; beyond it new requests are refused
          with an overflow reply *)
  mutable self_fast_path : bool;
      (** evaluate self-sends directly instead of over the wire *)
  futures : (string, send_future) Hashtbl.t;  (** handle -> future *)
  mutable future_serial : int;
  mutable send_rng : int;  (** deterministic backoff-jitter state *)
  mutable guard_mode : guard_mode;
      (** where and under what limits incoming scripts evaluate *)
  mutable guard_time_ms : int;
      (** time limit armed per incoming request (0 = none) *)
  mutable guard_cmds : int;
      (** command budget armed per incoming request (0 = none) *)
  mutable draining : bool;
      (** true while a guarded incoming request is evaluating: requests
          drained nested inside it (a blocking script pumps the event
          loop) run under the outer request's armed limits instead of
          re-arming/disarming them *)
  mutable guard_interp : Tcl.Interp.t option;
      (** the lazily created [-safe] slave that [Guard_safe] evaluates
          incoming scripts in *)
}

(** Evaluation context for incoming send/mailbox scripts. *)
and guard_mode =
  | Guard_off  (** main interpreter, no limits (backward compatible) *)
  | Guard_limits  (** main interpreter, limits armed per request *)
  | Guard_safe  (** a [-safe] slave interpreter, limits armed *)

(** {1 Application lifecycle} *)

val create_app :
  ?app_class:string -> server:Server.t -> name:string -> unit -> app
(** Connect to the display, create the main window ["."], the send
    communication window, a fresh Tcl interpreter with the standard
    command set, and register the application name (made unique if taken)
    in the display registry. *)

val destroy_app : app -> unit
(** Forget every widget (which drops its packer, placer and selection
    state), leave the display registry and the server's client table, and
    close the connection. Nothing outside the app and its server refers to
    it, so an app that is dropped without this is reclaimed together with
    its server. *)

val absorb : app -> default:'a -> (unit -> 'a) -> 'a
(** Run the thunk, absorbing any {!Xsim.Xerror.X_error}: the error is
    recorded against the server's fault counters
    ({!Xsim.Server.note_absorbed}) and the call evaluates to [default].
    Widget code wraps individual server requests with this so operations
    on dead windows become no-ops and injected faults degrade gracefully
    instead of unwinding the event loop. *)

val local_apps : Server.t -> app list
(** All in-process applications on a display (the simulation's analogue of
    "other clients of the X server"); used by [send] and the selection to
    pump their event queues. The table lives in the server's
    {!Xsim.Server.clients} slot, so a display nobody references any more
    is reclaimed together with its applications. *)

val app_of_comm : Server.t -> Xid.t -> app option
(** Find a local application by its communication window. *)

(** {1 Widgets} *)

val main_widget : app -> widget

val lookup : app -> string -> widget option

val lookup_exn : app -> string -> widget
(** @raise Tcl.Interp.Tcl_failure "bad window path name" *)

val make_widget :
  app -> path:string -> ?data:wdata -> wclass -> args:string list -> widget
(** Create the window, install the widget-private [data] (before the
    class's configure hook first runs), apply initial configuration
    (command-line args, then option database, then class defaults) and
    register the widget command.
    @raise Tcl.Interp.Tcl_failure on bad paths or options. *)

val destroy_widget : widget -> unit
(** Destroy the widget and all its descendants (deepest first), delete
    their widget commands and server windows. Destroying ["."] destroys
    the application. *)

val children : widget -> widget list
(** Direct children, by path structure. *)

val make_class :
  ?subs:Tcl.Interp.sub_sig list ->
  name:string ->
  specs:spec list ->
  unit ->
  wclass
(** A class skeleton with no-op behaviour; callers then set the mutable
    fields they need. *)

val container_class : name:string -> wclass
(** A frame-like class: fills its background, draws an optional relief. *)

(** {1 Configuration} *)

val cget : widget -> string -> string
(** Current (textual) value of an option. *)

val find_spec : widget -> string -> spec
(** Resolve a possibly-abbreviated switch. @raise Tcl.Interp.Tcl_failure *)

val get_string : widget -> string -> string
val get_int : widget -> string -> int
val get_pixels : widget -> string -> int
val get_boolean : widget -> string -> bool
val get_relief : widget -> string -> relief
val get_anchor : widget -> string -> anchor
val get_color : widget -> string -> Color.t
val get_font : widget -> string -> Font.t

val widget_gc : widget -> fg:string -> ?font:string -> unit -> Gcontext.t
(** A cached GC for drawing, with [fg]/[font] given as option switches
    (e.g. [~fg:"-foreground"]) or literal names. *)

(** {1 Geometry plumbing} *)

val request_size : widget -> width:int -> height:int -> unit
(** A widget's preferred size (paper §3.4): forwarded to its geometry
    manager; applied directly when the widget is the main window. *)

val move_resize : widget -> x:int -> y:int -> width:int -> height:int -> unit
(** Used by geometry managers to place a slave. Updates the structure
    cache immediately. *)

val map_widget : widget -> unit
val unmap_widget : widget -> unit

val schedule_redraw : widget -> unit
(** Coalesced: the class display procedure runs from the idle queue. *)

val schedule_damage : widget -> Geom.rect -> unit
(** Like {!schedule_redraw}, but records that only [rect] (widget
    coordinates) changed. Damage rects union-coalesce onto the pending
    repaint; at the idle sweep the class {!wclass.display_damaged} hook
    receives the accumulated clip. Falls back to a full redraw when the
    class has no damaged-display hook, when a full redraw was also
    scheduled, or when the damage covers most of the widget (the deopt
    threshold — see the [tk.damage.*] counters). *)

(** {1 Events and bindings} *)

val bind_widget : app -> path:string -> sequence:string -> script:string -> unit
(** Create/replace/delete (empty script) a binding.
    @raise Tcl.Interp.Tcl_failure on pattern syntax errors. *)

val binding_script : app -> path:string -> sequence:string -> string option

val bound_sequences : app -> path:string -> string list

val process_pending : app -> int
(** Drain the X event queue: structure-cache updates, class handlers,
    binding execution, focus redirection. Returns events processed. *)

val update : app -> unit
(** [process_pending] + due timers + idle callbacks (repeated until
    quiescent) — the Tcl [update] command. *)

val update_all : Server.t -> unit
(** [update] every local app on the display (lets cross-application
    protocols make progress deterministically in tests). *)

val mainloop : app -> unit
(** Loop until the application is destroyed: X events, timers, file
    handlers, idle callbacks. *)

(** {1 Metrics}

    One registry over every counter the stack keeps: the connection's
    request {!Xsim.Server.stats}, resource-cache hits/misses/fallbacks,
    redraw scheduling/coalescing, binding dispatches, dispatcher
    timer/idle counts and sweep latency, and the display's fault
    counters. The [xstat] Tcl command and the bench JSON emitter are
    thin wrappers over this. *)

val metrics_snapshot : app -> (string * string) list
(** Current value of every counter, as name/value pairs (values are
    decimal integers except the [sweep_ms_*] latencies). *)

val metric : app -> string -> string option
(** One counter from {!metrics_snapshot}, by name. *)

val reset_metrics : app -> unit
(** Zero the per-application counters (request stats, cache counters,
    redraw/binding counters, dispatcher counters). Display-global fault
    counters are left alone — other clients' accounting rides on them. *)

val eval_callback : app -> ?context:string -> string -> unit
(** Evaluate a Tcl script triggered by an event/timer; errors go to
    [error_handler]. *)

val set_focus : app -> string option -> unit
(** Tk-level focus (paper §3.7): keystrokes anywhere in the application are
    redirected to this widget. *)

(** {1 The application registry (paper §6, sharded)}

    Application names live in a fixed set of root-window properties
    ([TK_REGISTRY_S00] … [TK_REGISTRY_S31]) keyed by a hash of the name,
    so a single-name lookup reads one shard — O(1) even with 1000
    registered interpreters — instead of scanning one monolithic
    property. Every read and write garbage-collects {e ghosts}: entries
    whose communication window no longer exists because the peer crashed
    without cleanup. *)

val registry_shard_property : int -> string
(** Name of the [k]-th shard's root-window property. *)

val shard_of_name : string -> int
(** Which shard a name hashes to (FNV-1a; deterministic across runs). *)

val lookup_registry : app -> string -> Xid.t option
(** Communication window registered under [name], reading (and
    ghost-collecting) only the one shard the name hashes to. *)

val lookup_registry_raw : app -> string -> Xid.t option
(** Like {!lookup_registry} but without liveness pings or garbage
    collection — one property read, O(1) requests at any fleet size. The
    result may be stale; [send] discovers that when posting fails and
    only then pays for the pinging lookup. *)

val register_name : app -> name:string -> comm:Xid.t -> string
(** Register the application under [name], probing [name #2], [name #3]…
    until unique on the display; returns the name actually registered. *)

val read_registry : app -> (string * Xid.t) list
(** The whole registry (all shards), sorted by name — the aggregate
    order is stable under shard layout and registration order. Ghost
    entries are pruned from the result and garbage-collected out of
    their shard property, so [winfo interps] never lists ghosts. *)

val write_registry : app -> (string * Xid.t) list -> unit
(** Replace the whole registry, rebucketing entries into their shards.
    Ghost entries (dead communication windows) are filtered out before
    writing; robustness tests that need a genuinely stale entry must
    forge the raw shard property with {!Xsim.Server.change_property}. *)
