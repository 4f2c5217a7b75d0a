open Xsim

let script_property = "TK_SEND_SCRIPT"
let result_property_prefix = "TK_SEND_RESULT_"

let default_timeout_ms = 5000
let max_backoff_ms = 64

let interps app = List.map fst (Core.read_registry app)

(* Deterministic backoff jitter: a per-app LCG seeded from the connection
   id at create_app time, so retry schedules are reproducible run to run
   but distinct app to app (no lock-step thundering herd). *)
let jitter app bound =
  let s = app.Core.send in
  s.Core.send_rng <- ((s.Core.send_rng * 1103515245) + 12345) land 0x3FFFFFFF;
  if bound <= 0 then 0 else s.Core.send_rng mod bound

(* ------------------------------------------------------------------ *)
(* Outcomes *)

(* One send's terminal state, from the receiver's evaluation to the
   sender's result.  The failure taxonomy is deliberately disjoint:
   [died] (liveness ping failed), [timeout] (alive but unresponsive past
   the deadline), [overflow] (refused by the target's mailbox before
   evaluation), [denied] (the script reached a hidden command in the
   target's guard context), [limited] (the target's resource limits cut
   the script short), [error] (the remote script raised an ordinary Tcl
   error). *)
type outcome =
  | O_ok of string
  | O_error of string
  | O_died of string
  | O_timeout of string
  | O_overflow of string
  | O_denied of string
  | O_limited of string

let outcome_state = function
  | O_ok _ -> "ok"
  | O_error _ -> "error"
  | O_died _ -> "died"
  | O_timeout _ -> "timeout"
  | O_overflow _ -> "overflow"
  | O_denied _ -> "denied"
  | O_limited _ -> "limited"

let outcome_value = function
  | O_ok v | O_error v | O_died v | O_timeout v | O_overflow v | O_denied v
  | O_limited v ->
    v

let malformed_reply = O_error "malformed send reply"

(* Reads back a reply's [{state value}], and a settled send's stored
   state. *)
let outcome_of state value =
  match state with
  | "ok" -> O_ok value
  | "error" -> O_error value
  | "died" -> O_died value
  | "timeout" -> O_timeout value
  | "overflow" -> O_overflow value
  | "denied" -> O_denied value
  | "limited" -> O_limited value
  | _ -> malformed_reply

(* ------------------------------------------------------------------ *)
(* Receiver side: mailbox, drain, replies *)

(* A reply is the list [{state value}] of the request's outcome.  Overflow
   and limited are deliberately distinct states with distinct messages:
   the first is the *mailbox* refusing before evaluation, the second the
   *evaluator* cutting a runaway short. *)
let reply app ~sender ~serial o =
  (* The sender may die between posting the script and our reply: writing
     the result property then raises BadWindow, which we absorb (there is
     nobody left to answer). *)
  Core.absorb app ~default:() @@ fun () ->
  let prop =
    Server.intern_atom app.Core.conn (result_property_prefix ^ serial)
  in
  Server.change_property app.Core.conn sender ~prop ~ptype:Atom.string
    (Tcl.Tcl_list.format [ outcome_state o; outcome_value o ])

let limited_msg app kind =
  Printf.sprintf "script in application \"%s\" exceeded its %s limit"
    app.Core.app_name
    (match kind with
    | Tcl.Interp.Limit_time -> "time"
    | Tcl.Interp.Limit_commands -> "command")

(* The interpreter incoming scripts evaluate in under [Guard_safe]: a
   [-safe] slave of the main interpreter named "send", created lazily
   and re-created if a script deleted it ([interp delete send] from the
   master side is legal — the guard just makes a fresh one). *)
let guard_interp app =
  let s = app.Core.send in
  let master = app.Core.interp in
  let cached =
    match s.Core.guard_interp with
    | Some gi -> (
      match Tcl.Interp.find_slave master "send" with
      | Some live when live == gi -> Some gi
      | Some _ | None -> None)
    | None -> None
  in
  match cached with
  | Some gi -> gi
  | None -> (
    ignore (Tcl.Interp.delete_slave master "send");
    match Tcl.Builtins.create_slave ~master ~safe:true "send" with
    | Ok gi ->
      s.Core.guard_interp <- Some gi;
      gi
    | Error _ ->
      (* Unreachable: the name was just deleted.  Fall back to the main
         interpreter rather than dropping the request. *)
      master)

(* Remote scripts execute at global scope, whatever the receiving
   application happened to be doing.  The self-send fast path calls this
   same function, so the two paths are differential-identical (result,
   status, errorInfo, guard behavior).  Under [Guard_limits]/[Guard_safe]
   the configured limits are armed around the evaluation and disarmed
   after, so a runaway script is cut short without leaving the
   interpreter limited for its own user. *)
let eval_remote app script =
  let s = app.Core.send in
  let m = app.Core.metrics in
  let interp, guarded =
    match s.Core.guard_mode with
    | Core.Guard_off -> (app.Core.interp, false)
    | Core.Guard_limits -> (app.Core.interp, true)
    | Core.Guard_safe -> (guard_interp app, true)
  in
  (* Arm limits only for the outermost request: a request evaluated
     nested inside another (a blocking script pumps the event loop,
     which drains again) runs under the outer request's armed budget —
     re-arming here would reset the outer script's deadline, and
     disarming on the way out would strip it. *)
  let armed = guarded && not s.Core.draining in
  let denied_before = Tcl.Interp.denied_count interp in
  if armed then begin
    s.Core.draining <- true;
    if s.Core.guard_time_ms > 0 then
      Tcl.Interp.set_time_limit interp s.Core.guard_time_ms;
    if s.Core.guard_cmds > 0 then
      Tcl.Interp.set_command_limit interp s.Core.guard_cmds
  end;
  let disarm () =
    if armed then begin
      Tcl.Interp.set_time_limit interp 0;
      Tcl.Interp.set_command_limit interp 0;
      s.Core.draining <- false
    end
  in
  let o =
    match
      Tcl.Interp.with_level interp 0 (fun () -> Tcl.Interp.eval interp script)
    with
    | Tcl.Interp.Tcl_error, value -> (
      match Tcl.Interp.limit_tripped interp with
      | Some k -> O_limited (limited_msg app k)
      | None ->
        if Tcl.Interp.denied_count interp > denied_before then O_denied value
        else O_error value)
    | _, value -> O_ok value
    | exception e ->
      disarm ();
      raise e
  in
  disarm ();
  (* The limit/unwind error has been delivered into the reply; it must
     not keep unwinding the (self-path) sender's own catch frames. *)
  if armed then Tcl.Interp.clear_unwinding interp;
  (match o with
  | O_denied _ -> m.Metrics.recv_denied <- m.Metrics.recv_denied + 1
  | O_limited _ -> m.Metrics.recv_limited <- m.Metrics.recv_limited + 1
  | _ -> ());
  o

let evaluate_request app (rq : Core.send_request) =
  let o = eval_remote app rq.Core.sq_script in
  if rq.Core.sq_mode <> "async" then
    reply app ~sender:rq.Core.sq_sender ~serial:rq.Core.sq_serial o

(* Accept or refuse one parked request.  Refusals answer immediately with
   an overflow reply (asyncs are dropped silently — there is nobody
   waiting), so a sender learns about backpressure without waiting out
   its deadline. *)
let enqueue_request app (rq : Core.send_request) =
  let s = app.Core.send in
  let m = app.Core.metrics in
  if Queue.length s.Core.mailbox >= s.Core.mailbox_limit then begin
    m.Metrics.mailbox_rejected <- m.Metrics.mailbox_rejected + 1;
    if rq.Core.sq_mode <> "async" then
      reply app ~sender:rq.Core.sq_sender ~serial:rq.Core.sq_serial
        (O_overflow
           (Printf.sprintf "mailbox of application \"%s\" is full (limit %d)"
              app.Core.app_name s.Core.mailbox_limit))
  end
  else begin
    Queue.add rq s.Core.mailbox;
    m.Metrics.mailbox_enqueued <- m.Metrics.mailbox_enqueued + 1;
    let depth = Queue.length s.Core.mailbox in
    if depth > m.Metrics.mailbox_high_water then
      m.Metrics.mailbox_high_water <- depth
  end

(* Requests are appended to the script property as elements of a Tcl
   list, so a burst from many senders accumulates losslessly; one read
   takes the whole batch. *)
let parse_record str =
  match Tcl.Tcl_list.parse str with
  | Ok [ serial; sender; mode; script ] -> (
    match int_of_string_opt sender with
    | Some w ->
      Some
        {
          Core.sq_serial = serial;
          sq_sender = w;
          sq_mode = mode;
          sq_script = script;
        }
    | None -> None)
  | Ok _ | Error _ -> None

let handle_incoming app =
  Core.absorb app ~default:() @@ fun () ->
  let prop = Server.intern_atom app.Core.conn script_property in
  match Server.get_property app.Core.conn app.Core.comm_win ~prop with
  | None -> ()
  | Some p -> (
    Server.delete_property app.Core.conn app.Core.comm_win ~prop;
    match Tcl.Tcl_list.parse p.Window.prop_data with
    | Ok records ->
      List.iter
        (fun r ->
          match parse_record r with
          | Some rq -> enqueue_request app rq
          | None -> ())
        records
    | Error _ -> ())

(* The event handler only parks requests; evaluation happens when the
   event loop drains the mailbox (Core.update runs the drain hooks), so
   a remote script never executes re-entrantly in the middle of another
   event handler. *)
let pre_handler app (d : Event.delivery) =
  if d.Event.window <> app.Core.comm_win then false
  else
    match d.Event.event with
    | Event.Property_notify { prop_deleted = false; prop_atom } ->
      (match Server.atom_name app.Core.conn prop_atom with
      | Some name when name = script_property -> handle_incoming app
      | Some _ | None -> ());
      true
    | Event.Property_notify { prop_deleted = true; _ } -> true
    | _ -> false

let drain_mailbox app =
  let s = app.Core.send in
  let m = app.Core.metrics in
  (* Snapshot the depth: requests enqueued by scripts we evaluate here
     wait for the next sweep, keeping each drain bounded.  A drained
     script that blocks (a synchronous send or [after]) pumps the event
     loop, which may drain again — that nesting is what lets nested
     RPC bottom out, and [eval_remote] makes it safe by arming resource
     limits only at the outermost request (see [Core.draining]). *)
  let n = Queue.length s.Core.mailbox in
  for _ = 1 to n do
    match Queue.take_opt s.Core.mailbox with
    | None -> ()
    | Some rq ->
      m.Metrics.mailbox_drained <- m.Metrics.mailbox_drained + 1;
      evaluate_request app rq
  done;
  n

(* ------------------------------------------------------------------ *)
(* Sender side: posting, polling, liveness *)

let fresh_serial app =
  app.Core.send_serial <- app.Core.send_serial + 1;
  string_of_int app.Core.send_serial

let post app ~target_comm ~serial ~mode script =
  let prop = Server.intern_atom app.Core.conn script_property in
  Server.append_property app.Core.conn target_comm ~prop ~ptype:Atom.string
    (" "
    ^ Tcl.Tcl_list.format
        [
          Tcl.Tcl_list.format
            [ serial; string_of_int app.Core.comm_win; mode; script ];
        ])

let take_reply app serial =
  let prop =
    Server.intern_atom app.Core.conn (result_property_prefix ^ serial)
  in
  match Server.get_property app.Core.conn app.Core.comm_win ~prop with
  | None -> None
  | Some p -> (
    Server.delete_property app.Core.conn app.Core.comm_win ~prop;
    match Tcl.Tcl_list.parse p.Window.prop_data with
    | Ok [ state; value ] -> Some (outcome_of state value)
    | Ok _ | Error _ -> Some malformed_reply)

(* Is the peer behind this communication window still alive?  For
   in-process peers (every client in the simulation) this is an O(1)
   table lookup; the X liveness ping is the fallback for windows we
   cannot map to a local application. *)
let peer_alive app comm =
  match Core.app_of_comm app.Core.server comm with
  | Some peer ->
    (not peer.Core.app_destroyed) && Server.connection_alive peer.Core.conn
  | None ->
    Core.absorb app ~default:true @@ fun () ->
    Server.window_exists app.Core.conn comm

(* Make progress while waiting: pump ourselves (drains our mailbox, so
   nested sends back to us keep working) and the target — not the whole
   display, which would make every send O(clients) at fleet scale. *)
let pump app comm =
  if
    (not app.Core.app_destroyed)
    && Server.connection_alive app.Core.conn
  then Core.update app;
  match Core.app_of_comm app.Core.server comm with
  | Some peer
    when (not peer.Core.app_destroyed)
         && Server.connection_alive peer.Core.conn ->
    Core.update peer
  | Some _ | None -> ()

let died_msg target = Printf.sprintf "target application \"%s\" died" target

let timeout_msg target timeout_ms =
  Printf.sprintf
    "send to application \"%s\" timed out after %d ms (interpreter is \
     alive but unresponsive)"
    target timeout_ms

(* Count one terminal outcome against the sender's tk.send.* metrics. *)
let count_outcome app o =
  let m = app.Core.metrics in
  match o with
  | O_ok _ -> m.Metrics.sends_ok <- m.Metrics.sends_ok + 1
  | O_error _ -> m.Metrics.sends_error <- m.Metrics.sends_error + 1
  | O_died _ -> m.Metrics.send_died <- m.Metrics.send_died + 1
  | O_timeout _ -> m.Metrics.send_timeouts <- m.Metrics.send_timeouts + 1
  | O_overflow _ -> m.Metrics.send_overflows <- m.Metrics.send_overflows + 1
  | O_denied _ -> m.Metrics.sends_denied <- m.Metrics.sends_denied + 1
  | O_limited _ -> m.Metrics.sends_limited <- m.Metrics.sends_limited + 1

(* Post to a possibly-stale registry entry.  The fast lookup does not
   ping entries, so the target may have crashed since it registered: the
   post then raises, and we re-read the (ghost-collecting) registry once
   and retry a fresh entry before giving up.  A [comm] the caller already
   read from the ghost-collected registry is posted to once. *)
type posted =
  | P_posted of Xid.t  (** the comm window actually posted to *)
  | P_died  (** registered but unreachable (fresh retry included) *)
  | P_unknown  (** never registered *)

let post_with_retry ?comm app ~target ~serial ~mode script =
  let attempt comm =
    match post app ~target_comm:comm ~serial ~mode script with
    | () -> P_posted comm
    | exception Xerror.X_error e ->
      Server.note_absorbed app.Core.server e;
      P_died
  in
  match comm with
  | Some comm -> attempt comm
  | None -> (
    match Core.lookup_registry_raw app target with
    | None -> P_unknown
    | Some comm -> (
      match attempt comm with
      | P_died -> (
        match Core.lookup_registry app target with
        | Some comm' when comm' <> comm -> attempt comm'
        | Some _ -> P_died
        | None ->
          (* The stale entry was just garbage-collected and nothing took
             its place: the name is simply no longer registered. *)
          P_unknown)
      | posted -> posted))

let no_interp_msg target =
  Printf.sprintf "no registered interpreter named \"%s\"" target

let is_self app target =
  target = app.Core.app_name && app.Core.send.Core.self_fast_path

(* ------------------------------------------------------------------ *)
(* Awaited sends: a sync send, each broadcast target and each future is
   one Core.send_future record *)

(* Begin one awaited send: count it, take its deadline, then evaluate a
   self-send in place or post the script.  A self-send, or a target that
   died racing the post, comes back already settled; [Error] means no
   interpreter has the name. *)
let start ?(timeout_ms = default_timeout_ms) ?deadline ?comm app ~target
    script =
  let m = app.Core.metrics in
  m.Metrics.sends <- m.Metrics.sends + 1;
  let deadline =
    match deadline with
    | Some d -> d
    | None -> Dispatch.now_ms app.Core.disp + timeout_ms
  in
  let serial = fresh_serial app in
  let record ?settled comm =
    Ok
      {
        Core.ft_target = target;
        ft_comm = comm;
        ft_serial = serial;
        ft_deadline = deadline;
        ft_timeout_ms = timeout_ms;
        ft_state =
          Option.map (fun o -> (outcome_state o, outcome_value o)) settled;
      }
  in
  if is_self app target then begin
    m.Metrics.sends_self <- m.Metrics.sends_self + 1;
    record ~settled:(eval_remote app script) app.Core.comm_win
  end
  else
    match post_with_retry ?comm app ~target ~serial ~mode:"call" script with
    | P_posted comm -> record comm
    | P_died -> record ~settled:(O_died (died_msg target)) Xid.none
    | P_unknown -> Error (no_interp_msg target)

(* What a send has come to, if anything yet: its stored state, its reply,
   its peer's death or its passed deadline. *)
let poll app (ft : Core.send_future) =
  match ft.Core.ft_state with
  | Some (state, value) -> Some (outcome_of state value)
  | None -> (
    match take_reply app ft.Core.ft_serial with
    | Some _ as reply -> reply
    | None ->
      if not (peer_alive app ft.Core.ft_comm) then
        Some (O_died (died_msg ft.Core.ft_target))
      else if Dispatch.now_ms app.Core.disp >= ft.Core.ft_deadline then
        Some (O_timeout (timeout_msg ft.Core.ft_target ft.Core.ft_timeout_ms))
      else None)

(* Drive a send to its outcome: pump the sender and the target, poll, and
   back off exponentially between polls.  Given [repost], an overflow
   reply reposts that script after a jittered backoff, under the same
   deadline. *)
let await ?repost app (ft : Core.send_future) =
  let disp = app.Core.disp in
  let rec loop backoff =
    let next = min (backoff * 2) max_backoff_ms in
    if ft.Core.ft_state = None then pump app ft.Core.ft_comm;
    match (poll app ft, repost) with
    | Some (O_overflow _), Some script
      when Dispatch.now_ms disp < ft.Core.ft_deadline -> (
      let m = app.Core.metrics in
      m.Metrics.send_retries <- m.Metrics.send_retries + 1;
      Dispatch.sleep_ms disp (backoff + jitter app backoff);
      match
        post app ~target_comm:ft.Core.ft_comm ~serial:ft.Core.ft_serial
          ~mode:"call" script
      with
      | () -> loop next
      | exception Xerror.X_error e ->
        Server.note_absorbed app.Core.server e;
        O_died (died_msg ft.Core.ft_target))
    | Some o, _ -> o
    | None, _ ->
      Dispatch.sleep_ms disp backoff;
      loop next
  in
  loop 1

(* Await a started send and count its outcome; a name nobody registered
   ends as died. *)
let finish ?repost app started =
  let o =
    match started with
    | Ok ft -> await ?repost app ft
    | Error msg -> O_died msg
  in
  count_outcome app o;
  o

(* ------------------------------------------------------------------ *)
(* Synchronous send *)

let send_outcome ?timeout_ms ?(retry = false) app ~target script =
  finish
    ?repost:(if retry then Some script else None)
    app
    (start ?timeout_ms app ~target script)

let send ?timeout_ms ?retry app ~target script =
  match send_outcome ?timeout_ms ?retry app ~target script with
  | O_ok v -> Ok v
  | O_error v | O_died v | O_timeout v | O_overflow v | O_denied v
  | O_limited v ->
    Error v

(* ------------------------------------------------------------------ *)
(* Asynchronous (fire-and-forget) send *)

let send_async app ~target script =
  let m = app.Core.metrics in
  m.Metrics.sends <- m.Metrics.sends + 1;
  m.Metrics.sends_async <- m.Metrics.sends_async + 1;
  if is_self app target then begin
    (* Self-sends still defer to the mailbox: async means "after I return
       to the event loop", even at home. *)
    m.Metrics.sends_self <- m.Metrics.sends_self + 1;
    enqueue_request app
      {
        Core.sq_serial = fresh_serial app;
        sq_sender = app.Core.comm_win;
        sq_mode = "async";
        sq_script = script;
      };
    Ok ()
  end
  else
    let serial = fresh_serial app in
    match post_with_retry app ~target ~serial ~mode:"async" script with
    | P_posted _ -> Ok ()
    | P_died ->
      m.Metrics.send_died <- m.Metrics.send_died + 1;
      Error (died_msg target)
    | P_unknown -> Error (no_interp_msg target)

(* ------------------------------------------------------------------ *)
(* Futures *)

let resolve_future app (ft : Core.send_future) o =
  ft.Core.ft_state <- Some (outcome_state o, outcome_value o);
  count_outcome app o;
  let m = app.Core.metrics in
  m.Metrics.futures_resolved <- m.Metrics.futures_resolved + 1

(* Resolve a pending future if it can be; true when this call did. *)
let check_future app (ft : Core.send_future) =
  ft.Core.ft_state = None
  &&
  match poll app ft with
  | Some o ->
    resolve_future app ft o;
    true
  | None -> false

let check_futures app =
  Hashtbl.fold
    (fun _ ft n -> if check_future app ft then n + 1 else n)
    app.Core.send.Core.futures 0

let pending_futures app =
  Hashtbl.fold
    (fun _ ft n -> if ft.Core.ft_state = None then n + 1 else n)
    app.Core.send.Core.futures 0

let send_future ?timeout_ms app ~target script =
  match start ?timeout_ms app ~target script with
  | Error msg -> Error msg
  | Ok ft ->
    let s = app.Core.send in
    let m = app.Core.metrics in
    s.Core.future_serial <- s.Core.future_serial + 1;
    let handle = Printf.sprintf "future#%d" s.Core.future_serial in
    Hashtbl.replace s.Core.futures handle ft;
    m.Metrics.futures_created <- m.Metrics.futures_created + 1;
    (* Born settled (a self-send, or a target that died racing the post):
       resolved now, so no future is ever lost to a crash. *)
    Option.iter
      (fun (state, value) -> resolve_future app ft (outcome_of state value))
      ft.Core.ft_state;
    Ok handle

(* Resolve a handle, blocking until its future settles or polling once; a
   resolved handle is consumed.  The drain hook may resolve the future
   while [await] pumps, so only an outcome still unstored is resolved
   here. *)
let future app ~block handle =
  let futures = app.Core.send.Core.futures in
  match Hashtbl.find_opt futures handle with
  | None -> Error (Printf.sprintf "no such send future \"%s\"" handle)
  | Some ft -> (
    if block then begin
      let o = await app ft in
      if ft.Core.ft_state = None then resolve_future app ft o
    end
    else ignore (check_future app ft);
    match ft.Core.ft_state with
    | None -> Ok None
    | Some resolved ->
      Hashtbl.remove futures handle;
      Ok (Some resolved))

let wait_future app handle =
  Result.map Option.get (future app ~block:true handle)

let future_result app handle = future app ~block:false handle

(* ------------------------------------------------------------------ *)
(* Broadcast / multicast *)

(* Post to every matching peer first, then collect replies: the fan-out
   overlaps all the evaluations, and one dead or unresponsive peer costs
   its own outcome — never the whole broadcast. *)
let broadcast ?(timeout_ms = default_timeout_ms) ?pattern app script =
  let m = app.Core.metrics in
  m.Metrics.sends_broadcast <- m.Metrics.sends_broadcast + 1;
  let entries = Core.read_registry app in
  let entries =
    match pattern with
    | None -> entries
    | Some p ->
      List.filter (fun (name, _) -> Tcl.Glob.matches ~pattern:p name) entries
  in
  let deadline = Dispatch.now_ms app.Core.disp + timeout_ms in
  List.map
    (fun (name, comm) ->
      (name, start ~timeout_ms ~deadline ~comm app ~target:name script))
    entries
  |> List.map (fun (name, started) ->
         let o = finish app started in
         (name, outcome_state o, outcome_value o))

(* ------------------------------------------------------------------ *)
(* The Tcl-level [send] command *)

let send_signature =
  Tcl.Interp.(
    signature "send" 1
      ~switches:
        [
          Flag "-async";
          Flag "-future";
          Flag "-retry";
          Value "-timeout";
          Flag "-all";
          Value "-glob";
          Flag "--";
        ]
      ~subs:
        [
          subsig "guard" 0 ~max:1;
          subsig "limit" 1 ~max:2;
          subsig "mailbox" 0 ~max:1;
          subsig "result" 1 ~max:1;
          subsig "wait" 1 ~max:1;
        ]
      ~open_subs:true
      ~usage:
        "send ?-async? ?-future? ?-retry? ?-timeout ms? ?-all? ?-glob \
         pattern? ?--? ?appName? arg ?arg ...?")

let command app : Tcl.Interp.command =
 fun _interp words ->
  let err msg = (Tcl.Interp.Tcl_error, msg) in
  match words with
  | [ _; "wait"; handle ] -> (
    match wait_future app handle with
    | Error msg -> err msg
    | Ok ("ok", value) -> Tcl.Interp.ok value
    | Ok (_, value) -> err value)
  | [ _; "result"; handle ] -> (
    match future_result app handle with
    | Error msg -> err msg
    | Ok None -> Tcl.Interp.ok "pending"
    | Ok (Some (state, value)) ->
      Tcl.Interp.ok (Tcl.Tcl_list.format [ state; value ]))
  | [ _; "guard" ] ->
    Tcl.Interp.ok
      (match app.Core.send.Core.guard_mode with
      | Core.Guard_off -> "off"
      | Core.Guard_limits -> "limits"
      | Core.Guard_safe -> "safe")
  | [ _; "guard"; mode ] -> (
    match mode with
    | "off" ->
      app.Core.send.Core.guard_mode <- Core.Guard_off;
      Tcl.Interp.ok ""
    | "limits" | "on" ->
      app.Core.send.Core.guard_mode <- Core.Guard_limits;
      Tcl.Interp.ok ""
    | "safe" ->
      app.Core.send.Core.guard_mode <- Core.Guard_safe;
      Tcl.Interp.ok ""
    | _ ->
      err
        (Printf.sprintf "bad guard mode \"%s\": should be off, limits, or safe"
           mode))
  | [ _; "limit"; kind ] -> (
    match kind with
    | "time" -> Tcl.Interp.ok (string_of_int app.Core.send.Core.guard_time_ms)
    | "commands" -> Tcl.Interp.ok (string_of_int app.Core.send.Core.guard_cmds)
    | _ ->
      err (Printf.sprintf "bad limit type \"%s\": should be time or commands" kind))
  | [ _; "limit"; kind; n ] -> (
    match (kind, int_of_string_opt n) with
    | "time", Some v when v >= 0 ->
      app.Core.send.Core.guard_time_ms <- v;
      Tcl.Interp.ok ""
    | "commands", Some v when v >= 0 ->
      app.Core.send.Core.guard_cmds <- v;
      Tcl.Interp.ok ""
    | ("time" | "commands"), _ ->
      err (Printf.sprintf "expected non-negative integer but got \"%s\"" n)
    | _ ->
      err (Printf.sprintf "bad limit type \"%s\": should be time or commands" kind))
  | [ _; "mailbox" ] ->
    Tcl.Interp.ok (string_of_int app.Core.send.Core.mailbox_limit)
  | [ _; "mailbox"; limit ] -> (
    match int_of_string_opt limit with
    | Some n when n > 0 ->
      app.Core.send.Core.mailbox_limit <- n;
      Tcl.Interp.ok ""
    | Some _ | None ->
      err (Printf.sprintf "expected positive integer but got \"%s\"" limit))
  | _ :: args -> (
    let found, rest = Tcl.Interp.switches send_signature args in
    let glob = List.assoc_opt "-glob" found in
    let timeout_ms =
      match List.assoc_opt "-timeout" found with
      | None -> None
      | Some ms -> (
        match int_of_string_opt ms with
        | Some n when n > 0 -> Some n
        | Some _ | None -> Tcl.Interp.failf "bad -timeout value \"%s\"" ms)
    in
    let async = List.mem_assoc "-async" found
    and future = List.mem_assoc "-future" found in
    if List.mem_assoc "-all" found || glob <> None then begin
      match rest with
      | [] -> raise Tcl.Interp.Usage
      | script_words ->
        if async || future then
          err "-all/-glob cannot be combined with -async or -future"
        else
          let script = String.concat " " script_words in
          let results = broadcast ?timeout_ms ?pattern:glob app script in
          Tcl.Interp.ok
            (Tcl.Tcl_list.format
               (List.map
                  (fun (name, state, value) ->
                    Tcl.Tcl_list.format [ name; state; value ])
                  results))
    end
    else
      match rest with
      | target :: (_ :: _ as script_words) -> (
        let script = String.concat " " script_words in
        if async && future then err "-async and -future are mutually exclusive"
        else if async then (
          match send_async app ~target script with
          | Ok () -> Tcl.Interp.ok ""
          | Error msg -> err msg)
        else if future then (
          match send_future ?timeout_ms app ~target script with
          | Ok handle -> Tcl.Interp.ok handle
          | Error msg -> err msg)
        else
          let retry = List.mem_assoc "-retry" found in
          match send ?timeout_ms ~retry app ~target script with
          | Ok value -> Tcl.Interp.ok value
          | Error msg -> err msg)
      | _ -> raise Tcl.Interp.Usage)
  | [] -> raise Tcl.Interp.Usage

let install app =
  app.Core.pre_handlers <- pre_handler :: app.Core.pre_handlers;
  app.Core.drain_hooks <-
    (fun () -> drain_mailbox app + check_futures app)
    :: app.Core.drain_hooks;
  Tcl.Interp.register app.Core.interp send_signature
    (command app)
