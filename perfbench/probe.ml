(* Spans at the layer boundaries, recorded by the benchmark's own calls
   into each layer, plus GC phase spans from the runtime's event ring.

   Every span has a kind, start, end, parent and op id.  The [op] span is
   the root of one operation; every span opened while it is open shares
   its id.  Spans live in off-heap Bigarrays, so recording neither
   allocates on the OCaml heap nor grows the heap the GC has to scan, and
   they are analysed once, when the run ends.  With tracing off, [span]
   is a flag test and a direct call. *)

external now_ns : unit -> int = "perfbench_now_ns" [@@noalloc]

let op = 0
let tcl_eval = 1
let tk_dispatch = 2
let tk_idle = 3
let xsim_inject = 4
let tk_app_join = 5
let gc_minor = 6
let gc_major_slice = 7

let kind_names =
  [|
    "op"; "tcl.eval"; "tk.dispatch"; "tk.idle"; "xsim.inject"; "tk.app_join";
    "gc.minor"; "gc.major_slice";
  |]

let kinds = Array.length kind_names

module A = Bigarray.Array1

type store = (int, Bigarray.int_elt, Bigarray.c_layout) A.t

let alloc n : store = A.create Bigarray.int Bigarray.c_layout n

let kind = ref (alloc 0)
let start = ref (alloc 0)
let stop = ref (alloc 0)
let parent = ref (alloc 0)
let owner = ref (alloc 0) (* op id; for GC spans, the op polled after *)
let count = ref 0

let grow () =
  let cap = max 4096 (2 * A.dim !kind) in
  List.iter
    (fun r ->
      let a = alloc cap in
      A.blit !r (A.sub a 0 (A.dim !r));
      r := a)
    [ kind; start; stop; parent; owner ]

let enabled = ref false
let stack = Array.make 64 (-1)
let depth = ref 0
let current_op = ref 0

let record k ~t0 ~t1 ~par =
  if !count = A.dim !kind then grow ();
  let i = !count in
  incr count;
  !kind.{i} <- k;
  !start.{i} <- t0;
  !stop.{i} <- t1;
  !parent.{i} <- par;
  !owner.{i} <- !current_op;
  i

let span k f =
  if not !enabled then f ()
  else begin
    let par = if !depth > 0 then stack.(!depth - 1) else -1 in
    let i = record k ~t0:(now_ns ()) ~t1:0 ~par in
    stack.(!depth) <- i;
    incr depth;
    let finish () =
      decr depth;
      !stop.{i} <- now_ns ()
    in
    match f () with
    | v ->
      finish ();
      v
    | exception e ->
      finish ();
      raise e
  end

(* Events dispatched by [dispatch], counted at the same boundary. *)
let events = ref 0

(* ------------------------------------------------------------------ *)
(* Calls into the layers.  Workloads make every layer-boundary call
   through these, so traced runs see them as spans. *)

let eval interp script =
  span tcl_eval (fun () -> Tcl.Interp.eval_value interp script)

let dispatch app =
  span tk_dispatch (fun () ->
      let n = Tk.Core.process_pending app in
      events := !events + n)

(* Called once the queue is drained: what [update] still does is idle
   work (redraws, geometry) and the events that work generates. *)
let idle app = span tk_idle (fun () -> Tk.Core.update app)

let inject f = span xsim_inject f

let app_join f = span tk_app_join f

(* ------------------------------------------------------------------ *)
(* GC phases from runtime_events, OCaml's own ring of runtime trace
   events.  The ring runs only during traced blocks, and is polled after
   every traced op, so each GC phase is charged to the op it interrupted
   (or, rarely, to the harness's gap before it). *)

let cursor = ref None
let discard = ref false
let minor_t0 = ref 0
let major_t0 = ref 0
let lost_events = ref 0

let ts t = Int64.to_int (Runtime_events.Timestamp.to_int64 t)

let callbacks =
  Runtime_events.Callbacks.create
    ~runtime_begin:(fun _ t phase ->
      match phase with
      | Runtime_events.EV_MINOR -> minor_t0 := ts t
      | Runtime_events.EV_MAJOR_SLICE -> major_t0 := ts t
      | _ -> ())
    ~runtime_end:(fun _ t phase ->
      match phase with
      | _ when !discard -> ()
      | Runtime_events.EV_MINOR when !minor_t0 > 0 ->
        ignore (record gc_minor ~t0:!minor_t0 ~t1:(ts t) ~par:(-1));
        minor_t0 := 0
      | Runtime_events.EV_MAJOR_SLICE when !major_t0 > 0 ->
        ignore (record gc_major_slice ~t0:!major_t0 ~t1:(ts t) ~par:(-1));
        major_t0 := 0
      | _ -> ())
    ~lost_events:(fun _ n -> lost_events := !lost_events + n)
    ()

let poll_gc () =
  match !cursor with
  | Some c -> ignore (Runtime_events.read_poll c callbacks None)
  | None -> ()

let start_tracing () =
  (match !cursor with
  | None ->
    Runtime_events.start ();
    cursor := Some (Runtime_events.create_cursor None)
  | Some _ -> Runtime_events.resume ());
  discard := true;
  poll_gc ();
  discard := false;
  minor_t0 := 0;
  major_t0 := 0;
  enabled := true

let stop_tracing () =
  poll_gc ();
  enabled := false;
  Runtime_events.pause ()

let traced_op id f =
  current_op := id;
  let v = span op f in
  poll_gc ();
  v

(* ------------------------------------------------------------------ *)
(* Analysis.  A layer's self time is its span minus the child spans it
   covers; GC spans become children of the innermost span of their op
   that contains them. *)

type summary = {
  spans : int array;  (** spans per kind *)
  total_ns : int array;  (** summed durations per kind *)
  self_ns : int array;  (** summed self times per kind *)
  gc_outside_ns : int;  (** GC time in the harness's gaps between ops *)
}

let analyse () =
  let n = !count in
  let kd = !kind and st = !start and sp = !stop and pa = !parent in
  let dur i = sp.{i} - st.{i} in
  let gc_outside = ref 0 in
  (* An op's spans are contiguous from its root: its own spans first,
     then the GC spans polled right after it. *)
  let r = ref 0 in
  while !r < n do
    let e = ref (!r + 1) in
    while !e < n && kd.{!e} <> op do
      incr e
    done;
    for g = !r to !e - 1 do
      if kd.{g} >= gc_minor then begin
        let best = ref (-1) in
        for j = !r to !e - 1 do
          if j <> g && st.{j} <= st.{g} && sp.{g} <= sp.{j} then
            if
              !best < 0
              || st.{j} > st.{!best}
              || (st.{j} = st.{!best} && dur j < dur !best)
            then best := j
        done;
        pa.{g} <- !best;
        if !best < 0 then gc_outside := !gc_outside + dur g
      end
    done;
    r := !e
  done;
  let children = Array.make n 0 in
  for i = 0 to n - 1 do
    if pa.{i} >= 0 then children.(pa.{i}) <- children.(pa.{i}) + dur i
  done;
  let spans = Array.make kinds 0 in
  let total_ns = Array.make kinds 0 in
  let self_ns = Array.make kinds 0 in
  for i = 0 to n - 1 do
    let k = kd.{i} in
    spans.(k) <- spans.(k) + 1;
    total_ns.(k) <- total_ns.(k) + dur i;
    self_ns.(k) <- self_ns.(k) + (dur i - children.(i))
  done;
  { spans; total_ns; self_ns; gc_outside_ns = !gc_outside }
