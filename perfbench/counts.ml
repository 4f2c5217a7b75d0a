(* Counters the measured layers already keep, gathered into one flat
   vector so the harness can take them before and after a phase and
   subtract.  They are read only at phase boundaries, never per op:
   [Core.metrics_snapshot] would build ~90 strings a call, so the fields
   are read directly. *)

open Xsim

let requests = 0
let round_trips = 1
let req_window = 2
let req_resource = 3
let req_draw = 4
let req_property = 5
let commands = 6
let parse_passes = 7
let script_hits = 8
let script_misses = 9
let expr_hits = 10
let expr_misses = 11
let vm_deopts = 12
let vm_slot_hits = 13
let bindings = 14
let redraws_scheduled = 15
let redraws_collapsed = 16
let redraws_drawn = 17
let damage_drawn = 18
let damage_deopt_full = 19
let canvas_considered = 20
let canvas_drawn = 21
let rescache_hits = 22
let rescache_misses = 23
let send_retries = 24
let mailbox_high_water = 25

let names =
  [|
    "requests"; "round_trips"; "requests_window"; "requests_resource";
    "requests_draw"; "requests_property"; "tcl_commands"; "parse_passes";
    "script_hits"; "script_misses"; "expr_hits"; "expr_misses"; "vm_deopts";
    "vm_slot_hits"; "bindings"; "redraws_scheduled"; "redraws_collapsed";
    "redraws_drawn"; "damage_drawn"; "damage_deopt_full";
    "canvas_items_considered"; "canvas_items_drawn"; "rescache_hits";
    "rescache_misses"; "send_retries"; "mailbox_high_water";
  |]

type t = int array

let zero () = Array.make (Array.length names) 0

(* The high-water mark is a gauge: it combines by max and is not
   differenced (every phase starts from a reset). *)
let add a b =
  Array.mapi
    (fun i x -> if i = mailbox_high_water then max x b.(i) else x + b.(i))
    a

let sub a b =
  Array.mapi (fun i x -> if i = mailbox_high_water then x else x - b.(i)) a

let stat key stats =
  match List.assoc_opt key stats with
  | Some v -> int_of_string v
  | None -> 0

let add_interp c interp =
  let cs = Tcl.Interp.compile_stats interp in
  let vs = Tcl.Interp.vm_stats interp in
  c.(commands) <- c.(commands) + Tcl.Interp.command_count interp;
  c.(parse_passes) <- c.(parse_passes) + stat "parse_passes" cs;
  c.(script_hits) <- c.(script_hits) + stat "script_hits" cs;
  c.(script_misses) <- c.(script_misses) + stat "script_misses" cs;
  c.(expr_hits) <- c.(expr_hits) + stat "expr_hits" cs;
  c.(expr_misses) <- c.(expr_misses) + stat "expr_misses" cs;
  c.(vm_deopts) <- c.(vm_deopts) + stat "deopts" vs;
  c.(vm_slot_hits) <- c.(vm_slot_hits) + stat "slot_hits" vs

let add_app c (app : Tk.Core.app) =
  add_interp c app.Tk.Core.interp;
  let s = Server.stats app.Tk.Core.conn in
  let m = app.Tk.Core.metrics in
  let bump i v = c.(i) <- c.(i) + v in
  bump requests s.Server.total_requests;
  bump round_trips s.Server.round_trips;
  bump req_window s.Server.window_requests;
  bump req_resource s.Server.resource_allocs;
  bump req_draw s.Server.draw_requests;
  bump req_property s.Server.property_requests;
  bump bindings m.Tk.Metrics.binding_dispatches;
  bump redraws_scheduled m.Tk.Metrics.redraws_scheduled;
  bump redraws_collapsed m.Tk.Metrics.redraws_collapsed;
  bump redraws_drawn m.Tk.Metrics.redraws_drawn;
  bump damage_drawn m.Tk.Metrics.damage_drawn;
  bump damage_deopt_full m.Tk.Metrics.damage_deopt_full;
  bump canvas_considered m.Tk.Metrics.canvas_items_considered;
  bump canvas_drawn m.Tk.Metrics.canvas_items_drawn;
  bump rescache_hits (Tk.Rescache.hits app.Tk.Core.cache);
  bump rescache_misses (Tk.Rescache.misses app.Tk.Core.cache);
  bump send_retries m.Tk.Metrics.send_retries;
  c.(mailbox_high_water) <-
    max c.(mailbox_high_water) m.Tk.Metrics.mailbox_high_water

let of_apps apps =
  let c = zero () in
  List.iter (add_app c) apps;
  c
