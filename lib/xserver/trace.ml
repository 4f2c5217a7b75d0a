type outcome = Ok | Injected_fault | Absorbed | Bad_connection

type 'k record = {
  serial : int;
  kind : 'k;
  resource : Xid.t;
  time : int;
  mutable outcome : outcome;
}

(* Fixed-size ring: [head] is the next write slot, [len] how many slots
   are live. Writing over a full ring overwrites the oldest record, so
   the buffer bounds memory no matter how long tracing stays on. *)
type 'k t = {
  mutable slots : 'k record option array;
  mutable head : int;
  mutable len : int;
}

let default_capacity = 512

let create ?(capacity = default_capacity) () =
  { slots = Array.make (max 1 capacity) None; head = 0; len = 0 }

let capacity t = Array.length t.slots

let length t = t.len

let clear t =
  Array.fill t.slots 0 (Array.length t.slots) None;
  t.head <- 0;
  t.len <- 0

let add t record =
  let cap = Array.length t.slots in
  t.slots.(t.head) <- Some record;
  t.head <- (t.head + 1) mod cap;
  if t.len < cap then t.len <- t.len + 1

(* Oldest first. *)
let to_list t =
  let cap = Array.length t.slots in
  let start = (t.head - t.len + cap) mod cap in
  List.init t.len (fun i ->
      match t.slots.((start + i) mod cap) with
      | Some r -> r
      | None -> assert false)

(* Newest-first scan: flip the first injected-fault record carrying
   [serial] to absorbed. Called when a layer above catches the error, so
   the record is almost always the newest one. *)
let mark_absorbed t ~serial =
  let cap = Array.length t.slots in
  let rec go i =
    if i >= t.len then false
    else
      match t.slots.((t.head - 1 - i + (2 * cap)) mod cap) with
      | Some r when r.serial = serial && r.outcome = Injected_fault ->
        r.outcome <- Absorbed;
        true
      | _ -> go (i + 1)
  in
  go 0

let outcome_name = function
  | Ok -> "ok"
  | Injected_fault -> "injected-fault"
  | Absorbed -> "absorbed"
  | Bad_connection -> "BadConnection"

let dump ~kind_name t =
  let buf = Buffer.create 256 in
  List.iter
    (fun r ->
      Buffer.add_string buf
        (Printf.sprintf "%6d %4dms %-8s 0x%-6x %s\n" r.serial r.time
           (kind_name r.kind) r.resource (outcome_name r.outcome)))
    (to_list t);
  Buffer.contents buf
