(* What the harness needs from a workload.

   A workload turns a seed into a {e block}: a fixed sequence of op
   descriptions with exact per-class counts, generated once at set-up.
   The op sequence repeats that block; op [i] runs block entry
   [i mod block], with [i] itself available for text that must be new on
   every op.  Each block leaves the program in the state it found it
   (text cleared, drags balanced, apps rejoined under their names), so
   per-op counts are the same in every block and runs of whole blocks
   repeat exactly. *)

type instance = {
  block : int;  (** ops per period of the sequence *)
  op_class : int -> int;  (** class of op [i], an index into [classes] *)
  run_op : int -> bool;
      (** run op [i] and check its result against the value the
          generator computed: [false] when it raised a Tcl error, caused a
          background error or returned something else *)
  counts : unit -> Counts.t;
      (** counter totals over every app and connection the instance has
          had, including those closed since the last [reset] *)
  reset : unit -> unit;
  final_checks : unit -> (string * bool) list;
      (** end-of-run oracles on the program's final state *)
  teardown : unit -> unit;
}

type t = {
  name : string;
  classes : string array;
  setup : seed:int -> instance;
}

(* A block with exactly [n] ops of class [c] for each [(c, n)], in a
   seeded order. *)
let shuffled_classes rng counts =
  let a =
    Array.of_list
      (List.concat_map (fun (c, n) -> List.init n (fun _ -> c)) counts)
  in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* Evaluate a set-up script; set-up errors are bugs in the benchmark. *)
let run interp script =
  match Tcl.Interp.eval_value interp script with
  | Ok v -> v
  | Error msg -> failwith (Printf.sprintf "set-up script failed: %s" msg)

(* Count background errors (binding and timer scripts that raised)
   instead of printing them. *)
let count_background_errors (app : Tk.Core.app) errors =
  app.Tk.Core.error_handler <- (fun _ -> incr errors)
