(* Whole-program call graph over compiled Tcl scripts.

   Nodes are the top level (one shared root for every file, binding and
   [after] script — they all run once the files do) and each procedure
   defined anywhere in the program.  The walker (Lint) feeds two kinds
   of edges:

   - *call* edges: a literal command-position invocation of a
     script-defined procedure, tagged with its site and whether the
     call is conditional (nested under if/while/catch/... or in dead
     code) relative to its node's entry;
   - *mention* edges: every whitespace-ish token of every literal word
     anywhere in a node — the maximally conservative account of
     callback references ([-command cb], [after 100 cb], [eval]ed
     fragments, aliases), so reachability errs toward "reachable" and
     unreachable-procedure reports stay free of false positives.

   From those it answers: which procedures are unreachable from the
   root, and which unconditionally recurse (a cycle in the
   unconditional-call subgraph — every execution of the procedure calls
   back into the cycle before it can return, so any call overflows the
   recursion limit). *)

type node = Nroot | Nproc of string

type call = {
  c_from : node;
  c_callee : string;
  c_file : string option;
  c_off : int;  (* call-site offset in its file *)
  c_cond : bool;  (* nested under any conditional construct *)
}

type t = {
  defs : (string, string option * int) Hashtbl.t;
      (* proc name -> defining file, offset (first definition wins) *)
  mutable calls : call list;
  mentions : (node * string, unit) Hashtbl.t;
  mutable n_calls : int;
  mutable n_mentions : int;
}

let create () =
  {
    defs = Hashtbl.create 16;
    calls = [];
    mentions = Hashtbl.create 64;
    n_calls = 0;
    n_mentions = 0;
  }

let add_def t name ~file ~off =
  if not (Hashtbl.mem t.defs name) then Hashtbl.add t.defs name (file, off)

let add_call t ~from ~callee ~file ~off ~cond =
  t.n_calls <- t.n_calls + 1;
  t.calls <-
    { c_from = from; c_callee = callee; c_file = file; c_off = off;
      c_cond = cond }
    :: t.calls

let add_mention t node token =
  if token <> "" && not (Hashtbl.mem t.mentions (node, token)) then begin
    t.n_mentions <- t.n_mentions + 1;
    Hashtbl.replace t.mentions (node, token) ()
  end

(* Split a literal word into candidate name tokens: whitespace,
   separators and grouping characters all break tokens, so "-command
   {cb $x}" mentions "cb" and an [eval]ed fragment mentions every
   plain word in it. *)
let tokens_of_literal s add =
  let n = String.length s in
  let start = ref (-1) in
  let flush i =
    if !start >= 0 then begin
      add (String.sub s !start (i - !start));
      start := -1
    end
  in
  for i = 0 to n - 1 do
    match s.[i] with
    | ' ' | '\t' | '\n' | '\r' | ';' | '{' | '}' | '[' | ']' | '"' | '$'
    | '(' | ')' ->
      flush i
    | _ -> if !start < 0 then start := i
  done;
  flush n

let edge_count t = t.n_calls + t.n_mentions

let proc_count t = Hashtbl.length t.defs

(* Procedures reachable from the root: breadth-first over call and
   mention edges.  Mentions are attributed to nodes, so a reference
   living only inside an unreachable procedure does not resurrect it —
   but any reference from live code (even in data position) does. *)
let reachable t =
  let live = Hashtbl.create 16 in
  (* node -> callee names *)
  let out = Hashtbl.create 16 in
  let add_out node callee =
    if Hashtbl.mem t.defs callee then
      Hashtbl.replace out node
        (callee :: (try Hashtbl.find out node with Not_found -> []))
  in
  List.iter (fun c -> add_out c.c_from c.c_callee) t.calls;
  Hashtbl.iter (fun (node, token) () -> add_out node token) t.mentions;
  let queue = Queue.create () in
  Queue.add Nroot queue;
  let seen_root = ref false in
  while not (Queue.is_empty queue) do
    let node = Queue.take queue in
    let fresh =
      match node with
      | Nroot ->
        let f = not !seen_root in
        seen_root := true;
        f
      | Nproc p ->
        if Hashtbl.mem live p then false
        else begin
          Hashtbl.replace live p ();
          true
        end
    in
    if fresh then
      List.iter
        (fun callee ->
          if not (Hashtbl.mem live callee) then Queue.add (Nproc callee) queue)
        (try Hashtbl.find out node with Not_found -> [])
  done;
  live

let unreachable t =
  let live = reachable t in
  Hashtbl.fold
    (fun name (file, off) acc ->
      if Hashtbl.mem live name then acc else (name, file, off) :: acc)
    t.defs []

(* Procedures on a cycle of unconditional calls: every such procedure,
   once entered, is guaranteed to re-enter the cycle, so any call to it
   overflows the recursion limit.  Returns one witness call edge per
   offending procedure. *)
let infinite_recursion t =
  (* proc -> unconditional out-edges (first witness call per callee) *)
  let out : (string, call list) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun c ->
      match c.c_from with
      | Nproc p when (not c.c_cond) && Hashtbl.mem t.defs c.c_callee ->
        let prev = try Hashtbl.find out p with Not_found -> [] in
        if not (List.exists (fun c' -> c'.c_callee = c.c_callee) prev) then
          Hashtbl.replace out p (c :: prev)
      | _ -> ())
    t.calls;
  (* A proc is on a cycle iff it can unconditionally reach itself; the
     witness is its own call edge that leads back around. *)
  let cycle_witness start =
    let reaches p target =
      let seen = Hashtbl.create 8 in
      let rec go p =
        p = target
        || List.exists
             (fun c ->
               (not (Hashtbl.mem seen c.c_callee))
               && begin
                    Hashtbl.replace seen c.c_callee ();
                    go c.c_callee
                  end)
             (try Hashtbl.find out p with Not_found -> [])
      in
      go p
    in
    List.find_opt
      (fun c -> reaches c.c_callee start)
      (List.rev (try Hashtbl.find out start with Not_found -> []))
  in
  Hashtbl.fold
    (fun p _ acc ->
      match cycle_witness p with Some c -> (p, c) :: acc | None -> acc)
    out []
