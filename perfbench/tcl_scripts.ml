(* tcl_scripts: one bare interpreter ([Tcl.Builtins.new_interp]), no
   display.  Each op evaluates one program from a seeded mix; the
   generator computes every expected result in OCaml.

   Why: the [tcl] layer does nearly all the work and [tk]/[xsim] do
   none, so VM and compile-tier changes show here and changes to other
   layers must leave it flat.  One program in ten has text never seen
   before (a fresh proc and fresh expr literals), so the parse/compile
   path carries real weight next to the cached hot shapes. *)

let classes =
  [| "fib"; "while10k"; "lsort"; "strings"; "arrays"; "catch"; "unique" |]

(* Ops of each class per block.  The slowest class, the 10k [while], is
   3% of ops, so p99 falls well inside it rather than on a class edge;
   a block of 1000 averages the seeded sizes of the other programs. *)
let mix =
  [ (0, 200); (1, 30); (2, 150); (3, 170); (4, 150); (5, 200); (6, 100) ]

(* Texts per fixed class (all but [unique]).  The block's ops of a class
   cycle through that many seeded variants, 75 texts in all, well under
   the interpreter's 512-entry script cache, so only [unique] misses it. *)
let variants = [| 3; 1; 21; 18; 16; 16 |]

let procs =
  {|proc fib {n} {
  if {$n < 2} {return $n}
  expr {[fib [expr {$n - 1}]] + [fib [expr {$n - 2}]]}
}
proc bump {name by} {
  upvar 1 $name v
  incr v $by
}
proc risky {x} {
  if {$x % 3 == 0} {error "bad input $x"}
  return [expr {$x * 2}]
}
proc tally {xs} {
  set acc 0
  foreach x $xs {
    if {[catch {risky $x} r]} {bump acc 1000} else {bump acc $r}
  }
  return $acc
}|}

let while10k =
  {|set total 0
set i 0
while {$i < 10000} {
  incr total $i
  incr i
}
set total|}

let rec fib n = if n < 2 then n else fib (n - 1) + fib (n - 2)

(* Variant [j] of class [cls]: its script and expected result.  The
   size comes from [j] alone, so every block holds the same multiset of
   sizes whatever the seed; the seed picks the values and the order. *)
let fixed rng cls j =
  let int lo hi = lo + Random.State.int rng (hi - lo + 1) in
  match cls with
  | 0 ->
    let n = 10 + j in
    (Printf.sprintf "fib %d" n, string_of_int (fib n))
  | 1 -> (while10k, "49995000")
  | 2 ->
    let n = 20 + (2 * j) and a = int 3 97 and m = int 50 1000 in
    let xs = List.init n (fun i -> i * a mod m) |> List.sort compare in
    ( Printf.sprintf
        "set l {}\n\
         for {set i 0} {$i < %d} {incr i} {lappend l [expr {($i * %d) %% \
         %d}]}\n\
         lsort -integer $l"
        n a m,
      String.concat " " (List.map string_of_int xs) )
  | 3 ->
    let w = String.init (8 + (j mod 9)) (fun _ -> Char.chr (97 + int 0 25)) in
    let c = Char.chr (97 + int 0 25) in
    let first = Option.value (String.index_opt w c) ~default:(-1) in
    ( Printf.sprintf
        "set s %s\n\
         set u [string toupper $s]\n\
         format {%%s:%%d:%%d:%%s} $u [string length $s] [string first %c \
         $s] [string range $s 2 5]"
        w c,
      Printf.sprintf "%s:%d:%d:%s" (String.uppercase_ascii w)
        (String.length w) first (String.sub w 2 4) )
  | 4 ->
    let n = 10 + (2 * j) in
    let sum = List.fold_left ( + ) 0 (List.init n (fun i -> i * i)) in
    ( Printf.sprintf
        "catch {unset a}\n\
         for {set i 0} {$i < %d} {incr i} {set a(k$i) [expr {$i * $i}]}\n\
         set sum 0\n\
         foreach k [array names a] {incr sum $a($k)}\n\
         set sum"
        n,
      string_of_int sum )
  | _ ->
    let xs = List.init (5 + j) (fun _ -> int 1 100) in
    let sum =
      List.fold_left
        (fun acc x -> acc + if x mod 3 = 0 then 1000 else 2 * x)
        0 xs
    in
    ( Printf.sprintf "tally {%s}" (String.concat " " (List.map string_of_int xs)),
      string_of_int sum )

type entry =
  | Fixed of string * string  (** script, expected result *)
  | Unique of int  (** the call argument; the rest comes from the op id *)

(* Fixed-width names and literals keep every unique program the same
   size, so its counts do not drift as op ids grow. *)
let unique id c =
  let a = 10000 + (id * 7919 mod 90000) and b = 10000 + (id * 104729 mod 90000) in
  ( Printf.sprintf
      "proc u%09d {x} {expr {$x * %d + %d}}\nset r [u%09d %d]\nrename u%09d {}\nset r"
      id a b id c id,
    string_of_int ((c * a) + b) )

let setup ~seed =
  let rng = Random.State.make [| seed |] in
  let cls = Workload.shuffled_classes rng mix in
  let pools = Array.mapi (fun c n -> Array.init n (fixed rng c)) variants in
  let seen = Array.make (Array.length variants) 0 in
  let block =
    Array.map
      (fun c ->
        if c >= Array.length variants then Unique (1 + Random.State.int rng 99)
        else begin
          let k = seen.(c) in
          seen.(c) <- k + 1;
          let s, x = pools.(c).(k mod variants.(c)) in
          Fixed (s, x)
        end)
      cls
  in
  let interp = Tcl.Builtins.new_interp () in
  ignore (Workload.run interp procs);
  let b = Array.length block in
  let run_op i =
    let script, expected =
      match block.(i mod b) with
      | Fixed (s, x) -> (s, x)
      | Unique c -> unique i c
    in
    match Probe.eval interp script with
    | Ok v -> v = expected
    | Error _ -> false
  in
  {
    Workload.block = b;
    op_class = (fun i -> cls.(i mod b));
    run_op;
    counts =
      (fun () ->
        let c = Counts.zero () in
        Counts.add_interp c interp;
        c);
    reset =
      (fun () ->
        Tcl.Interp.reset_compile_stats interp;
        Tcl.Interp.reset_vm_stats interp);
    final_checks =
      (fun () ->
        [
          ( "only the four set-up procs remain",
            Workload.run interp "lsort [info procs]" = "bump fib risky tally" );
        ]);
    teardown = ignore;
  }

let workload = { Workload.name = "tcl_scripts"; classes; setup }
