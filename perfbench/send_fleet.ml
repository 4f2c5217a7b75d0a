(* send_fleet: 64 applications on one display, each with a packed label
   showing a counter.  Ops: a synchronous send to a seeded peer with a
   script unique to the op (the main class); a nested send, where the
   peer sends back; [send -async] followed by draining the target; and
   an application leaving and rejoining under the same name.  Every
   expected reply comes from counters the benchmark keeps in OCaml.

   Why: the only workload where the send fabric, the name registry and
   mailboxes, xsim property traffic and round trips, and per-app lookups
   across many apps do real work.  Leave/join writes the registry while
   the sends read it. *)

let classes = [| "send"; "nested"; "async"; "rejoin" |]
let fleet = 64

(* Ops per block.  p50 lies well inside the sends (76%); rejoins, the
   slowest class, are 4%, clear of both p50 and the 1% tail, which major
   GC slices set. *)
let mix = [ (0, 152); (1, 20); (2, 20); (3, 8) ]

type entry =
  | Send of int * int  (** sender, target *)
  | Nested of int * int
  | Async of int * int
  | Rejoin of int

let name k = Printf.sprintf "app%02d" k

let setup ~seed =
  let rng = Random.State.make [| seed |] in
  let pair () =
    let a = Random.State.int rng fleet in
    (a, (a + 1 + Random.State.int rng (fleet - 1)) mod fleet)
  in
  let cls = Workload.shuffled_classes rng mix in
  let block =
    Array.map
      (function
        | 0 -> let a, t = pair () in Send (a, t)
        | 1 -> let a, t = pair () in Nested (a, t)
        | 2 -> let a, t = pair () in Async (a, t)
        | _ -> Rejoin (Random.State.int rng fleet))
      cls
  in
  let server = Xsim.Server.create () in
  let errors = ref 0 in
  let counter = Array.make fleet 0 (* expected count per app *) in
  let join k =
    let app = Tk_widgets.Tk_widgets_lib.new_app ~server ~name:(name k) () in
    Workload.count_background_errors app errors;
    ignore
      (Workload.run app.Tk.Core.interp
         (Printf.sprintf
            "label .l -text {v 000000000}\npack append . .l {top}\nset counter %d"
            counter.(k)));
    Tk.Core.update app;
    app
  in
  let apps = Array.init fleet join in
  (* Counts of applications that left since the last reset. *)
  let retired = ref (Counts.zero ()) in
  let value app =
    Option.value (Tcl.Interp.get_var app.Tk.Core.interp "counter") ~default:""
  in
  let b = Array.length block in
  let run_op i =
    let e0 = !errors in
    let ok =
      match block.(i mod b) with
      | Send (a, t) ->
        counter.(t) <- counter.(t) + 1;
        Probe.eval apps.(a).Tk.Core.interp
          (Printf.sprintf "send %s {.l configure -text {v %09d}; incr counter}"
             (name t) i)
        = Ok (string_of_int counter.(t))
      | Nested (a, t) ->
        counter.(t) <- counter.(t) + 1;
        counter.(a) <- counter.(a) + 1;
        Probe.eval apps.(a).Tk.Core.interp
          (Printf.sprintf
             "send %s {.l configure -text {v %09d}; incr counter; send %s \
              {incr counter}}"
             (name t) i (name a))
        = Ok (string_of_int counter.(a))
      | Async (a, t) ->
        counter.(t) <- counter.(t) + 1;
        let posted =
          Probe.eval apps.(a).Tk.Core.interp
            (Printf.sprintf
               "send -async %s {.l configure -text {v %09d}; incr counter}"
               (name t) i)
        in
        Probe.dispatch apps.(t);
        Probe.idle apps.(t);
        posted = Ok "" && value apps.(t) = string_of_int counter.(t)
      | Rejoin k ->
        let old = apps.(k) in
        apps.(k) <-
          Probe.app_join (fun () ->
              Tk.Core.destroy_app old;
              join k);
        (* The closed connection's counts, read once as it leaves. *)
        retired := Counts.add !retired (Counts.of_apps [ old ]);
        apps.(k).Tk.Core.app_name = name k
        && value apps.(k) = string_of_int counter.(k)
    in
    ok && !errors = e0
  in
  {
    Workload.block = b;
    op_class = (fun i -> cls.(i mod b));
    run_op;
    counts = (fun () -> Counts.add !retired (Counts.of_apps (Array.to_list apps)));
    reset =
      (fun () ->
        retired := Counts.zero ();
        Array.iter Tk.Core.reset_metrics apps);
    final_checks =
      (fun () ->
        [
          ( "every fleet counter matches its expected count",
            Array.for_all2 (fun app n -> value app = string_of_int n) apps counter );
          ( "every app is registered under its own name",
            Array.for_all
              (fun app ->
                Tk.Core.lookup_registry app app.Tk.Core.app_name
                = Some app.Tk.Core.comm_win)
              apps );
          ( "the display has exactly the fleet",
            List.length (Tk.Core.local_apps server) = fleet );
          ("no background errors", !errors = 0);
        ]);
    teardown = (fun () -> Array.iter Tk.Core.destroy_app apps);
  }

let workload = { Workload.name = "send_fleet"; classes; setup }
