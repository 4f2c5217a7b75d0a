type t = int

type table = {
  by_name : (string, t) Hashtbl.t;
  by_id : (t, string) Hashtbl.t;
  mutable next : int;
}

(* Predefined atoms occupy fixed small ids, as in the X protocol. *)
let predefined = [ "PRIMARY"; "STRING"; "WM_NAME"; "TARGETS" ]

let primary = 1
let string = 2
let wm_name = 3

let table () =
  let t =
    { by_name = Hashtbl.create 32; by_id = Hashtbl.create 32; next = 1 }
  in
  List.iter
    (fun name ->
      let id = t.next in
      t.next <- t.next + 1;
      Hashtbl.replace t.by_name name id;
      Hashtbl.replace t.by_id id name)
    predefined;
  t

let intern t name =
  match Hashtbl.find_opt t.by_name name with
  | Some id -> id
  | None ->
    let id = t.next in
    t.next <- t.next + 1;
    Hashtbl.replace t.by_name name id;
    Hashtbl.replace t.by_id id name;
    id

let name t id = Hashtbl.find_opt t.by_id id
