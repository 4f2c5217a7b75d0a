type draw_op =
  | Fill_rect of Geom.rect * Color.t
  | Draw_text of { tx : int; ty : int; text : string; color : Color.t; font : Font.t }
  | Draw_line of { x1 : int; y1 : int; x2 : int; y2 : int; color : Color.t }
  | Draw_rect of Geom.rect * Color.t
  | Draw_relief of { rrect : Geom.rect; raised : bool; rwidth : int }

type prop = { prop_type : Atom.t; prop_data : string }

type t = {
  id : Xid.t;
  owner_cid : int;
  mutable parent : t option;
  mutable children : t list;
  mutable x : int;
  mutable y : int;
  mutable width : int;
  mutable height : int;
  mutable border_width : int;
  mutable background : Color.t option;
  mutable border_color : Color.t;
  mutable mapped : bool;
  mutable destroyed : bool;
  mutable cursor : Cursor.t option;
  mutable override_redirect : bool;
  properties : (Atom.t, prop) Hashtbl.t;
  mutable property_listeners : int list;
  ops : (int, draw_op list) Hashtbl.t;
  mutable next_op_key : int;
}

let create ~id ~owner_cid ~parent ~x ~y ~width ~height ~border_width =
  let w =
    {
      id;
      owner_cid;
      parent;
      children = [];
      x;
      y;
      width = max 1 width;
      height = max 1 height;
      border_width;
      background = None;
      border_color = Color.black;
      mapped = false;
      destroyed = false;
      cursor = None;
      override_redirect = false;
      properties = Hashtbl.create 8;
      property_listeners = [];
      ops = Hashtbl.create 8;
      next_op_key = 0;
    }
  in
  (match parent with
  | Some p -> p.children <- p.children @ [ w ]
  | None -> ());
  w

let rec root_position w =
  match w.parent with
  | None -> { Geom.x = w.x; y = w.y }
  | Some p ->
    let pp = root_position p in
    { Geom.x = pp.x + w.x + w.border_width; y = pp.y + w.y + w.border_width }

let bounds w =
  let p = root_position w in
  Geom.rect_of p { Geom.width = w.width; height = w.height }

let rec viewable w =
  w.mapped && (not w.destroyed)
  && match w.parent with None -> true | Some p -> viewable p

let rec descendants w = w :: List.concat_map descendants w.children

let rec window_at w point =
  if not (w.mapped && not w.destroyed) then None
  else if not (Geom.contains (bounds w) point) then None
  else
    (* Children are bottom-to-top: scan from the top. *)
    let rec try_children = function
      | [] -> Some w
      | child :: rest -> (
        match window_at child point with
        | Some hit -> Some hit
        | None -> try_children rest)
    in
    try_children (List.rev w.children)

let unlink w =
  match w.parent with
  | None -> ()
  | Some p ->
    p.children <- List.filter (fun c -> c != w) p.children;
    w.parent <- None

let raise_to_top w =
  match w.parent with
  | None -> ()
  | Some p -> p.children <- List.filter (fun c -> c != w) p.children @ [ w ]

let lower_to_bottom w =
  match w.parent with
  | None -> ()
  | Some p -> p.children <- w :: List.filter (fun c -> c != w) p.children

let add_draw_op ?key w op =
  let key =
    match key with
    | Some k -> k
    | None ->
      (* Unkeyed draws get one fresh key each, so plain append-order
         widgets render exactly as they drew. *)
      let k = w.next_op_key in
      w.next_op_key <- k + 1;
      k
  in
  let prev = try Hashtbl.find w.ops key with Not_found -> [] in
  Hashtbl.replace w.ops key (op :: prev)

let clear_key w key = Hashtbl.remove w.ops key

let clear_drawing w =
  Hashtbl.reset w.ops;
  w.next_op_key <- 0

let ops_in_order w =
  let keys = Hashtbl.fold (fun k _ acc -> k :: acc) w.ops [] in
  let keys = List.sort compare keys in
  List.concat_map (fun k -> List.rev (Hashtbl.find w.ops k)) keys
