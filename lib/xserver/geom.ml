type point = { x : int; y : int }

type size = { width : int; height : int }

type rect = { rx : int; ry : int; rwidth : int; rheight : int }

let rect ~x ~y ~width ~height = { rx = x; ry = y; rwidth = width; rheight = height }

let rect_of p s = { rx = p.x; ry = p.y; rwidth = s.width; rheight = s.height }

let contains r p =
  p.x >= r.rx && p.x < r.rx + r.rwidth && p.y >= r.ry && p.y < r.ry + r.rheight

let is_empty r = r.rwidth <= 0 || r.rheight <= 0

let intersect a b =
  let x0 = max a.rx b.rx and y0 = max a.ry b.ry in
  let x1 = min (a.rx + a.rwidth) (b.rx + b.rwidth) in
  let y1 = min (a.ry + a.rheight) (b.ry + b.rheight) in
  if x1 <= x0 || y1 <= y0 then None
  else Some { rx = x0; ry = y0; rwidth = x1 - x0; rheight = y1 - y0 }

let translate r ~dx ~dy = { r with rx = r.rx + dx; ry = r.ry + dy }

let union a b =
  if is_empty a then b
  else if is_empty b then a
  else begin
    let x0 = min a.rx b.rx and y0 = min a.ry b.ry in
    let x1 = max (a.rx + a.rwidth) (b.rx + b.rwidth) in
    let y1 = max (a.ry + a.rheight) (b.ry + b.rheight) in
    { rx = x0; ry = y0; rwidth = x1 - x0; rheight = y1 - y0 }
  end

let area r = if is_empty r then 0 else r.rwidth * r.rheight

let inflate r ~dx ~dy =
  { rx = r.rx - dx; ry = r.ry - dy; rwidth = r.rwidth + (2 * dx); rheight = r.rheight + (2 * dy) }
