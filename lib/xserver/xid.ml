type t = int

type allocator = { mutable next : int }

let allocator () = { next = 1 }

let fresh a =
  let id = a.next in
  a.next <- a.next + 1;
  id

let none = 0
