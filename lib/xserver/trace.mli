(** Bounded protocol-trace ring buffer.

    The paper's evaluation (§7) is phrased in server traffic avoided; a
    trace of individual requests is what makes that traffic inspectable.
    Each {!Server.connection} owns one ring of {!record}s — request
    serial, class, resource id, virtual-clock timestamp and outcome —
    capped at a fixed capacity so tracing can stay enabled indefinitely.

    The ring is generic in the request-class type to keep this module
    below {!Server} in the dependency order. *)

(** What became of a traced request. Genuine protocol errors other than a
    dead connection (e.g. BadWindow on a stale id) surface through
    {!Xerror.X_error} after the request was already recorded [Ok]. *)
type outcome =
  | Ok
  | Injected_fault  (** rejected by the fault-injection plan *)
  | Absorbed  (** injected, then absorbed by a layer above *)
  | Bad_connection  (** issued on a dead connection *)

type 'k record = {
  serial : int;  (** the connection's request sequence number *)
  kind : 'k;  (** request class *)
  resource : Xid.t;  (** primary resource id ({!Xid.none} if none) *)
  time : int;  (** server logical clock at issue *)
  mutable outcome : outcome;
}

type 'k t

val create : ?capacity:int -> unit -> 'k t

val capacity : 'k t -> int

val length : 'k t -> int
(** Live records (≤ capacity). *)

val clear : 'k t -> unit

val add : 'k t -> 'k record -> unit
(** Appends, overwriting the oldest record once full. *)

val to_list : 'k t -> 'k record list
(** Oldest first. *)

val mark_absorbed : 'k t -> serial:int -> bool
(** Flip the newest [Injected_fault] record with this serial to
    [Absorbed]; [false] if no such record survives in the ring. *)

val outcome_name : outcome -> string
(** ["ok"], ["injected-fault"], ["absorbed"], ["BadConnection"]. *)

val dump : kind_name:('k -> string) -> 'k t -> string
(** Human-readable table, one line per record, oldest first. *)
