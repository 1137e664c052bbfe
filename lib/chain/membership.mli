(** Membership / view manager — the paper's Zookeeper stand-in (§5.3).

    Tracks the chain's composition as a sequence of numbered {e views}.
    Every membership change (a fail-stop removal) produces a new view with
    a strictly larger id. Replicas stamp their messages with the view id
    they believe is current; [validate] is the check every receiver
    performs ("all messages carry a viewID and replicas reject messages
    with an older viewID").

    A quickly rebooting replica asks to [rejoin] with its believed view id:
    if the view moved on while it was dark, it learns the current view (and
    whether it is even still a member); if it is still current, it receives
    its predecessor and successor so it can run the incomplete-transaction
    repair of Figure 9 before serving again. *)

type view = { id : int; members : int list }  (** head first *)

type t

(** [create ~members] starts at view 1. *)
val create : members:int list -> t

val current : t -> view

(** [validate t ~view_id] — receivers reject stale-view messages. *)
val validate : t -> view_id:int -> [ `Current | `Stale of view ]

(** [remove t node] installs a new view without [node].
    Raises [Invalid_argument] if it is not a member. *)
val remove : t -> int -> view

(** [rejoin t ~node ~believed_view] — the §5.3 rejoin handshake. A member
    gets its current neighbours ([None] = chain end); a node that was
    declared failed while dark is told so. *)
val rejoin :
  t ->
  node:int ->
  believed_view:int ->
  [ `Member of view * int option * int option  (** view, predecessor, successor *)
  | `Removed of view ]

(** Position helpers on the current view. *)

val predecessor : t -> int -> int option

val successor : t -> int -> int option
