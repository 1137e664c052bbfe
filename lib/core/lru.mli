(** Volatile least-recently-used queue.

    Tracks recency of updates to objects held in the dynamic backup region
    (§6.4). Purely volatile — after a crash it is rebuilt empty, the
    persistent {!Phash} being the source of truth for which copies exist.

    Eviction skips keys the caller marks as locked: "locked objects are
    never evicted to ensure safety, that is pending objects are never
    candidates for eviction".

    The queue is flat: a {!Flat_index} maps a key to a node id, and the
    nodes' keys and prev/next links are int words of one array, -1 marking
    the ends. Removed nodes go on a free list and are reused. Touching,
    removing and finding a candidate allocate nothing but the candidate's
    [Some]. *)

type t

(** [create ?size_hint ()] — [size_hint] pre-sizes the index and the node
    array (e.g. to the number of resident copies being reattached) so they
    do not grow while it fills; both grow on demand past it. *)
val create : ?size_hint:int -> unit -> t

val length : t -> int

val mem : t -> int -> bool

(** [touch t key] inserts [key] as most-recently-used, or moves it there. *)
val touch : t -> int -> unit

(** [remove t key] drops the key if present. *)
val remove : t -> int -> unit

(** [evict_candidate t ~locked] returns the least-recently-used key for
    which [locked key] is false, without removing it. [None] if every
    resident key is locked (or the queue is empty). *)
val evict_candidate : t -> locked:(int -> bool) -> int option

(** [iter_lru_order t f] visits keys from least to most recently used. *)
val iter_lru_order : t -> (int -> unit) -> unit
