(** Volatile open-addressing map from int keys to non-negative int ids.

    The look-up structure under {!Locks} and {!Lru}: one [int array] of
    interleaved [key; id] slots, linear probing from a multiplicative
    (Fibonacci) hash of the key, so a hit usually touches a single cache
    line. Deletion shifts the following cluster back instead of leaving
    tombstones. The table doubles when it passes 3/4 load.

    No polymorphic hashing or comparison and no allocation, except for the
    slot array when the table grows. *)

type t

(** [create ?size_hint ()] sizes the table to hold [size_hint] keys
    (default 0) without growing. *)
val create : ?size_hint:int -> unit -> t

val length : t -> int

(** [find t key] is the id bound to [key], or [-1]. *)
val find : t -> int -> int

(** [add t key id] binds an absent [key] to [id >= 0]. *)
val add : t -> int -> int -> unit

(** [remove t key] unbinds [key] and returns its id, or [-1] if absent. *)
val remove : t -> int -> int
