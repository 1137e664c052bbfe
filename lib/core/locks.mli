(** Volatile object-granularity read-write lock table.

    As in the paper, locks live in volatile memory (write intents in the
    persistent log are enough to rebuild what recovery needs). The table
    serves two purposes:

    - {e virtual-time contention}: executions are serial at the data level
      but overlapped in virtual time; each lock remembers when its last
      writer/readers release, and an acquire advances the acquiring client's
      clock past those times. In Kamino-Tx a writer's release time is the
      instant the backup applier finishes propagating the transaction, which
      is precisely how dependent transactions pay for backup catch-up while
      independent transactions proceed immediately;
    - {e active-transaction bookkeeping}: the set of keys held by the
      currently executing transaction, which the dynamic backup's LRU must
      never evict ("pending objects are never candidates for eviction").

    Lock keys are NVM byte offsets: an object's extent start, or a metadata
    word's offset.

    The table is flat: a {!Flat_index} maps a key to a stable entry id, and
    an entry's fields (writer release, reader release, last task with the
    active bit, held base) are four consecutive words of a chunked
    [int array]. A look-up touches one probe line and one field line, and
    neither hashes nor compares polymorphically. Entries are never deleted:
    the table holds every key ever locked since the last {!create}. *)

type t

type key = int

val create : unit -> t

(** [acquire_write t key ~now ~cost_ns] returns the virtual time at which
    the caller actually holds the write lock: [max now writer_release
    reader_release] plus [cost_ns]. Marks [key] as held by the active
    transaction. *)
val acquire_write : t -> key -> now:int -> cost_ns:float -> int

(** [acquire_read t key ~now ~cost_ns] returns the time at which the read
    lock is held: [max now writer_release] plus [cost_ns]. *)
val acquire_read : t -> key -> now:int -> cost_ns:float -> int

(** {2 Entry handles}

    A lock acquisition resolves the key to its table entry once; callers
    that will release the same lock (and stamp its applier task) later in
    the transaction can keep the handle and skip the re-hash on every
    subsequent touch. A handle is an int id that stays valid for the
    lifetime of the table it came from: the key index grows, but entries
    never move. *)

type entry [@@immediate]

(** [entry_of t key] resolves (creating if absent) the entry for [key]. *)
val entry_of : t -> key -> entry

(** Entry-handle variants of the key-based operations. *)

val acquire_write_e : t -> entry -> now:int -> cost_ns:float -> int

val acquire_read_e : t -> entry -> now:int -> cost_ns:float -> int

val release_write_e : t -> entry -> at:int -> unit

val release_read_e : t -> entry -> at:int -> unit

val last_writer_task_e : t -> entry -> int

val set_last_writer_task_e : t -> entry -> int -> unit

(** [release_writes t keys ~at] records that the write locks on [keys] are
    released at virtual time [at] and clears active-transaction ownership. *)
val release_writes : t -> key list -> at:int -> unit

(** [release_reads t keys ~at] records read-lock releases. *)
val release_reads : t -> key list -> at:int -> unit

(** [hold_writes t keys] keeps the write locks held open-endedly (the chain
    head holding locks until the tail's acknowledgment arrives, whose time
    is unknown yet). The prior release time is remembered.

    Known wrap: the hold stores [max_int] as the writer release, so a later
    acquire computes [max now max_int + cost_ns], which wraps negative, and
    the acquirer does not wait at all (its [waits] booking is garbage too).
    ROADMAP item 3 holds the open fix; it moves simulated numbers, so
    changing this line must be deliberate. *)
val hold_writes : t -> key list -> unit

(** [release_held_writes t keys ~at] ends an open-ended hold: the locks
    release at [max at previous_release] (e.g. the later of the tail ack
    and the backup applier's finish). *)
val release_held_writes : t -> key list -> at:int -> unit

(** [held_by_active_tx t key] — true between [acquire_write] and the
    matching [release_writes]. *)
val held_by_active_tx : t -> key -> bool

(** [last_writer_task t key] / [set_last_writer_task t key id] track the id
    of the most recent backup-applier task covering [key], so lock
    acquisition can force the applier to catch up on exactly that object. *)
val last_writer_task : t -> key -> int

val set_last_writer_task : t -> key -> int -> unit

(** [pinned t key ~applied_through] is [held_by_active_tx t key ||
    last_writer_task t key > applied_through], from one look-up: the
    dynamic backup's "never evict" predicate. *)
val pinned : t -> key -> applied_through:int -> bool

(** [waits t] is the cumulative virtual nanoseconds clients spent blocked on
    locks, and [wait_events t] how many acquisitions blocked — the benches
    report these for the dependent-transaction experiments. *)
val waits : t -> int

val wait_events : t -> int

val reset_stats : t -> unit
