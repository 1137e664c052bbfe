type key = int

type entry = int

(* Entry [e]'s fields are the [stride] words at [(e land chunk_mask) *
   stride] of chunk [e lsr chunk_bits]. Chunks are never moved or copied,
   so an entry id stays valid while the key index grows. *)
let f_writer = 0 (* writer release time *)

let f_reader = 1 (* reader release time *)

(* [(last_task + 1) lsl 1 lor active]: a fresh, all-zero entry reads as no
   task and not held. *)
let f_task = 2

let f_held = 3 (* writer release saved while held open-ended *)

let stride = 4

let chunk_bits = 11

let chunk_mask = (1 lsl chunk_bits) - 1

type t = {
  index : Flat_index.t;
  mutable chunks : int array array;
  mutable entries : int;
  mutable waits : int;
  mutable wait_events : int;
}

let create () =
  { index = Flat_index.create (); chunks = [||]; entries = 0; waits = 0; wait_events = 0 }

let imax (a : int) b = if a >= b then a else b

let[@inline] chunk t e = Array.unsafe_get t.chunks (e lsr chunk_bits)

let[@inline] base e = (e land chunk_mask) * stride

let get t e f = Array.unsafe_get (chunk t e) (base e + f)

let set t e f v = Array.unsafe_set (chunk t e) (base e + f) v

let fresh t key =
  let e = t.entries in
  if e land chunk_mask = 0 then begin
    let c = e lsr chunk_bits in
    if c = Array.length t.chunks then begin
      let chunks = Array.make (max 4 (2 * c)) [||] in
      Array.blit t.chunks 0 chunks 0 c;
      t.chunks <- chunks
    end;
    t.chunks.(c) <- Array.make (stride lsl chunk_bits) 0
  end;
  Flat_index.add t.index key e;
  t.entries <- e + 1;
  e

let entry_of t key =
  let e = Flat_index.find t.index key in
  if e >= 0 then e else fresh t key

let record_wait t now target =
  if target > now then begin
    t.waits <- t.waits + (target - now);
    t.wait_events <- t.wait_events + 1
  end

let[@inline] acquire_write_e t e ~now ~cost_ns =
  let c = chunk t e and b = base e in
  let avail = imax (Array.unsafe_get c (b + f_writer)) (Array.unsafe_get c (b + f_reader)) in
  record_wait t now avail;
  Array.unsafe_set c (b + f_task) (Array.unsafe_get c (b + f_task) lor 1);
  imax now avail + int_of_float cost_ns

let[@inline] acquire_read_e t e ~now ~cost_ns =
  let avail = get t e f_writer in
  record_wait t now avail;
  imax now avail + int_of_float cost_ns

let[@inline] release_write_e t e ~at =
  let c = chunk t e and b = base e in
  Array.unsafe_set c (b + f_task) (Array.unsafe_get c (b + f_task) land lnot 1);
  if at > Array.unsafe_get c (b + f_writer) then Array.unsafe_set c (b + f_writer) at

let[@inline] release_read_e t e ~at = if at > get t e f_reader then set t e f_reader at

let[@inline] last_writer_task_e t e = (get t e f_task asr 1) - 1

let[@inline] set_last_writer_task_e t e id = set t e f_task (((id + 1) lsl 1) lor (get t e f_task land 1))

let acquire_write t key ~now ~cost_ns = acquire_write_e t (entry_of t key) ~now ~cost_ns

let acquire_read t key ~now ~cost_ns = acquire_read_e t (entry_of t key) ~now ~cost_ns

let release_writes t keys ~at = List.iter (fun key -> release_write_e t (entry_of t key) ~at) keys

let release_reads t keys ~at = List.iter (fun key -> release_read_e t (entry_of t key) ~at) keys

let held_by_active_tx t key =
  let e = Flat_index.find t.index key in
  e >= 0 && get t e f_task land 1 = 1

let last_writer_task t key =
  let e = Flat_index.find t.index key in
  if e >= 0 then last_writer_task_e t e else -1

let pinned t key ~applied_through =
  let e = Flat_index.find t.index key in
  e >= 0 && (get t e f_task land 1 = 1 || last_writer_task_e t e > applied_through)

let set_last_writer_task t key id = set_last_writer_task_e t (entry_of t key) id

let hold_writes t keys =
  List.iter
    (fun key ->
      let e = entry_of t key in
      set t e f_held (get t e f_writer);
      set t e f_writer max_int)
    keys

let release_held_writes t keys ~at =
  List.iter
    (fun key ->
      let e = entry_of t key in
      let w = get t e f_writer in
      if w = max_int then set t e f_writer (imax (get t e f_held) at)
      else if at > w then set t e f_writer at)
    keys

let waits t = t.waits

let wait_events t = t.wait_events

let reset_stats t =
  t.waits <- 0;
  t.wait_events <- 0
