(* White-box unit tests for the core components that the engine composes:
   the lock table's virtual-time semantics, the backup applier's timeline,
   and the backup manager's copy-tracking invariants. *)

module Clock = Kamino_sim.Clock
module Rng = Kamino_sim.Rng
module Region = Kamino_nvm.Region
module Heap = Kamino_heap.Heap
module Locks = Kamino_core.Locks
module Applier = Kamino_core.Applier
module Backup = Kamino_core.Backup
module Intent_log = Kamino_core.Intent_log

(* --- Locks ---------------------------------------------------------------- *)

let test_locks_uncontended () =
  let l = Locks.create () in
  Alcotest.(check int) "free lock acquired now" 105
    (Locks.acquire_write l 1 ~now:100 ~cost_ns:5.0);
  Alcotest.(check int) "read lock too" 205 (Locks.acquire_read l 2 ~now:200 ~cost_ns:5.0);
  Alcotest.(check int) "no waits recorded" 0 (Locks.wait_events l)

let test_locks_writer_blocks_writer () =
  let l = Locks.create () in
  ignore (Locks.acquire_write l 1 ~now:0 ~cost_ns:0.0);
  Locks.release_writes l [ 1 ] ~at:1000;
  Alcotest.(check int) "second writer waits for release" 1000
    (Locks.acquire_write l 1 ~now:300 ~cost_ns:0.0);
  Alcotest.(check int) "one wait event" 1 (Locks.wait_events l);
  Alcotest.(check int) "wait time recorded" 700 (Locks.waits l)

let test_locks_writer_blocks_reader_not_vice_versa () =
  let l = Locks.create () in
  ignore (Locks.acquire_write l 1 ~now:0 ~cost_ns:0.0);
  Locks.release_writes l [ 1 ] ~at:1000;
  Alcotest.(check int) "reader waits for writer" 1000
    (Locks.acquire_read l 1 ~now:100 ~cost_ns:0.0);
  Locks.release_reads l [ 1 ] ~at:2000;
  (* a later reader does NOT wait for the earlier reader *)
  Alcotest.(check int) "reader does not wait for reader" 1500
    (Locks.acquire_read l 1 ~now:1500 ~cost_ns:0.0);
  (* but a writer waits for the reader *)
  Alcotest.(check int) "writer waits for readers" 2000
    (Locks.acquire_write l 1 ~now:1200 ~cost_ns:0.0)

let test_locks_release_is_monotone () =
  let l = Locks.create () in
  ignore (Locks.acquire_write l 1 ~now:0 ~cost_ns:0.0);
  Locks.release_writes l [ 1 ] ~at:1000;
  (* an earlier release time must not pull the lock backwards *)
  Locks.release_writes l [ 1 ] ~at:500;
  Alcotest.(check int) "max of release times wins" 1000
    (Locks.acquire_write l 1 ~now:0 ~cost_ns:0.0)

let test_locks_active_tracking () =
  let l = Locks.create () in
  ignore (Locks.acquire_write l 7 ~now:0 ~cost_ns:0.0);
  Alcotest.(check bool) "held while active" true (Locks.held_by_active_tx l 7);
  Locks.release_writes l [ 7 ] ~at:10;
  Alcotest.(check bool) "released" false (Locks.held_by_active_tx l 7);
  Alcotest.(check bool) "unknown key not held" false (Locks.held_by_active_tx l 99)

let test_locks_last_task () =
  let l = Locks.create () in
  Alcotest.(check int) "no task yet" (-1) (Locks.last_writer_task l 3);
  Locks.set_last_writer_task l 3 42;
  Alcotest.(check int) "task recorded" 42 (Locks.last_writer_task l 3)

(* Reference model of the lock table's semantics over a Stdlib.Hashtbl of
   records: the layout the flat table replaced. Every returned time and
   the wait statistics must agree step by step, including the wrapping
   [max_int] arithmetic of an open-ended hold. *)
module Lock_model = struct
  type e = {
    mutable w : int;
    mutable r : int;
    mutable active : bool;
    mutable task : int;
    mutable held : int;
  }

  type t = { tbl : (int, e) Hashtbl.t; mutable waits : int; mutable events : int }

  let create () = { tbl = Hashtbl.create 16; waits = 0; events = 0 }

  let entry t k =
    match Hashtbl.find_opt t.tbl k with
    | Some e -> e
    | None ->
        let e = { w = 0; r = 0; active = false; task = -1; held = 0 } in
        Hashtbl.add t.tbl k e;
        e

  let wait t now target =
    if target > now then begin
      t.waits <- t.waits + (target - now);
      t.events <- t.events + 1
    end

  let acquire_write t k ~now ~cost =
    let e = entry t k in
    let avail = max e.w e.r in
    wait t now avail;
    e.active <- true;
    max now avail + int_of_float cost

  let acquire_read t k ~now ~cost =
    let e = entry t k in
    wait t now e.w;
    max now e.w + int_of_float cost

  let release_write t k ~at =
    let e = entry t k in
    e.active <- false;
    if at > e.w then e.w <- at

  let release_read t k ~at =
    let e = entry t k in
    if at > e.r then e.r <- at

  let hold t k =
    let e = entry t k in
    e.held <- e.w;
    e.w <- max_int

  let release_held t k ~at =
    let e = entry t k in
    if e.w = max_int then e.w <- max e.held at else if at > e.w then e.w <- at

  let find t k = Hashtbl.find_opt t.tbl k

  let held t k = match find t k with Some e -> e.active | None -> false

  let task t k = match find t k with Some e -> e.task | None -> -1
end

(* One step of a script. [h] routes the call through an entry handle, kept
   from the key's first handle use, so handles taken before the index grew
   stay in use after it. *)
type lock_op =
  | Acq_w of { k : int; now : int; cost : float; h : bool }
  | Acq_r of { k : int; now : int; cost : float; h : bool }
  | Rel_w of { k : int; at : int; h : bool }
  | Rel_r of { k : int; at : int; h : bool }
  | Hold of int list
  | Rel_held of { ks : int list; at : int }
  | Set_task of { k : int; id : int; h : bool }
  | Held of int
  | Task of { k : int; h : bool }
  | Pinned of { k : int; applied : int }

let show_lock_op = function
  | Acq_w { k; now; cost; h } -> Printf.sprintf "acq_w %d now=%d cost=%g h=%b" k now cost h
  | Acq_r { k; now; cost; h } -> Printf.sprintf "acq_r %d now=%d cost=%g h=%b" k now cost h
  | Rel_w { k; at; h } -> Printf.sprintf "rel_w %d at=%d h=%b" k at h
  | Rel_r { k; at; h } -> Printf.sprintf "rel_r %d at=%d h=%b" k at h
  | Hold ks -> "hold " ^ String.concat "," (List.map string_of_int ks)
  | Rel_held { ks; at } ->
      Printf.sprintf "rel_held %s at=%d" (String.concat "," (List.map string_of_int ks)) at
  | Set_task { k; id; h } -> Printf.sprintf "set_task %d id=%d h=%b" k id h
  | Held k -> Printf.sprintf "held %d" k
  | Task { k; h } -> Printf.sprintf "task %d h=%b" k h
  | Pinned { k; applied } -> Printf.sprintf "pinned %d applied=%d" k applied

(* About 3.5k distinct keys: cache-line-strided offsets, word-strided
   offsets that share lines, and a few extreme ints. *)
let lock_key_gen =
  QCheck.Gen.(
    frequency
      [
        (6, map (fun i -> 64 * i) (int_bound 2999));
        (3, map (fun i -> 4096 + (8 * i)) (int_bound 499));
        (1, map (fun i -> max_int - i) (int_bound 3));
        (1, map (fun i -> -1 - i) (int_bound 3));
      ])

let lock_op_gen =
  let open QCheck.Gen in
  let k = lock_key_gen and t = int_bound 100_000 in
  let cost = oneofl [ 0.0; 5.0; 12.7 ] in
  frequency
    [
      (4, map4 (fun k now cost h -> Acq_w { k; now; cost; h }) k t cost bool);
      (3, map4 (fun k now cost h -> Acq_r { k; now; cost; h }) k t cost bool);
      (3, map3 (fun k at h -> Rel_w { k; at; h }) k t bool);
      (2, map3 (fun k at h -> Rel_r { k; at; h }) k t bool);
      (1, map (fun ks -> Hold ks) (list_size (int_range 1 3) k));
      (1, map2 (fun ks at -> Rel_held { ks; at }) (list_size (int_range 1 3) k) t);
      (2, map3 (fun k id h -> Set_task { k; id; h }) k (int_bound 1000) bool);
      (1, map (fun k -> Held k) k);
      (1, map2 (fun k h -> Task { k; h }) k bool);
      (1, map2 (fun k applied -> Pinned { k; applied }) k (int_bound 1000));
    ]

let locks_match_model_qcheck =
  QCheck.Test.make ~name:"flat lock table matches a Hashtbl model" ~count:25
    (QCheck.make
       ~print:(fun ops -> String.concat "\n" (List.map show_lock_op ops))
       ~shrink:QCheck.Shrink.list
       QCheck.Gen.(list_size (int_range 3000 6000) lock_op_gen))
    (fun ops ->
      let l = Locks.create () and m = Lock_model.create () in
      let handles = Hashtbl.create 64 in
      let e k =
        match Hashtbl.find_opt handles k with
        | Some e -> e
        | None ->
            let e = Locks.entry_of l k in
            Hashtbl.add handles k e;
            e
      in
      let b2i b = if b then 1 else 0 in
      let step op =
        match op with
        | Acq_w { k; now; cost; h } ->
            ( (if h then Locks.acquire_write_e l (e k) ~now ~cost_ns:cost
               else Locks.acquire_write l k ~now ~cost_ns:cost),
              Lock_model.acquire_write m k ~now ~cost )
        | Acq_r { k; now; cost; h } ->
            ( (if h then Locks.acquire_read_e l (e k) ~now ~cost_ns:cost
               else Locks.acquire_read l k ~now ~cost_ns:cost),
              Lock_model.acquire_read m k ~now ~cost )
        | Rel_w { k; at; h } ->
            if h then Locks.release_write_e l (e k) ~at else Locks.release_writes l [ k ] ~at;
            Lock_model.release_write m k ~at;
            (0, 0)
        | Rel_r { k; at; h } ->
            if h then Locks.release_read_e l (e k) ~at else Locks.release_reads l [ k ] ~at;
            Lock_model.release_read m k ~at;
            (0, 0)
        | Hold ks ->
            Locks.hold_writes l ks;
            List.iter (Lock_model.hold m) ks;
            (0, 0)
        | Rel_held { ks; at } ->
            Locks.release_held_writes l ks ~at;
            List.iter (fun k -> Lock_model.release_held m k ~at) ks;
            (0, 0)
        | Set_task { k; id; h } ->
            if h then Locks.set_last_writer_task_e l (e k) id
            else Locks.set_last_writer_task l k id;
            (Lock_model.entry m k).Lock_model.task <- id;
            (0, 0)
        | Held k -> (b2i (Locks.held_by_active_tx l k), b2i (Lock_model.held m k))
        | Task { k; h } ->
            ( (if h then Locks.last_writer_task_e l (e k) else Locks.last_writer_task l k),
              Lock_model.task m k )
        | Pinned { k; applied } ->
            ( b2i (Locks.pinned l k ~applied_through:applied),
              b2i (Lock_model.held m k || Lock_model.task m k > applied) )
      in
      List.for_all
        (fun op ->
          let got, want = step op in
          let ok =
            got = want && Locks.waits l = m.waits && Locks.wait_events l = m.events
          in
          if not ok then
            QCheck.Test.fail_reportf "%s: got %d want %d; waits %d/%d events %d/%d"
              (show_lock_op op) got want (Locks.waits l) m.waits (Locks.wait_events l)
              m.events;
          ok)
        ops)

(* --- Applier -------------------------------------------------------------- *)

let make_ilog () =
  let clock = Clock.create () in
  let size = Intent_log.required_size ~max_user_threads:4 ~max_tx_entries:8 ~n_slots:8 in
  let r =
    Region.create ~crash_mode:Region.Drop_unflushed ~rng:(Rng.create 1) ~clock ~size ()
  in
  Intent_log.format r ~max_user_threads:4 ~max_tx_entries:8 ~n_slots:8

let test_applier_timeline () =
  let ilog = make_ilog () in
  let applied = ref [] in
  let a =
    Applier.create ~regions:[||]
      ~apply:(fun tasks ->
        List.iter
          (fun task ->
            applied := task.Applier.tx_id :: !applied;
            Intent_log.release ilog task.Applier.slot)
          tasks)
  in
  let slot1 = Option.get (Intent_log.begin_record ilog ~tx_id:1) in
  Intent_log.barrier ilog slot1;
  let slot2 = Option.get (Intent_log.begin_record ilog ~tx_id:2) in
  Intent_log.barrier ilog slot2;
  let id1, f1 = Applier.enqueue a ~commit_time:100 ~cost_ns:50.0 ~tx_id:1 ~slot:slot1 ~ranges:[] in
  let id2, f2 = Applier.enqueue a ~commit_time:120 ~cost_ns:50.0 ~tx_id:2 ~slot:slot2 ~ranges:[] in
  Alcotest.(check int) "first finishes at commit+cost" 150 f1;
  (* the second task starts when the first ends (150 > 120) *)
  Alcotest.(check int) "second queues behind first" 200 f2;
  Alcotest.(check int) "virtual now" 200 (Applier.virtual_now a);
  Alcotest.(check int) "nothing applied yet (lazy)" 0 (Applier.applied_through a);
  Applier.sync_through a id1;
  Alcotest.(check (list int)) "only first applied" [ 1 ] (List.rev !applied);
  Alcotest.(check int) "applied through first" id1 (Applier.applied_through a);
  Applier.drain a;
  Alcotest.(check (list int)) "both applied in order" [ 1; 2 ] (List.rev !applied);
  Alcotest.(check int) "applied through second" id2 (Applier.applied_through a);
  Alcotest.(check int) "queue empty" 0 (Applier.queued a)

let test_applier_idle_gap () =
  let ilog = make_ilog () in
  let a =
    Applier.create ~regions:[||]
      ~apply:(fun tasks ->
        List.iter (fun task -> Intent_log.release ilog task.Applier.slot) tasks)
  in
  let slot = Option.get (Intent_log.begin_record ilog ~tx_id:1) in
  Intent_log.barrier ilog slot;
  let _, f1 = Applier.enqueue a ~commit_time:100 ~cost_ns:10.0 ~tx_id:1 ~slot ~ranges:[] in
  Alcotest.(check int) "task 1 done at 110" 110 f1;
  (* a task committed much later starts at its commit time, not at 110 *)
  let slot2 = Option.get (Intent_log.begin_record ilog ~tx_id:2) in
  Intent_log.barrier ilog slot2;
  let _, f2 = Applier.enqueue a ~commit_time:5000 ~cost_ns:10.0 ~tx_id:2 ~slot:slot2 ~ranges:[] in
  Alcotest.(check int) "idle gap respected" 5010 f2

let test_applier_drain_one () =
  let ilog = make_ilog () in
  let a =
    Applier.create ~regions:[||]
      ~apply:(fun tasks ->
        List.iter (fun task -> Intent_log.release ilog task.Applier.slot) tasks)
  in
  Alcotest.(check (option int)) "drain on empty" None (Applier.drain_one a);
  let slot = Option.get (Intent_log.begin_record ilog ~tx_id:1) in
  let _, f = Applier.enqueue a ~commit_time:0 ~cost_ns:33.0 ~tx_id:1 ~slot ~ranges:[] in
  Alcotest.(check (option int)) "drain_one returns finish" (Some f) (Applier.drain_one a);
  Alcotest.(check int) "slot released back" 8 (Intent_log.free_slots ilog)

let test_applier_batching () =
  let ilog = make_ilog () in
  let batches = ref [] in
  let a =
    Applier.create ~regions:[||]
      ~apply:(fun tasks ->
        batches := List.map (fun task -> task.Applier.tx_id) tasks :: !batches;
        List.iter (fun task -> Intent_log.release ilog task.Applier.slot) tasks)
  in
  let enqueue tx_id =
    let slot = Option.get (Intent_log.begin_record ilog ~tx_id) in
    Intent_log.barrier ilog slot;
    ignore (Applier.enqueue a ~commit_time:0 ~cost_ns:10.0 ~tx_id ~slot ~ranges:[])
  in
  List.iter enqueue [ 1; 2; 3 ];
  Applier.drain a;
  Alcotest.(check (list (list int))) "one batch of three, in order" [ [ 1; 2; 3 ] ]
    (List.rev !batches);
  Alcotest.(check int) "batched tasks counted" 3 (Applier.tasks_batched a);
  Alcotest.(check int) "all applied" 3 (Applier.tasks_applied a);
  (* a single queued task drains as a batch of one and is not "batched" *)
  enqueue 4;
  Applier.drain a;
  Alcotest.(check (list (list int))) "singleton batch" [ [ 1; 2; 3 ]; [ 4 ] ]
    (List.rev !batches);
  Alcotest.(check int) "singleton not counted as batched" 3 (Applier.tasks_batched a);
  (* sync_through batches only the covered prefix *)
  enqueue 5;
  enqueue 6;
  enqueue 7;
  Applier.sync_through a (Applier.applied_through a + 2);
  Alcotest.(check (list (list int))) "prefix batch" [ [ 1; 2; 3 ]; [ 4 ]; [ 5; 6 ] ]
    (List.rev !batches);
  Applier.drain a

(* --- Backup --------------------------------------------------------------- *)

let make_dynamic ?(policy = Backup.Lru_policy) ?(slots_bytes = 16384) () =
  let clock = Clock.create () in
  let mk size =
    Region.create ~crash_mode:Region.Drop_unflushed ~rng:(Rng.create 2) ~clock ~size ()
  in
  let main = mk 65536 in
  let slots = mk slots_bytes in
  let table = mk 8192 in
  (Backup.create_dynamic ~slots ~table ~capacity:(Region.size table / 32) ~policy, main)

let no_pressure () = ()

let test_backup_roundtrip () =
  let b, main = make_dynamic () in
  Region.write_string main 1000 "versionA";
  Backup.ensure_copy b ~main ~off:1000 ~len:8 ~locked:(fun _ -> false) ~pressure:no_pressure;
  Alcotest.(check bool) "copy exists" true (Backup.has_copy b ~off:1000);
  Alcotest.(check int) "one miss" 1 (Backup.misses b);
  Region.write_string main 1000 "versionB";
  Alcotest.(check bool) "main rolled back" true (Backup.roll_back b ~main ~off:1000 ~len:8);
  Alcotest.(check string) "old version restored" "versionA" (Region.read_string main 1000 8);
  Region.write_string main 1000 "versionC";
  Backup.roll_forward b ~main ~off:1000 ~len:8;
  Region.write_string main 1000 "versionD";
  ignore (Backup.roll_back b ~main ~off:1000 ~len:8);
  Alcotest.(check string) "roll-forwarded version restored" "versionC"
    (Region.read_string main 1000 8)

let test_backup_hit_counting () =
  let b, main = make_dynamic () in
  Backup.ensure_copy b ~main ~off:64 ~len:32 ~locked:(fun _ -> false) ~pressure:no_pressure;
  Backup.ensure_copy b ~main ~off:64 ~len:32 ~locked:(fun _ -> false) ~pressure:no_pressure;
  Alcotest.(check int) "one miss" 1 (Backup.misses b);
  Alcotest.(check int) "one hit" 1 (Backup.hits b);
  Alcotest.(check int) "one resident" 1 (Backup.resident b)

let test_backup_eviction_pressure () =
  let b, main = make_dynamic () in
  (* slots region is 16 KiB; 1 KiB copies force evictions quickly *)
  for i = 0 to 31 do
    Backup.ensure_copy b ~main ~off:(1024 * (i + 1)) ~len:1000 ~locked:(fun _ -> false)
      ~pressure:no_pressure
  done;
  Alcotest.(check bool) "evictions happened" true (Backup.evictions b > 0);
  Alcotest.(check bool) "bounded residency" true (Backup.resident b <= 16);
  (* everything pinned -> pressure callback then failure *)
  let pressured = ref false in
  Alcotest.(check bool) "exhaustion raises when all pinned" true
    (try
       for i = 0 to 31 do
         Backup.ensure_copy b ~main ~off:(65536 - (1024 * (i + 1))) ~len:1000
           ~locked:(fun _ -> true)
           ~pressure:(fun () -> pressured := true)
       done;
       false
     with Failure _ -> true);
  Alcotest.(check bool) "pressure was signalled first" true !pressured

let test_backup_stale_length_replaced () =
  let b, main = make_dynamic () in
  Region.write_string main 2048 "old-size-contents!";
  Backup.ensure_copy b ~main ~off:2048 ~len:8 ~locked:(fun _ -> false) ~pressure:no_pressure;
  (* same offset, different length: the stale copy must be replaced, not
     reused (regression for the rolled-back-allocation corruption) *)
  Backup.ensure_copy b ~main ~off:2048 ~len:18 ~locked:(fun _ -> false) ~pressure:no_pressure;
  Alcotest.(check int) "second ensure was a miss" 2 (Backup.misses b);
  Region.write_string main 2048 "new-size-contents!";
  ignore (Backup.roll_back b ~main ~off:2048 ~len:18);
  Alcotest.(check string) "full-length restore" "old-size-contents!"
    (Region.read_string main 2048 18)

(* --- Eviction-policy properties ------------------------------------------- *)

(* A slots region of the minimum formattable size (data start 256 + 4096)
   holds exactly three 1024-byte copies (16-byte header + 1024 capacity per
   extent), so the fourth insertion must evict. *)
let tight_slots_bytes = 4352
let copy_len = 1000 (* class 1024 *)
let tight_capacity = 3

let offs_of_keys keys = List.map (fun k -> 1024 * k) keys

(* Random insertion storm with a pinned subset. Whatever the policy and the
   insertion/reinsertion order, a pinned resident copy must never be evicted
   as long as the pinned set itself fits in the slots region. *)
let pinned_never_evicted_qcheck policy name =
  QCheck.Test.make ~name ~count:200
    QCheck.(small_list (int_bound 15))
    (fun keys ->
      let b, main = make_dynamic ~policy ~slots_bytes:tight_slots_bytes () in
      (* Pin the first two distinct keys touched; everything else is fair
         game for eviction. *)
      let pinned = ref [] in
      let locked off = List.mem off !pinned in
      List.iter
        (fun key ->
          let off = 1024 * (key + 1) in
          if List.length !pinned < tight_capacity - 1
             && not (List.mem off !pinned)
          then pinned := off :: !pinned;
          Backup.ensure_copy b ~main ~off ~len:copy_len ~locked
            ~pressure:(fun () -> ()))
        keys;
      List.for_all (fun off -> Backup.has_copy b ~off) !pinned
      && Backup.resident b <= tight_capacity)

(* [ensure_copy] must raise only when the pinned working set genuinely
   exceeds the slots capacity — and must signal [pressure] first. With
   [n] distinct pinned keys the storm succeeds iff [n <= capacity]. *)
let exhaustion_iff_oversubscribed_qcheck policy name =
  QCheck.Test.make ~name ~count:100
    QCheck.(int_bound 5)
    (fun n ->
      let b, main = make_dynamic ~policy ~slots_bytes:tight_slots_bytes () in
      let offs = offs_of_keys (List.init n (fun i -> i + 1)) in
      let locked off = List.mem off offs in
      let pressured = ref false in
      let raised =
        try
          List.iter
            (fun off ->
              Backup.ensure_copy b ~main ~off ~len:copy_len ~locked
                ~pressure:(fun () -> pressured := true))
            offs;
          false
        with Failure _ -> true
      in
      if n <= tight_capacity then (not raised) && not !pressured
      else raised && !pressured)

(* The observable LRU/FIFO distinction: fill to capacity with A, B, C,
   re-touch A, then insert D. LRU evicts B (least recently used); FIFO
   ignores the re-touch and evicts A (first in). *)
let test_backup_policy_victim () =
  let victim policy =
    let b, main = make_dynamic ~policy ~slots_bytes:tight_slots_bytes () in
    let ensure off =
      Backup.ensure_copy b ~main ~off ~len:copy_len ~locked:(fun _ -> false)
        ~pressure:no_pressure
    in
    let a, bk, c, d = (1024, 2048, 3072, 4096) in
    ensure a; ensure bk; ensure c;
    Alcotest.(check int) "filled to capacity" tight_capacity (Backup.resident b);
    ensure a; (* hit: refreshes recency under LRU, a no-op under FIFO *)
    ensure d;
    Alcotest.(check int) "one eviction" 1 (Backup.evictions b);
    List.filter (fun off -> not (Backup.has_copy b ~off)) [ a; bk; c; d ]
  in
  Alcotest.(check (list int)) "LRU evicts the stale key" [ 2048 ]
    (victim Backup.Lru_policy);
  Alcotest.(check (list int)) "FIFO evicts the oldest insertion" [ 1024 ]
    (victim Backup.Fifo_policy)

let test_backup_survives_crash () =
  let b, main = make_dynamic () in
  Region.write_string main 512 "precious";
  Region.persist_all main;
  Backup.ensure_copy b ~main ~off:512 ~len:8 ~locked:(fun _ -> false) ~pressure:no_pressure;
  (* crash the backup regions and reopen: mapping and slot content survive *)
  List.iter
    (fun (k, _, _) -> ignore k)
    (Backup.dump_mapping b);
  let b = Backup.reopen b in
  Alcotest.(check bool) "copy survives reopen" true (Backup.has_copy b ~off:512);
  Region.write_string main 512 "clobber!";
  ignore (Backup.roll_back b ~main ~off:512 ~len:8);
  Alcotest.(check string) "content restored after reopen" "precious"
    (Region.read_string main 512 8)

let () =
  Alcotest.run "core_units"
    [
      ( "locks",
        [
          Alcotest.test_case "uncontended" `Quick test_locks_uncontended;
          Alcotest.test_case "writer blocks writer" `Quick test_locks_writer_blocks_writer;
          Alcotest.test_case "reader/writer asymmetry" `Quick
            test_locks_writer_blocks_reader_not_vice_versa;
          Alcotest.test_case "release monotone" `Quick test_locks_release_is_monotone;
          Alcotest.test_case "active tracking" `Quick test_locks_active_tracking;
          Alcotest.test_case "last task" `Quick test_locks_last_task;
          QCheck_alcotest.to_alcotest locks_match_model_qcheck;
        ] );
      ( "applier",
        [
          Alcotest.test_case "timeline" `Quick test_applier_timeline;
          Alcotest.test_case "idle gap" `Quick test_applier_idle_gap;
          Alcotest.test_case "drain one" `Quick test_applier_drain_one;
          Alcotest.test_case "batched drain" `Quick test_applier_batching;
        ] );
      ( "backup",
        [
          Alcotest.test_case "roundtrip" `Quick test_backup_roundtrip;
          Alcotest.test_case "hit counting" `Quick test_backup_hit_counting;
          Alcotest.test_case "eviction and pressure" `Quick test_backup_eviction_pressure;
          Alcotest.test_case "stale length replaced" `Quick test_backup_stale_length_replaced;
          Alcotest.test_case "survives crash" `Quick test_backup_survives_crash;
        ] );
      ( "eviction policy",
        [
          QCheck_alcotest.to_alcotest
            (pinned_never_evicted_qcheck Backup.Lru_policy
               "LRU: pinned copies survive eviction storms");
          QCheck_alcotest.to_alcotest
            (pinned_never_evicted_qcheck Backup.Fifo_policy
               "FIFO: pinned copies survive eviction storms");
          QCheck_alcotest.to_alcotest
            (exhaustion_iff_oversubscribed_qcheck Backup.Lru_policy
               "LRU: raises iff pinned set exceeds capacity, pressure first");
          QCheck_alcotest.to_alcotest
            (exhaustion_iff_oversubscribed_qcheck Backup.Fifo_policy
               "FIFO: raises iff pinned set exceeds capacity, pressure first");
          Alcotest.test_case "LRU vs FIFO victim" `Quick test_backup_policy_victim;
        ] );
    ]
