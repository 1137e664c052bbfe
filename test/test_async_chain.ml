(* Tests for the asynchronous chain: the command language, the persistent
   operation queues, and the event-driven protocol with mid-propagation
   crash injection and exactly-once execution. *)

module Sim = Kamino_sim.Engine
module Rng = Kamino_sim.Rng
module Clock = Kamino_sim.Clock
module Region = Kamino_nvm.Region
module Engine = Kamino_core.Engine
module Kv = Kamino_kv.Kv
module Op = Kamino_chain.Op
module Opqueue = Kamino_chain.Opqueue
module Async = Kamino_chain.Async_chain
module Chaos = Kamino_chaos.Chaos

(* --- Op ------------------------------------------------------------------- *)

let test_op_roundtrip () =
  List.iter
    (fun op ->
      Alcotest.(check bool) "decode inverts encode" true
        (Op.equal op (Op.decode (Op.encode op))))
    [
      Op.Put (1, "value");
      Op.Put (0, "");
      Op.Delete 42;
      Op.Append (7, "suffix");
      Op.Put (max_int / 2, String.make 500 'x');
    ]

let test_op_decode_garbage () =
  List.iter
    (fun s ->
      Alcotest.(check bool)
        (Printf.sprintf "garbage %S rejected" s)
        true
        (try
           ignore (Op.decode s);
           false
         with Op.Decode_error _ -> true))
    [ ""; "x"; "P\x01"; "Q" ^ String.make 16 '\x00'; "P" ^ String.make 20 '\xff' ]

let test_op_apply () =
  let e =
    Engine.create
      ~config:{ Engine.default_config with Engine.heap_bytes = 1 lsl 20 }
      ~kind:Engine.Kamino_simple ~seed:1 ()
  in
  let kv = Kv.create e ~value_size:128 ~node_size:512 in
  Op.apply (Op.Put (1, "hello")) kv;
  Alcotest.(check (option string)) "put" (Some "hello") (Kv.get kv 1);
  Op.apply (Op.Append (1, "-world")) kv;
  Alcotest.(check (option string)) "append" (Some "hello-world") (Kv.get kv 1);
  Op.apply (Op.Append (2, "fresh")) kv;
  Alcotest.(check (option string)) "append to absent inserts" (Some "fresh") (Kv.get kv 2);
  Op.apply (Op.Delete 1) kv;
  Alcotest.(check (option string)) "delete" None (Kv.get kv 1)

let op_roundtrip_qcheck =
  QCheck.Test.make ~name:"random ops roundtrip through the wire format" ~count:200
    QCheck.(triple (int_range 0 3) (int_range 0 1_000_000) string)
    (fun (tag, key, payload) ->
      let op =
        match tag with
        | 0 -> Op.Put (key, payload)
        | 1 -> Op.Delete key
        | _ -> Op.Append (key, payload)
      in
      Op.equal op (Op.decode (Op.encode op)))

(* --- Opqueue ---------------------------------------------------------------- *)

let make_queue ?(crash_mode = Region.Drop_unflushed) ?(n_slots = 8) () =
  let clock = Clock.create () in
  let r =
    Region.create ~crash_mode ~rng:(Rng.create 4) ~clock
      ~size:(Opqueue.required_size ~slot_bytes:64 ~n_slots)
      ()
  in
  (Opqueue.format r ~slot_bytes:64 ~n_slots, r)

let test_queue_fifo () =
  let q, _ = make_queue () in
  Alcotest.(check bool) "empty" true (Opqueue.is_empty q);
  Alcotest.(check int) "seq 0" 0 (Opqueue.enqueue q "a");
  Alcotest.(check int) "seq 1" 1 (Opqueue.enqueue q "b");
  Alcotest.(check int) "length" 2 (Opqueue.length q);
  Alcotest.(check (option (pair int string))) "peek" (Some (0, "a")) (Opqueue.peek q);
  Alcotest.(check (option (pair int string))) "dequeue a" (Some (0, "a")) (Opqueue.dequeue q);
  Alcotest.(check (option (pair int string))) "dequeue b" (Some (1, "b")) (Opqueue.dequeue q);
  Alcotest.(check (option (pair int string))) "drained" None (Opqueue.dequeue q)

let test_queue_wraparound () =
  let q, _ = make_queue ~n_slots:4 () in
  for round = 0 to 24 do
    let seq = Opqueue.enqueue q (Printf.sprintf "p%d" round) in
    Alcotest.(check int) "seqs are global" round seq;
    Alcotest.(check (option (pair int string))) "fifo across wraps"
      (Some (round, Printf.sprintf "p%d" round))
      (Opqueue.dequeue q)
  done

let test_queue_full () =
  let q, _ = make_queue ~n_slots:2 () in
  ignore (Opqueue.enqueue q "a");
  ignore (Opqueue.enqueue q "b");
  Alcotest.(check bool) "full" true (Opqueue.is_full q);
  Alcotest.(check bool) "enqueue on full raises" true
    (try
       ignore (Opqueue.enqueue q "c");
       false
     with Failure _ -> true);
  ignore (Opqueue.dequeue q);
  Alcotest.(check int) "space reclaimed" 2 (Opqueue.enqueue q "c")

let test_queue_drop_through () =
  let q, _ = make_queue () in
  for i = 0 to 5 do
    ignore (Opqueue.enqueue q (string_of_int i))
  done;
  Opqueue.drop_through q 3;
  Alcotest.(check (option (pair int string))) "entries <= 3 dropped" (Some (4, "4"))
    (Opqueue.peek q);
  Opqueue.drop_through q 100;
  Alcotest.(check bool) "drop past tail empties" true (Opqueue.is_empty q)

let test_queue_crash_durability () =
  let q, r = make_queue () in
  ignore (Opqueue.enqueue q "one");
  ignore (Opqueue.enqueue q "two");
  ignore (Opqueue.dequeue q);
  Region.crash r;
  let q = Opqueue.open_existing r in
  Alcotest.(check int) "head survived" 1 (Opqueue.head_seq q);
  Alcotest.(check int) "tail survived" 2 (Opqueue.tail_seq q);
  Alcotest.(check (option (pair int string))) "contents survived" (Some (1, "two"))
    (Opqueue.peek q)

let test_queue_torn_publishes () =
  (* Word-random crashes after enqueues: the recovered queue must always be
     a well-formed window whose entries decode intact. *)
  for seed = 1 to 40 do
    let clock = Clock.create () in
    let r =
      Region.create ~crash_mode:Region.Words_survive_randomly ~rng:(Rng.create seed) ~clock
        ~size:(Opqueue.required_size ~slot_bytes:64 ~n_slots:8)
        ()
    in
    let q = Opqueue.format r ~slot_bytes:64 ~n_slots:8 in
    ignore (Opqueue.enqueue q "committed");
    (* crash possibly mid-way through the second publish *)
    ignore (Opqueue.enqueue q "racing");
    Region.crash r;
    let q = Opqueue.open_existing r in
    Opqueue.iter q (fun ~seq ~payload ->
        match seq with
        | 0 -> Alcotest.(check string) "entry 0 intact" "committed" payload
        | 1 -> Alcotest.(check string) "entry 1 intact" "racing" payload
        | _ -> Alcotest.failf "unexpected seq %d" seq)
  done

(* --- Async chain ------------------------------------------------------------ *)

let engine_config =
  {
    Engine.default_config with
    Engine.heap_bytes = 2 lsl 20;
    log_slots = 64;
    data_log_bytes = 1 lsl 19;
  }

let kamino = Async.Kamino_chain { alpha = None }
let dynamic = Async.Kamino_chain { alpha = Some 0.1 }
let modes = [ Async.Traditional; kamino; dynamic ]

let make_chain ?(mode = kamino) ?(f = 2) () =
  Async.create ~engine_config ~hop_ns:5000 ~rpc_ns:500 ~mode ~f ~value_size:128
    ~node_size:512 ~seed:99 ()

(* [each_mode f] runs [f name chain] on a fresh chain of every mode. *)
let each_mode f = List.iter (fun mode -> f (Chaos.mode_name mode) (make_chain ~mode ())) modes

let sim_now c = Sim.now (Async.sim c)

let consistent name c =
  match Async.replicas_consistent c with Ok () -> () | Error e -> Alcotest.failf "%s: %s" name e

let run_op c op =
  Async.submit c ~at:(sim_now c) op ~on_complete:ignore;
  ignore (Async.run c)

let put_and_run c k v = run_op c (Op.Put (k, v))

let read_now c k =
  let v = ref None in
  Async.read c ~at:(sim_now c) k ~on_result:(fun r _ -> v := r);
  ignore (Async.run c);
  !v

let check_everywhere name c k expect =
  List.iter
    (fun i ->
      Alcotest.(check (option string)) (Printf.sprintf "%s: replica %d" name i) expect
        (Kv.get (Async.kv_at c i) k))
    (Async.members c)

let test_async_replication () =
  List.iter
    (fun mode ->
      let c = make_chain ~mode () in
      let completions = ref [] in
      for k = 0 to 19 do
        Async.submit c ~at:(k * 1000)
          (Op.Put (k, Printf.sprintf "v%d" k))
          ~on_complete:(fun t -> completions := t :: !completions)
      done;
      ignore (Async.run c);
      Alcotest.(check int) "all completions fired" 20 (List.length !completions);
      consistent (Chaos.mode_name mode) c;
      for i = 0 to Async.length c - 1 do
        Alcotest.(check int)
          (Printf.sprintf "replica %d executed everything exactly once" i)
          20 (Async.executed_seq c i)
      done)
    modes

let test_async_completion_after_full_round_trip () =
  let c = make_chain () in
  let finish = ref 0 in
  Async.submit c ~at:0 (Op.Put (1, "x")) ~on_complete:(fun t -> finish := t);
  ignore (Async.run c);
  (* 3 forward hops + 1 ack hop at 5 us plus processing *)
  Alcotest.(check bool)
    (Printf.sprintf "completion (%d) covers 4 hops" !finish)
    true
    (!finish >= 4 * 5000)

let test_async_reads_at_tail () =
  let c = make_chain () in
  Async.submit c ~at:0 (Op.Put (5, "tailread")) ~on_complete:(fun _ -> ());
  let result = ref None in
  Async.read c ~at:1_000_000 5 ~on_result:(fun v _ -> result := v);
  ignore (Async.run c);
  Alcotest.(check (option string)) "read served by tail" (Some "tailread") !result

let test_async_quick_reboot_mid_propagation mode () =
  (* Crash a replica while a burst of writes is streaming through the
     chain; every write must still complete and replicate exactly once. *)
  List.iter
    (fun victim ->
      let c = make_chain ~mode () in
      let completed = ref 0 in
      for k = 0 to 39 do
        Async.submit c ~at:(k * 2000)
          (Op.Append (k mod 7, Printf.sprintf "+%d" k))
          ~on_complete:(fun _ -> incr completed)
      done;
      (* the reboot lands mid-burst *)
      Async.quick_reboot c ~at:41_000 victim;
      ignore (Async.run c);
      Alcotest.(check int)
        (Printf.sprintf "victim %d: all writes completed" victim)
        40 !completed;
      consistent (Printf.sprintf "victim %d" victim) c;
      for i = 0 to Async.length c - 1 do
        Alcotest.(check int)
          (Printf.sprintf "victim %d: replica %d exactly-once" victim i)
          40 (Async.executed_seq c i)
      done)
    [ 0; 1; 2; 3 ]

let test_async_repeated_reboots_random mode () =
  let rng = Rng.create 5 in
  let c = make_chain ~mode () in
  let completed = ref 0 in
  let n = 100 in
  for k = 0 to n - 1 do
    Async.submit c ~at:(k * 3000)
      (Op.Put (k mod 17, Printf.sprintf "r%d" k))
      ~on_complete:(fun _ -> incr completed)
  done;
  for _ = 1 to 6 do
    Async.quick_reboot c
      ~at:(Rng.int rng (n * 3000))
      (Rng.int rng (Async.length c))
  done;
  ignore (Async.run c);
  Alcotest.(check int) "all writes completed" n !completed;
  consistent "random reboots" c

(* A persistent input-queue slot that decodes to garbage — bit rot under a
   valid queue checksum — must be detected when the rebooting replica
   re-drives its queue, and surfaced with the replica and slot rather than
   silently executed. *)
let test_corrupt_input_slot_detected () =
  let c = make_chain () in
  Async.submit c ~at:1_000 (Op.Put (0, "good")) ~on_complete:(fun _ -> ());
  ignore (Async.run c);
  (* Plant a corrupt envelope (valid sequence header, garbage command) in
     replica 1's persistent input queue, as in-place corruption would. *)
  let seq_header =
    let b = Bytes.create 8 in
    Bytes.set_int64_le b 0 99L;
    Bytes.to_string b
  in
  ignore (Opqueue.enqueue (Async.input_queue c 1) (seq_header ^ "Zjunk"));
  (match Async.reboot_now c 1 with
  | () -> Alcotest.fail "corrupt slot executed or ignored"
  | exception Async.Corrupt_entry { node; reason; _ } ->
      Alcotest.(check int) "names the replica" 1 node;
      Alcotest.(check bool) "carries the decoder's reason" true (String.length reason > 0));
  (* The garbage was never applied: sequence 99 is not in the replica's
     applied set and the committed state still holds only the good write. *)
  Alcotest.(check bool) "phantom sequence not applied" true
    (not (List.mem 99 (Async.applied_seqs c 1)));
  Alcotest.(check (option string)) "state unaffected" (Some "good") (Kv.get (Async.kv_at c 1) 0)

(* --- Figure-17 shape, storage, dependent writes, restart ------------------- *)

let storage_bytes c =
  List.fold_left
    (fun acc i -> acc + Engine.storage_bytes (Async.engine_at c i))
    0 (Async.members c)

(* [closed_loop c ~clients n issue] runs ops [0..n-1], [clients] at a time:
   [issue i ~at k] starts op [i] at [at] and calls [k] with its completion
   time, which issues that client's next op. *)
let closed_loop c ~clients n issue =
  let next = ref 0 in
  let rec client at =
    if !next < n then begin
      let i = !next in
      incr next;
      issue i ~at client
    end
  in
  let start = sim_now c in
  for _ = 1 to clients do
    client start
  done;
  ignore (Async.run c)

(* Mean client latency of a small YCSB run, 12 closed-loop clients, after a
   preload through the chain — the bench's Figure-17 loop in miniature. *)
let ycsb_mean_latency mode workload =
  let records = 400 in
  let c =
    Async.create ~engine_config ~hop_ns:5000 ~rpc_ns:1000 ~mode ~f:2 ~value_size:1024
      ~node_size:512 ~seed:747 ()
  in
  let payload = String.make 1000 'k' in
  closed_loop c ~clients:12 records (fun k ~at k_done ->
      Async.submit c ~at (Op.Put (k, payload)) ~on_complete:k_done);
  let wl = Kamino_workload.Ycsb.create workload ~record_count:records ~theta:0.99 in
  let rng = Rng.create 515 in
  let total = ref 0 and n = 1200 in
  closed_loop c ~clients:12 n (fun _ ~at k_done ->
      let complete t =
        total := !total + (t - at);
        k_done t
      in
      match Kamino_workload.Ycsb.next wl rng with
      | Read k | Scan (k, _) -> Async.read c ~at k ~on_result:(fun _ t -> complete t)
      | Update k | Insert k ->
          Async.submit c ~at (Op.Put (k, payload)) ~on_complete:complete
      | Rmw k -> Async.submit c ~at (Op.Append (k, "")) ~on_complete:complete);
  consistent (Kamino_workload.Ycsb.name workload) c;
  float_of_int !total /. float_of_int n

let test_kamino_beats_traditional () =
  (* Figure 17's shape: Kamino-Tx-Chain commits without critical-path
     copies, so it wins on the write-heavy A and wins least on the
     read-mostly B. *)
  let speedup wl =
    ycsb_mean_latency Async.Traditional wl
    /. ycsb_mean_latency kamino wl
  in
  let a = speedup Kamino_workload.Ycsb.A and b = speedup Kamino_workload.Ycsb.B in
  Alcotest.(check bool) (Printf.sprintf "speedup on A (%.2f) > 1" a) true (a > 1.0);
  Alcotest.(check bool)
    (Printf.sprintf "speedup on A (%.2f) > on B (%.2f)" a b)
    true (a > b)

let test_storage_accounting () =
  (* Traditional: f+1 undo-logging replicas. Kamino: f+2 heaps plus the
     head's backup — a full heap, or an alpha-sized one under a dynamic
     head. *)
  let trad = storage_bytes (make_chain ~mode:Async.Traditional ()) in
  let dyn =
    storage_bytes (make_chain ~mode:(Async.Kamino_chain { alpha = Some 0.2 }) ())
  in
  let kam = storage_bytes (make_chain ()) in
  Alcotest.(check bool) "kamino ~ (f+2+1) heaps" true
    (kam > 4 * engine_config.Engine.heap_bytes);
  Alcotest.(check bool)
    (Printf.sprintf "traditional (%d) < dynamic (%d) < full (%d)" trad dyn kam)
    true
    (trad < dyn && dyn < kam)

let test_dependent_writes_wait_for_ack () =
  (* Two writes issued before the first write's ack: the independent one
     and the dependent one (same key) both complete after that ack, the
     dependent one behind the independent one, and its value wins at every
     replica. (The head's lock hold itself is not yet charged as a
     simulated wait — DESIGN.md §6.) *)
  let t1 =
    let c = make_chain () in
    let t1 = ref 0 in
    Async.submit c ~at:0 (Op.Put (1, "first")) ~on_complete:(fun t -> t1 := t);
    ignore (Async.run c);
    !t1
  in
  let c = make_chain () in
  let t_ind = ref 0 and t_dep = ref 0 in
  Async.submit c ~at:0 (Op.Put (1, "first")) ~on_complete:ignore;
  Async.submit c ~at:(t1 / 2) (Op.Put (2, "independent"))
    ~on_complete:(fun t -> t_ind := t);
  Async.submit c ~at:(t1 / 2) (Op.Put (1, "second")) ~on_complete:(fun t -> t_dep := t);
  ignore (Async.run c);
  Alcotest.(check bool) "dependent write completes after the ack" true (!t_dep >= t1);
  Alcotest.(check bool)
    (Printf.sprintf "independent (%d) completes before dependent (%d)" !t_ind !t_dep)
    true (!t_ind < !t_dep);
  consistent "dependent writes" c;
  Alcotest.(check (option string)) "dependent value wins" (Some "second")
    (Kv.get (Async.kv_at c (Async.tail_id c)) 1)

let test_whole_cluster_restart modes () =
  (* §5.3's data-integrity protocol: every replica loses power at the same
     virtual time while writes are still propagating. Recovery runs in
     chain order — the head from its own log or backup, each other
     replica from its (already recovered) neighbour — and the persistent
     queues re-drive whatever had not reached the tail. *)
  List.iter
    (fun mode ->
      let name = Chaos.mode_name mode in
      let c = make_chain ~mode () in
      let completed = ref 0 in
      for k = 0 to 29 do
        Async.submit c ~at:(k * 2000)
          (Op.Put (k, Printf.sprintf "v%d" k))
          ~on_complete:(fun _ -> incr completed)
      done;
      List.iter (fun i -> Async.quick_reboot c ~at:31_000 i) (Async.members c);
      ignore (Async.run c);
      Alcotest.(check int) (name ^ ": every write completed") 30 !completed;
      consistent (name ^ " cluster restart") c;
      put_and_run c 99 "post-restart";
      Alcotest.(check (option string)) (name ^ ": chain usable after restart")
        (Some "post-restart") (read_now c 99))
    modes

let test_abort_stays_local modes () =
  (* Aborts are decided at the head and never enter the chain — also at a
     freshly promoted head, whose abort needs the backup it just built. *)
  List.iter
    (fun mode ->
      let name = Chaos.mode_name mode in
      let c = make_chain ~mode () in
      put_and_run c 5 "committed";
      Kv.put_aborted (Async.kv_at c (Async.head_id c)) 5 "aborted";
      consistent (name ^ " after abort") c;
      Alcotest.(check (option string)) (name ^ ": abort invisible") (Some "committed")
        (Kv.get (Async.kv_at c (Async.tail_id c)) 5);
      Async.fail_stop_now c (Async.head_id c);
      ignore (Async.run c);
      put_and_run c 6 "new-head-write";
      Kv.put_aborted (Async.kv_at c (Async.head_id c)) 6 "aborted";
      consistent (name ^ " after abort on new head") c;
      Alcotest.(check (option string)) (name ^ ": new head's abort invisible")
        (Some "new-head-write")
        (Kv.get (Async.kv_at c (Async.head_id c)) 6))
    modes

let test_reboot_rolls_torn_tx_forward () =
  (* §5.3: a non-head replica that dies inside a transaction has no local
     backup; recovery rolls the torn object forward from its predecessor. *)
  let c = make_chain () in
  for k = 0 to 5 do
    put_and_run c k (Printf.sprintf "v%d" k)
  done;
  let mid_kv = Async.kv_at c 2 in
  let vptr = Option.get (Kv.value_ptr mid_kv 3) in
  let tx = Engine.begin_tx (Kv.engine mid_kv) in
  Engine.add tx vptr;
  Engine.write_string tx vptr 8 "torn-write-data";
  (* the torn bytes reached NVM before the power went *)
  Region.persist_all (Engine.main_region (Kv.engine mid_kv));
  Async.reboot_now c 2;
  ignore (Async.run c);
  consistent "after mid reboot" c;
  Alcotest.(check (option string)) "value restored from predecessor" (Some "v3")
    (Kv.get (Async.kv_at c 2) 3)

(* --- Replication, timing and failures in every mode ---------------------- *)

let test_replica_counts () =
  List.iter
    (fun f ->
      Alcotest.(check (list int)) (Printf.sprintf "f=%d: f+1 traditional, f+2 kamino" f)
        [ f + 1; f + 2; f + 2 ]
        (List.map (fun mode -> Async.length (make_chain ~mode ~f ())) modes))
    [ 1; 2; 3 ];
  Alcotest.check_raises "f = 0" (Invalid_argument "Async_chain.create: f must be at least 1")
    (fun () -> ignore (make_chain ~f:0 ()))

let test_mode_picks_engines () =
  (* Only a Kamino head keeps a local copy, sized by [alpha]. *)
  List.iter2
    (fun mode kinds ->
      Alcotest.(check (list string)) (Chaos.mode_name mode) kinds
        (let c = make_chain ~mode () in
         List.map (fun i -> Engine.kind_name (Engine.kind (Async.engine_at c i))) (Async.members c)))
    modes
    [
      List.init 3 (fun _ -> "undo-logging");
      "kamino-simple" :: List.init 3 (fun _ -> "intent-only");
      "kamino-dynamic(10%)" :: List.init 3 (fun _ -> "intent-only");
    ]

let test_writes_replicate () =
  each_mode (fun name c ->
      for k = 0 to 19 do
        Async.submit c ~at:(k * 1000) (Op.Put (k, Printf.sprintf "val-%d" k)) ~on_complete:ignore
      done;
      ignore (Async.run c);
      consistent name c;
      Alcotest.(check (option string)) (name ^ ": read at tail") (Some "val-7") (read_now c 7))

let test_rmw_and_delete_replicate () =
  each_mode (fun name c ->
      put_and_run c 1 "base";
      run_op c (Op.Append (1, "+rmw"));
      check_everywhere (name ^ " rmw") c 1 (Some "base+rmw");
      run_op c (Op.Delete 1);
      check_everywhere (name ^ " delete") c 1 None)

(* [random_ops seed f] feeds [f i op] 200 random writes on 30 keys. *)
let random_ops seed f =
  let rng = Rng.create seed in
  for i = 0 to 199 do
    let k = Rng.int rng 30 in
    f i
      (match Rng.int rng 3 with
      | 0 -> Op.Put (k, Printf.sprintf "p%d" i)
      | 1 -> Op.Delete k
      | _ -> Op.Append (k, "."))
  done

let test_random_workload_consistency () =
  (* One op every 700 ns, so several are in flight at once, with a tail
     read after each. *)
  each_mode (fun name c ->
      let done_ = ref 0 in
      random_ops 13 (fun i op ->
          Async.submit c ~at:(i * 700) op ~on_complete:(fun _ -> incr done_);
          Async.read c ~at:(i * 700) i ~on_result:(fun _ _ -> incr done_));
      ignore (Async.run c);
      Alcotest.(check int) (name ^ ": every op completed") 400 !done_;
      consistent name c)

let test_agrees_with_sequential_model () =
  (* The head sequences writes in arrival order, so every replica ends up
     equal to the same writes applied one by one to a plain table. *)
  each_mode (fun name c ->
      let model = Hashtbl.create 32 in
      random_ops 29 (fun i op ->
          (match op with
          | Op.Put (k, v) -> Hashtbl.replace model k v
          | Op.Delete k -> Hashtbl.remove model k
          | Op.Append (k, s) ->
              Hashtbl.replace model k (Option.value (Hashtbl.find_opt model k) ~default:"" ^ s)
          | Op.Batch _ -> assert false);
          Async.submit c ~at:(i * 700) op ~on_complete:ignore);
      ignore (Async.run c);
      for k = 0 to 29 do
        check_everywhere (Printf.sprintf "%s key %d" name k) c k (Hashtbl.find_opt model k)
      done)

let test_jittered_links_keep_order () =
  (* Hop jitter far above the submit spacing must not reorder a link:
     overlapping appends to one key land in submit order everywhere. *)
  let c = make_chain () in
  Async.set_hop_jitter c (Some (Rng.create 3, 20_000));
  let parts = List.init 30 (fun i -> string_of_int (i mod 10)) in
  List.iteri (fun i d -> Async.submit c ~at:(i * 500) (Op.Append (1, d)) ~on_complete:ignore) parts;
  ignore (Async.run c);
  check_everywhere "jitter" c 1 (Some (String.concat "" parts))

let test_write_latency_includes_hops () =
  (* n-1 forward hops plus the tail's ack: every extra replica adds a hop. *)
  List.iter
    (fun mode ->
      let latency f =
        let c = make_chain ~mode ~f () and t = ref 0 in
        Async.submit c ~at:0 (Op.Put (1, "x")) ~on_complete:(fun x -> t := x);
        ignore (Async.run c);
        (!t, Async.length c)
      in
      let t1, n1 = latency 1 and t3, n3 = latency 3 in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %d ns for %d replicas, %d ns for %d" (Chaos.mode_name mode) t1 n1
           t3 n3)
        true
        (t1 >= n1 * 5000 && t3 - t1 >= (n3 - n1) * 5000))
    modes

let test_reads_see_acknowledged_writes () =
  (* A tail read issued when a write is acknowledged returns that write. *)
  each_mode (fun name c ->
      let stale = ref 0 in
      closed_loop c ~clients:4 60 (fun i ~at k_done ->
          let v = Printf.sprintf "w%d" i in
          Async.submit c ~at (Op.Put (i, v)) ~on_complete:(fun t ->
              Async.read c ~at:t i ~on_result:(fun r t' ->
                  if r <> Some v then incr stale;
                  k_done t')));
      Alcotest.(check int) (name ^ ": stale reads") 0 !stale)

let test_fail_stop_tail_and_mid () =
  each_mode (fun name c ->
      for k = 0 to 9 do
        put_and_run c k "v"
      done;
      Async.fail_stop_now c (Async.tail_id c);
      put_and_run c 100 "after-tail-failure";
      Async.fail_stop_now c (List.nth (Async.members c) 1);
      put_and_run c 101 "after-mid-failure";
      Alcotest.(check int) (name ^ ": two replicas left the view") (Async.length c - 2)
        (List.length (Async.members c));
      consistent name c;
      Alcotest.(check (list (option string))) (name ^ ": writes after the failures")
        [ Some "after-tail-failure"; Some "after-mid-failure" ]
        [ read_now c 100; read_now c 101 ])

let test_head_failure_promotes () =
  (* §5.2: the next replica takes over and builds a full local backup. *)
  List.iter
    (fun mode ->
      let name = Chaos.mode_name mode and c = make_chain ~mode () in
      for k = 0 to 9 do
        put_and_run c k (Printf.sprintf "v%d" k)
      done;
      Async.fail_stop_now c 0;
      Alcotest.(check (option int)) (name ^ ": promotion pending") (Some 1)
        (Async.promotion_pending c);
      ignore (Async.run c);
      Alcotest.(check string) (name ^ ": promoted head") "kamino-simple"
        (Engine.kind_name (Engine.kind (Async.engine_at c (Async.head_id c))));
      put_and_run c 50 "new-head-write";
      check_everywhere name c 50 (Some "new-head-write"))
    [ kamino; dynamic ]

let test_quick_reboot_head () =
  each_mode (fun name c ->
      for k = 0 to 9 do
        put_and_run c k "stable"
      done;
      Async.reboot_now c (Async.head_id c);
      consistent (name ^ " after head reboot") c;
      put_and_run c 10 "post-reboot";
      Alcotest.(check (option string)) (name ^ ": head usable") (Some "post-reboot") (read_now c 10))

let test_inflight_completion_after_reboot () =
  (* Replica 2 reboots at every microsecond of one write's life — before
     the write reaches it, after it forwarded it, after the tail's ack: the
     write completes exactly once everywhere. *)
  List.iter
    (fun offset ->
      let name = Printf.sprintf "reboot at +%d ns" offset and c = make_chain () in
      put_and_run c 1 "base";
      let acks = ref 0 in
      Async.submit c ~at:(sim_now c) (Op.Append (1, "+inflight")) ~on_complete:(fun _ -> incr acks);
      Async.quick_reboot c ~at:(sim_now c + offset) 2;
      ignore (Async.run c);
      Alcotest.(check int) (name ^ ": one ack") 1 !acks;
      check_everywhere name c 1 (Some "base+inflight");
      List.iter
        (fun i -> Alcotest.(check int) (name ^ ": exactly once") 2 (Async.executed_seq c i))
        (Async.members c))
    (List.init 40 (fun us -> us * 1000))

let test_fail_stop_mid_propagation () =
  (* A mid or tail replica removed while a burst streams through: the
     survivors re-drive their in-flight windows and every write completes. *)
  List.iter
    (fun (mode, victim) ->
      let c = make_chain ~mode () and completed = ref 0 in
      let name = Printf.sprintf "%s, victim %d" (Chaos.mode_name mode) victim in
      for k = 0 to 29 do
        Async.submit c ~at:(k * 2000) (Op.Put (k, "b")) ~on_complete:(fun _ -> incr completed)
      done;
      Async.fail_stop c ~at:31_000 victim;
      ignore (Async.run c);
      Alcotest.(check int) (name ^ ": every write completed") 30 !completed;
      consistent name c;
      List.iter
        (fun i -> Alcotest.(check int) (name ^ ": exactly once") 30 (Async.executed_seq c i))
        (Async.members c))
    [ (Async.Traditional, 1); (Async.Traditional, 2); (kamino, 2); (dynamic, 3) ]

let test_last_member_stays () =
  let c = make_chain ~mode:Async.Traditional () in
  Async.fail_stop_now c 2;
  Async.fail_stop_now c 0;
  Alcotest.check_raises "last member"
    (Invalid_argument "Async_chain.fail_stop: cannot remove the last member") (fun () ->
      Async.fail_stop_now c 1);
  put_and_run c 1 "solo";
  Alcotest.(check (option string)) "a one-replica chain serves" (Some "solo") (read_now c 1)

let test_reboot_downtime () =
  (* A replica dark for 200 us holds up the writes behind it, losing none. *)
  let last_completion downtime_ns =
    let c = make_chain () and last = ref 0 and completed = ref 0 in
    for k = 0 to 19 do
      Async.submit c ~at:(k * 2000) (Op.Put (k, "d")) ~on_complete:(fun t ->
          incr completed;
          last := max !last t)
    done;
    Async.quick_reboot ~downtime_ns c ~at:21_000 1;
    ignore (Async.run c);
    Alcotest.(check int) "every write completed" 20 !completed;
    consistent "downtime" c;
    !last
  in
  let quick = last_completion 0 and dark = last_completion 200_000 in
  Alcotest.(check bool) (Printf.sprintf "last ack %d ns, dark %d ns" quick dark) true
    (quick < 221_000 && dark >= 221_000)

let test_backup_scales_with_alpha () =
  (* The dynamic head's backup keeps [alpha] of a heap in copy slots, plus
     their lookup table: every alpha step adds at least its slot bytes. *)
  let bytes a = storage_bytes (make_chain ~mode:(Async.Kamino_chain { alpha = Some a }) ()) in
  let heap = float_of_int engine_config.Engine.heap_bytes in
  List.fold_left
    (fun (a0, b0) a ->
      let b = bytes a in
      Alcotest.(check bool) (Printf.sprintf "alpha %g -> %g adds %d bytes" a0 a (b - b0)) true
        (float_of_int (b - b0) >= (a -. a0) *. heap);
      (a, b))
    (0.05, bytes 0.05) [ 0.1; 0.25; 0.5 ]
  |> ignore

(* --- Membership -------------------------------------------------------------- *)

module Membership = Kamino_chain.Membership

let test_membership_views () =
  let m = Membership.create ~members:[ 0; 1; 2; 3 ] in
  Alcotest.(check int) "initial view id" 1 (Membership.current m).Membership.id;
  Alcotest.(check bool) "current accepted" true (Membership.validate m ~view_id:1 = `Current);
  let v2 = Membership.remove m 1 in
  Alcotest.(check int) "view id bumped" 2 v2.Membership.id;
  Alcotest.(check (list int)) "member removed" [ 0; 2; 3 ] v2.Membership.members;
  Alcotest.(check bool) "old view rejected" true
    (match Membership.validate m ~view_id:1 with `Stale v -> v.Membership.id = 2 | `Current -> false);
  Alcotest.(check bool) "removing non-member rejected" true
    (try ignore (Membership.remove m 99); false with Invalid_argument _ -> true)

let test_membership_neighbours () =
  let m = Membership.create ~members:[ 5; 6; 7 ] in
  Alcotest.(check (option int)) "head pred" None (Membership.predecessor m 5);
  Alcotest.(check (option int)) "mid pred" (Some 5) (Membership.predecessor m 6);
  Alcotest.(check (option int)) "mid succ" (Some 7) (Membership.successor m 6);
  Alcotest.(check (option int)) "tail succ" None (Membership.successor m 7);
  match Membership.rejoin m ~node:6 ~believed_view:1 with
  | `Member (_, Some 5, Some 7) -> ()
  | _ -> Alcotest.fail "rejoin neighbours wrong"

let test_membership_rejoin_removed () =
  let m = Membership.create ~members:[ 1; 2; 3 ] in
  ignore (Membership.remove m 2);
  match Membership.rejoin m ~node:2 ~believed_view:1 with
  | `Removed v -> Alcotest.(check int) "told the current view" 2 v.Membership.id
  | `Member _ -> Alcotest.fail "removed node must not rejoin silently"

let test_membership_remove_ends () =
  let m = Membership.create ~members:[ 1; 2; 3; 4 ] in
  ignore (Membership.remove m 1);
  ignore (Membership.remove m 4);
  Alcotest.(check (list (option int))) "new head and tail"
    [ None; Some 3; Some 2; None ]
    [ Membership.predecessor m 2; Membership.successor m 2; Membership.predecessor m 3;
      Membership.successor m 3 ];
  Alcotest.(check bool) "old head told it is out" true
    (match Membership.rejoin m ~node:1 ~believed_view:1 with `Removed v -> v.Membership.id = 3 | _ -> false);
  Alcotest.check_raises "empty chain" (Invalid_argument "Membership.create: empty chain")
    (fun () -> ignore (Membership.create ~members:[]))

(* Random interleavings of the membership operations preserve the view
   invariants: every removal installs a strictly larger view id and keeps
   the survivors' relative order (head first); and the Figure-9 rejoin
   contract holds — a node removed from the view is always told
   [`Removed], a member always gets its model-predicted neighbours. *)
let membership_interleaving_qcheck =
  QCheck.Test.make ~name:"membership: random interleavings keep the view invariants"
    ~count:300
    QCheck.(list (pair (int_range 0 2) small_nat))
    (fun actions ->
      let m = Membership.create ~members:[ 0; 1; 2; 3; 4; 5 ] in
      let model = ref [ 0; 1; 2; 3; 4; 5 ] in
      let removed = ref [] in
      let last_id = ref (Membership.current m).Membership.id in
      let check_view label v =
        if v.Membership.id <= !last_id then
          QCheck.Test.fail_reportf "%s: view id %d not strictly increasing (last %d)"
            label v.Membership.id !last_id;
        last_id := v.Membership.id;
        if v.Membership.members <> !model then
          QCheck.Test.fail_reportf "%s: members [%s], model [%s]" label
            (String.concat ";" (List.map string_of_int v.Membership.members))
            (String.concat ";" (List.map string_of_int !model))
      in
      List.iter
        (fun (action, pick) ->
          match action with
          | 0 when List.length !model > 1 ->
              let victim = List.nth !model (pick mod List.length !model) in
              model := List.filter (fun n -> n <> victim) !model;
              removed := victim :: !removed;
              check_view "remove" (Membership.remove m victim)
          | 1 -> (
              (* Rejoin either a removed node or a member, with any stale
                 believed view. *)
              let pool = !removed @ !model in
              let node = List.nth pool (pick mod List.length pool) in
              let believed = 1 + (pick mod !last_id) in
              match Membership.rejoin m ~node ~believed_view:believed with
              | `Removed v ->
                  if List.mem node !model then
                    QCheck.Test.fail_reportf "member %d told `Removed" node;
                  if v.Membership.id <> !last_id then
                    QCheck.Test.fail_reportf "rejoin reported view %d, current is %d"
                      v.Membership.id !last_id
              | `Member (v, pred, succ) ->
                  if not (List.mem node !model) then
                    QCheck.Test.fail_reportf "removed node %d readmitted as member" node;
                  if v.Membership.id <> !last_id then
                    QCheck.Test.fail_reportf "rejoin reported view %d, current is %d"
                      v.Membership.id !last_id;
                  let idx = ref (-1) in
                  List.iteri (fun i n -> if n = node then idx := i) !model;
                  let expect_pred = if !idx = 0 then None else List.nth_opt !model (!idx - 1) in
                  let expect_succ = List.nth_opt !model (!idx + 1) in
                  if pred <> expect_pred || succ <> expect_succ then
                    QCheck.Test.fail_reportf "rejoin neighbours of %d wrong" node)
          | _ ->
              (* Validate: the current id passes, anything older is stale
                 and reports the current view. *)
              if Membership.validate m ~view_id:!last_id <> `Current then
                QCheck.Test.fail_reportf "current view id %d rejected" !last_id;
              if !last_id > 1 then
                match Membership.validate m ~view_id:(1 + (pick mod (!last_id - 1))) with
                | `Stale v when v.Membership.id = !last_id -> ()
                | `Stale v ->
                    QCheck.Test.fail_reportf "stale answer carried view %d, current %d"
                      v.Membership.id !last_id
                | `Current -> QCheck.Test.fail_reportf "stale view id accepted")
        actions;
      true)

let () =
  Alcotest.run "async_chain"
    [
      ( "op",
        [
          Alcotest.test_case "encode/decode roundtrip" `Quick test_op_roundtrip;
          Alcotest.test_case "decode rejects garbage" `Quick test_op_decode_garbage;
          Alcotest.test_case "apply semantics" `Quick test_op_apply;
          QCheck_alcotest.to_alcotest op_roundtrip_qcheck;
        ] );
      ( "opqueue",
        [
          Alcotest.test_case "fifo" `Quick test_queue_fifo;
          Alcotest.test_case "wraparound" `Quick test_queue_wraparound;
          Alcotest.test_case "full" `Quick test_queue_full;
          Alcotest.test_case "drop_through" `Quick test_queue_drop_through;
          Alcotest.test_case "crash durability" `Quick test_queue_crash_durability;
          Alcotest.test_case "torn publishes" `Quick test_queue_torn_publishes;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "replication" `Quick test_async_replication;
          Alcotest.test_case "full round-trip completion" `Quick
            test_async_completion_after_full_round_trip;
          Alcotest.test_case "reads at tail" `Quick test_async_reads_at_tail;
          Alcotest.test_case "quick reboot mid-propagation" `Quick
            (test_async_quick_reboot_mid_propagation kamino);
          Alcotest.test_case "repeated random reboots" `Quick
            (test_async_repeated_reboots_random kamino);
          Alcotest.test_case "corrupt input slot detected on reboot" `Quick
            test_corrupt_input_slot_detected;
          Alcotest.test_case "whole-cluster restart" `Quick
            (test_whole_cluster_restart [ kamino; Async.Traditional ]);
          Alcotest.test_case "abort stays local" `Quick
            (test_abort_stays_local [ kamino; Async.Traditional ]);
          Alcotest.test_case "reboot rolls a torn tx forward" `Quick
            test_reboot_rolls_torn_tx_forward;
        ] );
      ( "replication",
        [
          Alcotest.test_case "replica counts" `Quick test_replica_counts;
          Alcotest.test_case "mode picks the engines" `Quick test_mode_picks_engines;
          Alcotest.test_case "writes replicate" `Quick test_writes_replicate;
          Alcotest.test_case "rmw and delete replicate" `Quick test_rmw_and_delete_replicate;
          Alcotest.test_case "random workload consistency" `Quick
            test_random_workload_consistency;
          Alcotest.test_case "agrees with a sequential model" `Quick
            test_agrees_with_sequential_model;
          Alcotest.test_case "jittered links keep order" `Quick test_jittered_links_keep_order;
          Alcotest.test_case "reads see acknowledged writes" `Quick
            test_reads_see_acknowledged_writes;
        ] );
      ( "failures",
        [
          Alcotest.test_case "fail-stop tail and mid" `Quick test_fail_stop_tail_and_mid;
          Alcotest.test_case "head failure promotes" `Quick test_head_failure_promotes;
          Alcotest.test_case "quick reboot head" `Quick test_quick_reboot_head;
          Alcotest.test_case "inflight completes after reboot" `Quick
            test_inflight_completion_after_reboot;
          Alcotest.test_case "fail-stop mid-propagation" `Quick test_fail_stop_mid_propagation;
          Alcotest.test_case "last member stays" `Quick test_last_member_stays;
          Alcotest.test_case "reboot downtime" `Quick test_reboot_downtime;
        ] );
      ( "dynamic head",
        [
          Alcotest.test_case "quick reboot mid-propagation" `Quick
            (test_async_quick_reboot_mid_propagation dynamic);
          Alcotest.test_case "repeated random reboots" `Quick
            (test_async_repeated_reboots_random dynamic);
          Alcotest.test_case "whole-cluster restart" `Quick
            (test_whole_cluster_restart [ dynamic ]);
          Alcotest.test_case "abort stays local" `Quick (test_abort_stays_local [ dynamic ]);
          Alcotest.test_case "backup scales with alpha" `Quick test_backup_scales_with_alpha;
        ] );
      ( "timing",
        [
          Alcotest.test_case "latency includes hops" `Quick test_write_latency_includes_hops;
          Alcotest.test_case "kamino beats traditional" `Quick
            test_kamino_beats_traditional;
          Alcotest.test_case "dependent writes wait for ack" `Quick
            test_dependent_writes_wait_for_ack;
          Alcotest.test_case "storage accounting" `Quick test_storage_accounting;
        ] );
      ( "membership",
        [
          Alcotest.test_case "views" `Quick test_membership_views;
          Alcotest.test_case "neighbours" `Quick test_membership_neighbours;
          Alcotest.test_case "rejoin after removal" `Quick test_membership_rejoin_removed;
          Alcotest.test_case "remove head and tail" `Quick test_membership_remove_ends;
          QCheck_alcotest.to_alcotest membership_interleaving_qcheck;
        ] );
    ]
