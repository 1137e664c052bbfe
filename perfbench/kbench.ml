(* The repository benchmark: YCSB workloads against the Kamino-Tx
   key-value store (Kv over Engine), driven by a closed loop of 8 virtual
   clients through Driver.run on one OS thread.

   One invocation makes two passes over the same seed, each a fresh
   set-up, a warm-up, a measured phase, the workload's crash/recover
   cycles and a final check:

   - --trace 0: both passes untraced; they give the end-to-end metrics
     (wall metrics are medians over both passes) and must agree on every
     simulated number and NVM counter.
   - --trace 1: an untraced pass, then a traced one (engine event ring on,
     spans around every call into the store, stacked rows afterwards); the
     traced pass gives the per-layer metrics and must repeat the untraced
     pass's simulated numbers and counters bit for bit.

   Wall times are also reported at reference host speed: Probe runs a
   fixed computation around every timed phase, and the gated wall metrics
   are scaled by it (see probe.ml). The last line of standard output is
   one JSON object:
   {"correct", "attempted", "failed", "metrics"}. Usage:

     kbench.exe --workload NAME --seed N --seconds S --trace 0|1 [--toy]
                [--plant-fault] *)

module Clock = Kamino_sim.Clock
module Stats = Kamino_sim.Stats
module Rng = Kamino_sim.Rng
module Region = Kamino_nvm.Region
module Heap = Kamino_heap.Heap
module Engine = Kamino_core.Engine
module Applier = Kamino_core.Applier
module Kv = Kamino_kv.Kv
module Ycsb = Kamino_workload.Ycsb
module Driver = Kamino_workload.Driver
module Obs = Kamino_obs.Obs
module Metrics = Kamino_obs.Metrics
module Value = Spec.Value

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* The measured phase is timed in this many fixed-op segments; wall
   throughput is the median segment's. *)
let segments = 128

(* Traced runs drain the engine's event ring this often (in ops), well
   before it can wrap. *)
let obs_drain_ops = 256

let load_chunks = 8

(* Longest YCSB-E scan. *)
let scan_max = 100

(* Kinds of call into the store, for the traced spans: the read side
   (Kv.get, or Kv.scan on YCSB-E) and Kv.put. *)
let c_read = 0
let c_put = 1

type state = {
  traced : bool;
  model : Oracle.t;
  gen : Ycsb.t;
  rng : Rng.t;
  mutable kv : Kv.t;
  mutable measuring : bool;
  lat : int array;
      (* wall ns of each measured call into the store, shifted left one
         bit; the low bit is 1 for writes (put) and 0 for reads *)
  mutable n : int;
  seg_ops : int;
  seg_ns : int array;
  mutable n_seg : int;
  mutable seg_t0 : int;
  probe_ns : int array;  (* probe runs at the start and end of each segment *)
  mutable probe_total_ns : int;
  mutable kv_words : int;
  mutable writes : int;
  (* results of the last call, checked after the clock stops *)
  mutable got : string option;
  mutable value : string;
  scan_keys : int array;
  mutable scan_vals : string array;
      (* fresh before each scan: a young array keeps the scanned values
         out of the major heap *)
  mutable scan_n : int;
  scan_cb : int -> string -> unit;
  (* traced pass only *)
  call_n : int array;
  call_ns : int array;
  mutable gen_ns : int;
  obs : Obs.t;
  obs_kinds : int array;
  mutable obs_dropped : int;
}

let drain_obs st =
  Obs.iter st.obs (fun ~kind ~track:_ ~ts:_ ~dur:_ ~a:_ ~b:_ ~c:_ ->
      st.obs_kinds.(kind) <- st.obs_kinds.(kind) + 1);
  st.obs_dropped <- st.obs_dropped + Obs.dropped st.obs;
  Obs.reset st.obs

let exec st = function
  | Ycsb.Read k -> st.got <- Kv.get st.kv k
  | Ycsb.Update k | Ycsb.Insert k -> Kv.put st.kv k st.value
  | Ycsb.Scan (lo, count) ->
      st.scan_n <- 0;
      ignore (Kv.scan st.kv ~lo ~count st.scan_cb)
  | Ycsb.Rmw _ -> invalid_arg "kbench: rmw is not in any workload"

let probe st =
  let t0 = now_ns () in
  st.probe_ns.(st.n_seg) <- Probe.run ();
  st.probe_total_ns <- st.probe_total_ns + (now_ns () - t0)

let record st op ns words =
  let c = match op with Ycsb.Read _ | Ycsb.Scan _ -> c_read | _ -> c_put in
  st.lat.(st.n) <- (ns lsl 1) lor c;
  st.n <- st.n + 1;
  st.kv_words <- st.kv_words + words;
  if c = c_put then st.writes <- st.writes + 1;
  if st.traced then begin
    st.call_n.(c) <- st.call_n.(c) + 1;
    st.call_ns.(c) <- st.call_ns.(c) + ns;
    if st.n mod obs_drain_ops = 0 then drain_obs st
  end;
  if st.n mod st.seg_ops = 0 then begin
    let now = now_ns () in
    st.seg_ns.(st.n_seg) <- now - st.seg_t0;
    st.n_seg <- st.n_seg + 1;
    probe st;
    st.seg_t0 <- now_ns ()
  end

(* One client op: draw it, time the call into the store, then check the
   answer against the model. *)
let step st ~client:_ () =
  let m = st.model in
  let g0 = if st.traced then now_ns () else 0 in
  let op = Ycsb.next st.gen st.rng in
  if st.traced && st.measuring then st.gen_ns <- st.gen_ns + (now_ns () - g0);
  (match op with
  | Ycsb.Update k -> st.value <- Value.make k (m.Oracle.ver.(k) + 1)
  | Ycsb.Insert k -> st.value <- Value.make k 0
  | Ycsb.Scan _ -> st.scan_vals <- Array.make scan_max ""
  | _ -> ());
  m.Oracle.attempted <- m.Oracle.attempted + 1;
  let w0 = int_of_float (Gc.minor_words ()) in
  let t0 = now_ns () in
  let ok =
    match exec st op with
    | () -> true
    | exception e ->
        Oracle.fail m (Printf.sprintf "%s raised %s" (Ycsb.op_name op) (Printexc.to_string e));
        false
  in
  let t1 = now_ns () in
  let words = int_of_float (Gc.minor_words ()) - w0 in
  if st.measuring then record st op (t1 - t0) words;
  if not ok then "failed"
  else begin
    (match op with
    | Ycsb.Read k -> Oracle.check_get m k st.got
    | Ycsb.Update k -> Oracle.wrote m k (m.Oracle.ver.(k) + 1)
    | Ycsb.Insert k -> Oracle.wrote m k 0
    | Ycsb.Scan (lo, count) ->
        Oracle.check_scan m ~lo ~count ~n:st.scan_n ~keys:st.scan_keys ~vals:st.scan_vals
    | Ycsb.Rmw _ -> ());
    Ycsb.op_name op
  end

(* Everything a pass must repeat bit for bit: simulated results and
   counters. *)
type signature = {
  sim_elapsed_ns : int;
  sim_latencies : (string * float * float * int) list;  (* label, p50, p99, samples *)
  counters : Region.counters;  (* measured phase *)
  metrics : Engine.metrics;  (* cumulative at the end of the measured phase *)
  pending_at_crash : int list;
  recover_sim_ns : int list;
  final_counters : Region.counters;
}

type pass = {
  signature : signature;
  setup_ns : int;
  setup_ref_ns : float;  (* at reference host speed (Probe) *)
  ops : int;
  lat : int array;
  seg_ops : int;
  seg_rates : float array;  (* ops/s per segment *)
  seg_scale : float array;  (* Probe.scale around each segment *)
  kv_words : int;
  writes : int;
  wall_ns : int;  (* measured phase *)
  sim_ops_per_s : float;
  sim_read : Stats.series;
  sim_write : Stats.series;
  recover_ns : int list;
  recover_ref_ns : float list;
  drain_ref_ns : float;
  storage_bytes : int;
  user_bytes : int;
  metrics_before : Engine.metrics;
  migrations : int;
  dep_wait_p99 : int;
  applier_lag_p99 : int;
  queue_depth_p99 : int;
  heap_stats : Heap.stats;
  depth : int;
  (* traced pass only *)
  call_n : int array;
  call_ns : int array;
  gen_ns : int;
  obs_kinds : int array;
  obs_dropped : int;
  rows : Rows.row list;
}

let sub_counters a b =
  {
    Region.stores = a.Region.stores - b.Region.stores;
    bytes_stored = a.Region.bytes_stored - b.Region.bytes_stored;
    loads = a.Region.loads - b.Region.loads;
    bytes_loaded = a.Region.bytes_loaded - b.Region.bytes_loaded;
    lines_flushed = a.Region.lines_flushed - b.Region.lines_flushed;
    fences = a.Region.fences - b.Region.fences;
    bytes_copied = a.Region.bytes_copied - b.Region.bytes_copied;
    crashes = a.Region.crashes - b.Region.crashes;
  }

let median_f l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let merged labels (r : Driver.result) =
  List.fold_left
    (fun acc l -> match Driver.latency_of r l with Some s -> Stats.merge acc s | None -> acc)
    (Stats.create ()) labels

let run_pass (w : Spec.t) ~seed ~measured ~traced ~plant ~model_capacity =
  (* Two major cycles before compacting: the previous pass's regions
     (gigabytes, allocated outside the minor heap) must be unmapped before
     this pass maps its own. *)
  Gc.full_major ();
  Gc.full_major ();
  Gc.compact ();
  let obs = if traced then Obs.create ~capacity:65536 () else Obs.null in
  (* Set-up, loaded in chunks so the host-speed probe can run between
     them. *)
  let setup = Probe.meter () in
  let e = Probe.part setup (fun () -> Engine.create ~config:(Spec.config w) ~obs ~kind:w.kind ~seed ()) in
  let kv =
    Probe.part setup (fun () -> Kv.create e ~value_size:Spec.value_size ~node_size:Spec.node_size)
  in
  let chunk = w.records / load_chunks in
  for c = 0 to load_chunks - 1 do
    let first = c * chunk in
    let count = if c = load_chunks - 1 then w.records - first else chunk in
    Probe.part setup (fun () ->
        Kv.load kv ~count ~key:(fun i -> first + i) ~value:(fun i -> Value.make (first + i) 0))
  done;
  Probe.part setup (fun () -> Engine.drain_backup e);
  (* The load's garbage is collected now, not during the measured phase. *)
  Gc.full_major ();
  let model = Oracle.create ~records:w.records ~capacity:model_capacity in
  if plant then Oracle.plant_fault model (w.records / 2);
  let scan_keys = Array.make scan_max 0 in
  let rec st =
    {
      traced;
      model;
      gen = Ycsb.create ~uniform:w.uniform w.ycsb ~record_count:w.records ~theta:Spec.theta;
      rng = Rng.create seed;
      kv;
      measuring = false;
      lat = Array.make measured 0;
      n = 0;
      seg_ops = max 1 (measured / segments);
      seg_ns = Array.make ((measured / max 1 (measured / segments)) + 1) 0;
      n_seg = 0;
      seg_t0 = 0;
      probe_ns = Array.make ((measured / max 1 (measured / segments)) + 2) 0;
      probe_total_ns = 0;
      kv_words = 0;
      writes = 0;
      got = None;
      value = "";
      scan_keys;
      scan_vals = [||];
      scan_n = 0;
      scan_cb =
        (fun k v ->
          if st.scan_n < scan_max then begin
            scan_keys.(st.scan_n) <- k;
            st.scan_vals.(st.scan_n) <- v
          end;
          st.scan_n <- st.scan_n + 1);
      call_n = Array.make 2 0;
      call_ns = Array.make 2 0;
      gen_ns = 0;
      obs;
      obs_kinds = Array.make Obs.n_kinds 0;
      obs_dropped = 0;
    }
  in
  let step = step st in
  let warm = max 1 (int_of_float (float_of_int measured *. Spec.warmup_share)) in
  ignore (Driver.run ~engine:e ~clients:Spec.clients ~total_ops:warm ~step);
  let c0 = Engine.main_counters e and m0 = Engine.metrics e in
  let migrations0 = Metrics.value (Metrics.counter (Engine.registry e) "phash.migrations") in
  if traced then Obs.reset obs;
  st.measuring <- true;
  probe st;
  let w0 = now_ns () in
  st.seg_t0 <- w0;
  let r = Driver.run ~engine:e ~clients:Spec.clients ~total_ops:measured ~step in
  let wall_ns = now_ns () - w0 - st.probe_total_ns in
  st.measuring <- false;
  if traced then drain_obs st;
  let c1 = Engine.main_counters e and m1 = Engine.metrics e in
  let reg = Engine.registry e in
  let hist name = Metrics.hist reg name in
  let p99 name = Metrics.percentile (hist name) 99.0 in
  let migrations = Metrics.value (Metrics.counter reg "phash.migrations") - migrations0 in
  let heap_stats = Heap.stats (Engine.heap e) in
  let storage_bytes = Engine.storage_bytes e in
  let user_bytes = model.Oracle.keyspace * Spec.value_size in
  (* The applier's backlog from the measured phase, drained and timed. *)
  let drain = Probe.meter () in
  Probe.part drain (fun () -> Engine.drain_backup e);
  (* Crash/recover cycles. Each starts from an empty applier queue, runs
     single ops until [w.crash_tasks] tasks are queued (or the op cap
     passes), fails the power, recovers, and reads back every acknowledged
     write. The fixed backlog keeps recovery work comparable across seeds. *)
  let queued () = match Engine.applier e with Some a -> Applier.queued a | None -> 0 in
  let burst_cap = max 100 (measured / 100) in
  let pending = ref [] and recover_ns = ref [] and recover_ref_ns = ref [] in
  let recover_sim = ref [] in
  for _ = 1 to w.crash_cycles do
    let ops = ref 0 in
    while queued () < w.crash_tasks && !ops < burst_cap do
      ignore (step ~client:0 ());
      incr ops
    done;
    pending := queued () :: !pending;
    (* The previous cycle's garbage goes back to the allocator first, so
       each recovery allocates from memory the process already holds: left
       to the collector's pace, the first pass's recoveries took page
       faults the second pass's did not, and ran half again as long. *)
    Gc.full_major ();
    (* A recovery takes well under a millisecond on most workloads, so it
       is scaled by the probe runs right around it, not by the host speed
       of the measured phase, which can be seconds away. *)
    let m = Probe.meter () in
    Engine.crash e;
    let clock = Clock.create_at (Engine.now e) in
    Engine.set_clock e clock;
    let s0 = Clock.now clock in
    Probe.part m (fun () ->
        Engine.recover e;
        st.kv <- Kv.reattach e);
    recover_ns := m.Probe.raw_ns :: !recover_ns;
    recover_ref_ns := m.Probe.ref_ns :: !recover_ref_ns;
    recover_sim := (Clock.now clock - s0) :: !recover_sim;
    Oracle.read_back model st.kv
  done;
  let check what = function
    | Ok () -> ()
    | Error msg -> Oracle.fail model (Printf.sprintf "%s: %s" what msg)
  in
  check "Kv.validate" (Kv.validate st.kv);
  if Kv.size st.kv <> model.Oracle.keyspace then
    Oracle.fail model
      (Printf.sprintf "store holds %d keys, expected %d" (Kv.size st.kv) model.Oracle.keyspace);
  check "Engine.verify_backup" (Engine.verify_backup e);
  let final_counters = Engine.main_counters e in
  let tree = Rows.attach_tree st.kv in
  let depth = Kamino_index.Btree.depth tree in
  let rows =
    if traced then
      Rows.run st.kv tree (Rows.draw st.gen st.rng ~m:(min measured 20_000) ~records:w.records tree)
    else []
  in
  let sim_read = merged [ "read"; "scan" ] r and sim_write = merged [ "update"; "insert" ] r in
  let lat_summary label =
    match Driver.latency_of r label with
    | Some s -> [ (label, Stats.percentile s 50.0, Stats.percentile s 99.0, Stats.count s) ]
    | None -> []
  in
  let signature =
    {
      sim_elapsed_ns = r.Driver.elapsed_ns;
      sim_latencies = List.concat_map lat_summary [ "read"; "update"; "insert"; "scan"; "failed" ];
      counters = sub_counters c1 c0;
      metrics = m1;
      pending_at_crash = List.rev !pending;
      recover_sim_ns = List.rev !recover_sim;
      final_counters;
    }
  in
  let seg_scale =
    Array.init st.n_seg (fun k -> Probe.scale (float_of_int (st.probe_ns.(k) + st.probe_ns.(k + 1)) /. 2.0))
  in
  let pass =
    {
      signature;
      setup_ns = setup.Probe.raw_ns;
      setup_ref_ns = setup.Probe.ref_ns;
      ops = measured;
      lat = st.lat;
      seg_ops = st.seg_ops;
      seg_rates =
        Array.map
          (fun ns -> float_of_int st.seg_ops /. (float_of_int ns /. 1e9))
          (Array.sub st.seg_ns 0 st.n_seg);
      seg_scale;
      kv_words = st.kv_words;
      writes = st.writes;
      wall_ns;
      sim_ops_per_s = r.Driver.throughput_mops *. 1e6;
      sim_read;
      sim_write;
      recover_ns = List.rev !recover_ns;
      recover_ref_ns = List.rev !recover_ref_ns;
      drain_ref_ns = drain.Probe.ref_ns;
      storage_bytes;
      user_bytes;
      metrics_before = m0;
      migrations;
      dep_wait_p99 = p99 "engine.dependent_wait_ns";
      applier_lag_p99 = p99 "applier.lag_ns";
      queue_depth_p99 = p99 "applier.queue_depth";
      heap_stats;
      depth;
      call_n = st.call_n;
      call_ns = st.call_ns;
      gen_ns = st.gen_ns;
      obs_kinds = st.obs_kinds;
      obs_dropped = st.obs_dropped;
      rows;
    }
  in
  (pass, model)

(* --- Reporting ----------------------------------------------------------- *)

(* Nearest-rank percentile of a sorted array. *)
let pct sorted p =
  let n = Array.length sorted in
  if n = 0 then nan
  else sorted.(max 0 (min (n - 1) (int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) - 1)))

(* Host speed around each measured segment: Probe.scale of the mean of
   the probe runs that bracket it. *)
let seg_scale p k = p.seg_scale.(min (Array.length p.seg_scale - 1) k)

(* Sorted wall ns of the passes' measured calls that [keep] accepts, raw
   or scaled to reference host speed. *)
let latencies passes ~scaled keep =
  let n = List.fold_left (fun acc p -> Array.fold_left (fun acc x -> if keep x then acc + 1 else acc) acc p.lat) 0 passes in
  let a = Array.make n 0.0 and j = ref 0 in
  List.iter
    (fun p ->
      Array.iteri
        (fun i x ->
          if keep x then begin
            let s = if scaled then seg_scale p (i / p.seg_ops) else 1.0 in
            a.(!j) <- float_of_int (x lsr 1) *. s;
            incr j
          end)
        p.lat)
    passes;
  Array.sort Float.compare a;
  a

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb -> kb)
    | _ -> scan ()
    | exception End_of_file -> 0
  in
  let kb = Fun.protect ~finally:(fun () -> close_in ic) scan in
  float_of_int kb /. 1024.0

(* Not applicable (e.g. a backup hit ratio without a dynamic backup). *)
let na = -1.0

let ratio a b = if b = 0 then na else float_of_int a /. float_of_int b

(* The end-to-end metrics BENCHMARK.json gates, then the ones only
   printed: simulated medians and tails sit on cost-model plateaus that
   repeat exactly from seed to seed (the gated sim metrics are means), the
   all-ops wall median falls between the read and write modes, and the
   failure ratio reads 0 on a correct store. Each is (name, value, unit,
   note). *)
let end_to_end passes =
  let p1 = List.hd passes in
  let ops = List.fold_left (fun acc p -> acc + p.ops) 0 passes in
  let words = List.fold_left (fun acc p -> acc + p.kv_words) 0 passes in
  let n a = Printf.sprintf "n=%d" (Array.length a) in
  let ns s = Printf.sprintf "n=%d" (Stats.count s) in
  (* The wall metrics, at reference host speed ([scaled]) or raw. *)
  let wall ~scaled prefix =
    let lat keep = latencies passes ~scaled keep in
    let reads = lat (fun x -> x land 1 = c_read) and writes = lat (fun x -> x land 1 = c_put) in
    let rates =
      List.concat_map
        (fun p -> Array.to_list (Array.mapi (fun k r -> if scaled then r /. seg_scale p k else r) p.seg_rates))
        passes
    in
    let recover = List.concat_map (fun p -> if scaled then p.recover_ref_ns else List.map float_of_int p.recover_ns) passes in
    let setup = List.map (fun p -> if scaled then p.setup_ref_ns else float_of_int p.setup_ns) passes in
    [
      (prefix ^ "wall_ops_per_s", median_f rates, "1/s", Printf.sprintf "segments=%d" (List.length rates));
      (prefix ^ "wall_read_p50_us", pct reads 50.0 /. 1e3, "us", n reads);
      (prefix ^ "wall_read_p99_us", pct reads 99.0 /. 1e3, "us", n reads);
      (prefix ^ "wall_write_p50_us", pct writes 50.0 /. 1e3, "us", n writes);
      (prefix ^ "wall_write_p99_us", pct writes 99.0 /. 1e3, "us", n writes);
      (prefix ^ "recover_s", median_f recover /. 1e9, "s", Printf.sprintf "n=%d" (List.length recover));
      (prefix ^ "setup_s", median_f setup /. 1e9, "s", Printf.sprintf "n=%d" (List.length setup));
    ]
  in
  let scaled = wall ~scaled:true "" in
  let get name = List.find (fun (n, _, _, _) -> n = name) scaled in
  let gated =
    List.map get [ "wall_ops_per_s"; "wall_read_p50_us"; "wall_read_p99_us"; "wall_write_p50_us"; "wall_write_p99_us" ]
    @ [
        ("sim_ops_per_s", p1.sim_ops_per_s, "1/s", "");
        ("sim_read_mean_ns", Stats.mean p1.sim_read, "ns", ns p1.sim_read);
        ("sim_write_mean_ns", Stats.mean p1.sim_write, "ns", ns p1.sim_write);
        ("alloc_words_per_op", float_of_int words /. float_of_int ops, "words", "");
        ("peak_rss_mb", peak_rss_mb (), "MB", "");
        ( "nvm_bytes_per_user_byte",
          float_of_int p1.storage_bytes /. float_of_int p1.user_bytes,
          "ratio",
          "" );
        get "recover_s";
        get "setup_s";
      ]
  in
  let ops_lat = latencies passes ~scaled:true (fun _ -> true) in
  let reported =
    [
      ( "host_speed",
        median_f (List.concat_map (fun p -> Array.to_list p.seg_scale) passes),
        "ratio",
        "probe nominal / probe now, median over segments" );
      ("wall_op_p50_us", pct ops_lat 50.0 /. 1e3, "us", n ops_lat);
      ("wall_op_p99_us", pct ops_lat 99.0 /. 1e3, "us", n ops_lat);
    ]
    @ wall ~scaled:false "raw_"
    @ [
        ("sim_read_p50_ns", Stats.percentile p1.sim_read 50.0, "ns", ns p1.sim_read);
        ("sim_read_p99_ns", Stats.percentile p1.sim_read 99.0, "ns", ns p1.sim_read);
        ("sim_write_p50_ns", Stats.percentile p1.sim_write 50.0, "ns", ns p1.sim_write);
        ("sim_write_p99_ns", Stats.percentile p1.sim_write 99.0, "ns", ns p1.sim_write);
        ( "recover_sim_us",
          median_f (List.map float_of_int p1.signature.recover_sim_ns) /. 1e3,
          "us",
          Printf.sprintf "n=%d" (List.length p1.signature.recover_sim_ns) );
      ]
  in
  (gated, reported)

let per_layer ~untraced ~traced =
  let p = traced in
  let ops = float_of_int p.ops in
  let c = p.signature.counters in
  let m0 = p.metrics_before and m1 = p.signature.metrics in
  let d f = f m1 - f m0 in
  let per x = float_of_int x /. ops in
  let row name = List.find (fun r -> r.Rows.name = name) p.rows in
  let row_metrics name =
    let r = row name in
    [
      (name ^ ".row_wall_ns", r.Rows.wall_ns, "ns");
      (name ^ ".row_words_per_op", r.Rows.words_per_op, "words");
    ]
  in
  (* Spans of the traced pass, at reference host speed. *)
  let speed = median_f (Array.to_list p.seg_scale) in
  let span_ns total count = if count = 0 then na else float_of_int total *. speed /. float_of_int count in
  let calls = Array.fold_left ( + ) 0 p.call_n in
  let kv_ns = Array.fold_left ( + ) 0 p.call_ns in
  let hits = d (fun m -> m.Engine.backup_hits) and misses = d (fun m -> m.Engine.backup_misses) in
  let median_rate q = median_f (Array.to_list (Array.mapi (fun k r -> r /. seg_scale q k) q.seg_rates)) in
  let obs_kinds =
    List.init Obs.n_kinds Fun.id
    |> List.filter (fun k -> List.mem (Obs.kind_cat k) [ "nvm"; "tx"; "applier" ])
    |> List.map (fun k -> ("obs.events_per_op." ^ Obs.kind_name k, per p.obs_kinds.(k), "events"))
  in
  List.concat
    [
      [
        ("nvm.fences_per_op", per c.Region.fences, "fences");
        ("nvm.lines_flushed_per_op", per c.Region.lines_flushed, "lines");
        ("nvm.bytes_copied_per_op", per c.Region.bytes_copied, "bytes");
        ( "nvm.write_amp",
          float_of_int (c.Region.bytes_stored + c.Region.bytes_copied)
          /. float_of_int (max 1 (p.writes * Spec.value_size)),
          "ratio" );
        ("nvm.loads_per_op", per c.Region.loads, "loads");
        ("nvm.bytes_loaded_per_op", per c.Region.bytes_loaded, "bytes");
      ];
      row_metrics "nvm";
      row_metrics "heap";
      [
        ("heap.row_allocs_per_op", (row "heap").Rows.allocs_per_op, "allocs");
        ("heap.live_bytes", float_of_int p.heap_stats.Heap.live_bytes, "bytes");
        ("heap.segments", float_of_int p.heap_stats.Heap.segments_live, "count");
      ];
      row_metrics "core";
      [
        ("core.lock_wait_ns_per_op", per (d (fun m -> m.Engine.lock_wait_ns)), "ns");
        ("core.lock_wait_events_per_op", per (d (fun m -> m.Engine.lock_wait_events)), "events");
        ("core.dependent_wait_p99_ns", float_of_int p.dep_wait_p99, "ns");
        ("core.applier_lag_p99_ns", float_of_int p.applier_lag_p99, "ns");
        ("core.applier_queue_depth_p99", float_of_int p.queue_depth_p99, "tasks");
        ( "core.tasks_batched_ratio",
          ratio (d (fun m -> m.Engine.tasks_batched)) (d (fun m -> m.Engine.applier_tasks)),
          "ratio" );
        ( "core.ranges_coalesced_per_commit",
          ratio (d (fun m -> m.Engine.ranges_coalesced)) (d (fun m -> m.Engine.committed)),
          "ranges" );
        ("core.bytes_saved_per_op", per (d (fun m -> m.Engine.bytes_saved)), "bytes");
        ("core.backup_hit_ratio", ratio hits (hits + misses), "ratio");
        ("core.backup_evictions_per_op", per (d (fun m -> m.Engine.backup_evictions)), "evictions");
        ("core.phash_migrations", float_of_int p.migrations, "count");
        ( "core.pending_tasks_at_crash",
          median_f (List.map float_of_int p.signature.pending_at_crash),
          "tasks" );
        ( "core.recover_sim_us",
          median_f (List.map float_of_int p.signature.recover_sim_ns) /. 1e3,
          "us" );
        ("core.drain_wall_ms", p.drain_ref_ns /. 1e6, "ms");
        ( "core.abort_ratio",
          ratio (d (fun m -> m.Engine.aborted))
            (d (fun m -> m.Engine.aborted) + d (fun m -> m.Engine.committed)),
          "ratio" );
      ];
      row_metrics "index";
      [
        ("index.loads_per_op", (row "index").Rows.loads_per_op, "loads");
        ("index.depth", float_of_int p.depth, "levels");
        ("kvstore.read_wall_ns", span_ns p.call_ns.(c_read) p.call_n.(c_read), "ns");
        ("kvstore.put_wall_ns", span_ns p.call_ns.(c_put) p.call_n.(c_put), "ns");
        ("kvstore.words_per_call", float_of_int p.kv_words /. float_of_int (max 1 calls), "words");
      ];
      row_metrics "kvstore";
      [
        ("workload.gen_wall_ns", span_ns p.gen_ns p.ops, "ns");
        ("workload.driver_wall_ns", span_ns (p.wall_ns - kv_ns - p.gen_ns) p.ops, "ns");
        ("workload.measured_ops", ops, "ops");
        ("sim.read_p50_ns", Stats.percentile p.sim_read 50.0, "ns");
        ("sim.read_p99_ns", Stats.percentile p.sim_read 99.0, "ns");
        ("sim.read_samples", float_of_int (Stats.count p.sim_read), "count");
        ("sim.write_p50_ns", Stats.percentile p.sim_write 50.0, "ns");
        ("sim.write_p99_ns", Stats.percentile p.sim_write 99.0, "ns");
        ("sim.write_samples", float_of_int (Stats.count p.sim_write), "count");
      ];
      obs_kinds;
      [
        ("obs.dropped", float_of_int p.obs_dropped, "events");
        ("obs.tracing_overhead_ratio", (median_rate untraced /. median_rate p) -. 1.0, "ratio");
      ];
    ]

let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "-1"

let print_result ~correct ~attempted ~failed metrics =
  let body =
    String.concat ", "
      (List.map
         (fun (name, v, unit) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v) unit)
         metrics)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed body

(* --- Command line ----------------------------------------------------------- *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let toy = ref false and plant = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N seed of the op stream and the engine");
      ("--seconds", Arg.Set_int seconds, "S measured seconds at the nominal rate");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--toy", Arg.Set toy, " toy scale (20k records)");
      ("--plant-fault", Arg.Set plant, " plant one wrong expectation in the oracle");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "kbench.exe --workload NAME --seed N --seconds S --trace 0|1";
  let w =
    match Spec.find ~toy:!toy !workload with
    | Some w -> w
    | None ->
        Printf.eprintf "kbench: unknown workload %S (known: %s)\n" !workload
          (String.concat ", " (List.map (fun (w : Spec.t) -> w.name) Spec.full));
        exit 2
  in
  if !seconds < 1 || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline "kbench: --seconds must be >= 1 and --trace 0 or 1";
    exit 2
  end;
  let measured = w.ops_per_second * !seconds in
  let model_capacity = w.records + (2 * measured) + 100_000 in
  Printf.printf "workload %s  seed %d  seconds %d  trace %d  measured_ops %d%s\n" w.name !seed
    !seconds !trace measured
    (if !toy then "  (toy scale)" else "");
  Printf.printf "config %s\n%!" (Spec.config_json w);
  let traced = !trace = 1 in
  let p1, m1 = run_pass w ~seed:!seed ~measured ~traced:false ~plant:!plant ~model_capacity in
  let p2, m2 = run_pass w ~seed:!seed ~measured ~traced ~plant:!plant ~model_capacity in
  List.iter
    (fun p ->
      Printf.printf "pass: setup %.3f s, measured phase %.3f s\n" (float_of_int p.setup_ns /. 1e9)
        (float_of_int p.wall_ns /. 1e9))
    [ p1; p2 ];
  let attempted = m1.Oracle.attempted + m2.Oracle.attempted in
  let failed = m1.Oracle.failed + m2.Oracle.failed in
  let drift = p1.signature <> p2.signature in
  (* Printed so separate runs can be compared too (the self-test does). *)
  Printf.printf "signature %s\n" (Digest.to_hex (Digest.string (Marshal.to_string p1.signature [])));
  List.iter
    (fun m ->
      match m.Oracle.first_error with Some e -> Printf.printf "FAILED: %s\n" e | None -> ())
    [ m1; m2 ];
  if drift then
    Printf.printf "FAILED: simulated results or NVM counters differ between the two passes%s\n"
      (if traced then " (tracing perturbed the run)" else "");
  let failed_ratio = float_of_int failed /. float_of_int attempted in
  let gated, reported = end_to_end (if traced then [ p1 ] else [ p1; p2 ]) in
  let gated = gated @ [ ("ok_ops_ratio", 1.0 -. failed_ratio, "ratio", "") ] in
  let reported =
    reported
    @ [
        ( "failed_ops_ratio",
          failed_ratio,
          "ratio",
          Printf.sprintf "failed=%d attempted=%d" failed attempted );
      ]
  in
  print_endline "end-to-end (gated):";
  List.iter (fun (name, v, unit, note) -> Printf.printf "  %-26s %16.6f %-6s %s\n" name v unit note) gated;
  print_endline "end-to-end (reported only):";
  List.iter (fun (name, v, unit, note) -> Printf.printf "  %-26s %16.6f %-6s %s\n" name v unit note) reported;
  let metrics =
    if traced then begin
      let layer = per_layer ~untraced:p1 ~traced:p2 in
      print_endline "per-layer:";
      List.iter (fun (name, v, unit) -> Printf.printf "  %-36s %16.6f %s\n" name v unit) layer;
      layer
    end
    else List.map (fun (n, v, u, _) -> (n, v, u)) gated
  in
  let correct = failed = 0 && not drift in
  print_result ~correct ~attempted ~failed metrics;
  exit (if correct then 0 else 1)
