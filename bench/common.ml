(* Shared benchmark infrastructure: parameters, engine/store construction,
   preloading, YCSB and TPC-C runners, and table formatting. *)

(* Monotonic-guarded wall clock, the one timing source for every bench
   entry point. [Unix.gettimeofday] can step backwards under NTP slews;
   a bench that reads it raw can report negative elapsed time or a
   bogus speedup. [now_s] clamps to non-decreasing, so intervals from
   [elapsed_s] are always >= 0 and every entry point agrees on what
   "wall seconds" means. *)
module Wall = struct
  let last = ref neg_infinity

  let now_s () =
    let t = Unix.gettimeofday () in
    if t > !last then last := t;
    !last

  let elapsed_s ~since = max 0.0 (now_s () -. since)
end

module Rng = Kamino_sim.Rng
module Clock = Kamino_sim.Clock
module Stats = Kamino_sim.Stats
module Cost_model = Kamino_nvm.Cost_model
module Engine = Kamino_core.Engine
module Backup = Kamino_core.Backup
module Kv = Kamino_kv.Kv
module Ycsb = Kamino_workload.Ycsb
module Zipf = Kamino_workload.Zipf
module Driver = Kamino_workload.Driver
module Tpcc = Kamino_workload.Tpcc
module Async = Kamino_chain.Async_chain
module Op = Kamino_chain.Op

type params = {
  record_count : int;  (** preloaded keys (paper: 10 M) *)
  value_size : int;  (** bytes per value (paper: 1 KB) *)
  ops : int;  (** operations per data point *)
  node_size : int;  (** B+Tree node object size *)
  theta : float;  (** zipfian skew *)
  heap_bytes : int;
  chain_records : int;  (** smaller key space for replicated runs *)
  chain_ops : int;
  tpcc_txs : int;
}

let scaled =
  {
    record_count = 10_000;
    value_size = 1024;
    ops = 8_000;
    node_size = 4096;
    theta = 0.99;
    heap_bytes = 48 * 1024 * 1024;
    chain_records = 10_000;
    chain_ops = 4_000;
    tpcc_txs = 4_000;
  }

let full =
  {
    record_count = 100_000;
    value_size = 1024;
    ops = 50_000;
    node_size = 4096;
    theta = 0.99;
    heap_bytes = 400 * 1024 * 1024;
    chain_records = 20_000;
    chain_ops = 20_000;
    tpcc_txs = 20_000;
  }

let engine_config p =
  {
    Engine.default_config with
    Engine.heap_bytes = p.heap_bytes;
    log_slots = 512;
    max_tx_entries = 192;
    data_log_bytes = 16 * 1024 * 1024;
  }

let kamino_dynamic alpha = Engine.Kamino_dynamic { alpha; policy = Backup.Lru_policy }

(* Build a store and preload [record_count] keys. Bulk-loaded: sorted
   keys go in as whole index leaves ([Kv.load]), so preload is O(n) and a
   million-record table populates in seconds instead of minutes. *)
let make_store ?(config_tweak = Fun.id) p kind =
  let e = Engine.create ~config:(config_tweak (engine_config p)) ~kind ~seed:4242 () in
  let kv = Kv.create e ~value_size:p.value_size ~node_size:p.node_size in
  let payload = String.make (p.value_size - 16) 'k' in
  Kv.load kv ~count:p.record_count ~key:Fun.id ~value:(fun _ -> payload);
  Engine.drain_backup e;
  kv

let value_for p k = Printf.sprintf "%0*d" (p.value_size - 16) (k land 0xffffff)

(* One YCSB run: returns the driver result. *)
let run_ycsb p kv workload ~clients =
  let wl = Ycsb.create workload ~record_count:p.record_count ~theta:p.theta in
  let rng = Rng.create 515 in
  let step ~client:_ () =
    match Ycsb.next wl rng with
    | Ycsb.Read k ->
        ignore (Kv.get kv k);
        "read"
    | Ycsb.Update k ->
        Kv.put kv k (value_for p k);
        "update"
    | Ycsb.Insert k ->
        Kv.put kv k (value_for p k);
        "insert"
    | Ycsb.Scan (k, n) ->
        ignore (Kv.scan kv ~lo:k ~count:n (fun _ _ -> ()));
        "scan"
    | Ycsb.Rmw k ->
        ignore (Kv.read_modify_write kv k (fun s -> s));
        "rmw"
  in
  Driver.run ~engine:(Kv.engine kv) ~clients ~total_ops:p.ops ~step

(* One TPC-C run over a fresh engine of the given kind. *)
let run_tpcc ?(config_tweak = Fun.id) p kind ~clients =
  let e = Engine.create ~config:(config_tweak (engine_config p)) ~kind ~seed:4242 () in
  let rng = Rng.create 616 in
  let t =
    Tpcc.setup e ~warehouses:2 ~districts_per_w:10 ~customers_per_district:60 ~items:1000
      ~rng
  in
  let step ~client:_ () = Tpcc.kind_name (Tpcc.run_mix t rng) in
  let r = Driver.run ~engine:e ~clients ~total_ops:p.tpcc_txs ~step in
  (match Tpcc.consistency_check t with
  | Ok () -> ()
  | Error err -> Printf.printf "!! TPC-C consistency violated: %s\n%!" err);
  r

(* Chain run: a closed loop of [clients] clients over a replicated store,
   on the chain's event simulation — each client issues its next op from
   its previous op's completion. The preload runs the same way. Reads and
   scans are served by the tail (a scan as a read of its first key); the
   identity read-modify-write of YCSB-F is an empty [Append], the command
   language's deterministic RMW. Returns (K ops/s, mean latency ns,
   cluster NVM bytes). *)
let run_chain p mode workload ~clients =
  let c =
    Async.create ~engine_config:(engine_config p) ~rpc_ns:1000 ~mode ~f:2
      ~value_size:p.value_size ~node_size:p.node_size ~seed:747 ()
  in
  let payload = String.make (p.value_size - 16) 'k' in
  (* [closed_loop n issue] runs ops [0..n-1], [clients] at a time, from the
     simulation's current time; [issue i ~at k] starts op [i] at [at] and
     calls [k] with its completion time. Returns (start, last completion). *)
  let closed_loop n issue =
    let start = Kamino_sim.Engine.now (Async.sim c) in
    let next = ref 0 and finish = ref start in
    let rec client at =
      if !next < n then begin
        let i = !next in
        incr next;
        issue i ~at (fun t ->
            finish := max !finish t;
            client t)
      end
    in
    for _ = 1 to clients do
      client start
    done;
    ignore (Async.run c);
    (start, !finish)
  in
  ignore
    (closed_loop p.chain_records (fun k ~at k_done ->
         Async.submit c ~at (Op.Put (k, payload)) ~on_complete:k_done));
  let wl = Ycsb.create workload ~record_count:p.chain_records ~theta:p.theta in
  let rng = Rng.create 515 in
  let lat = Stats.create () in
  let start, finish =
    closed_loop p.chain_ops (fun _ ~at k_done ->
        let complete t =
          Stats.add lat (float_of_int (t - at));
          k_done t
        in
        let write op = Async.submit c ~at op ~on_complete:complete in
        match Ycsb.next wl rng with
        | Ycsb.Read k | Ycsb.Scan (k, _) ->
            Async.read c ~at k ~on_result:(fun _ t -> complete t)
        | Ycsb.Update k | Ycsb.Insert k -> write (Op.Put (k, payload))
        | Ycsb.Rmw k -> write (Op.Append (k, "")))
  in
  (match Async.replicas_consistent c with
  | Ok () -> ()
  | Error e -> Printf.printf "!! replicas diverged: %s\n%!" e);
  let elapsed = finish - start in
  let kops =
    if elapsed = 0 then 0.0 else float_of_int p.chain_ops /. (float_of_int elapsed /. 1e9) /. 1e3
  in
  let storage =
    List.fold_left
      (fun acc i -> acc + Engine.storage_bytes (Async.engine_at c i))
      0 (Async.members c)
  in
  (kops, Stats.mean lat, storage)

(* --- Performance-per-dollar pricing (Figure 16) --------------------------

   TCO stand-in (documented substitution): a server base price plus an NVM
   price per dataset-sized multiple. The paper's evaluation ran ~10 GB-scale
   datasets on 112 GB VMs where memory dominates the bill; our scaled heap
   is tiny, so pricing is per heap-equivalent rather than per raw GB to
   preserve the figure's shape. Only ratios matter. Shared between the
   figure bench and the throughput harness's fig16-at-scale sweep so the
   two report the same economics. *)

let server_base_usd = 2000.0

let usd_per_dataset = 2000.0

let dollars_of ~heap_bytes storage_bytes =
  server_base_usd
  +. (float_of_int storage_bytes /. float_of_int heap_bytes *. usd_per_dataset)

let dollars p storage_bytes = dollars_of ~heap_bytes:p.heap_bytes storage_bytes

(* --- Table formatting ---------------------------------------------------- *)

let header title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

let row_format widths cells =
  String.concat "  "
    (List.map2 (fun w c -> Printf.sprintf "%-*s" w c) widths cells)

let print_table ~cols rows =
  let widths =
    List.mapi
      (fun i c -> List.fold_left (fun acc r -> max acc (String.length (List.nth r i))) (String.length c) rows)
      cols
  in
  Printf.printf "%s\n" (row_format widths cols);
  Printf.printf "%s\n" (row_format widths (List.map (fun w -> String.make w '-') widths));
  List.iter (fun r -> Printf.printf "%s\n" (row_format widths r)) rows

let f1 v = Printf.sprintf "%.1f" v

let f2 v = Printf.sprintf "%.2f" v

let f3 v = Printf.sprintf "%.3f" v

let us_of_ns ns = ns /. 1000.0
