(* The benchmark's workloads: one record per named workload, holding every
   setting that decides the op stream and the flush policy. [config_json]
   prints them so run.py can check them against workloads.json. *)

module Engine = Kamino_core.Engine
module Backup = Kamino_core.Backup
module Ycsb = Kamino_workload.Ycsb
module Region = Kamino_nvm.Region

type t = {
  name : string;
  kind : Engine.kind;
  ycsb : Ycsb.workload;
  uniform : bool;  (* uniform keys; scrambled zipf otherwise *)
  records : int;
  heap_bytes : int;
  ops_per_second : int;
      (* nominal measured ops per --seconds: the op count is a pure
         function of (workload, seconds), so every simulated number is a
         pure function of (workload, seed, seconds) *)
  crash_cycles : int;  (* crash/recover cycles per pass *)
  crash_tasks : int;  (* applier tasks queued when each crash is taken *)
}

let value_size = 256

let node_size = 1024

let clients = 8

let theta = 0.99

let mib = 1024 * 1024

(* Ops of each client's closed loop that run before measuring, as a share
   of the measured ops. *)
let warmup_share = 0.1

let full =
  [
    {
      name = "ycsb-a-zipf";
      kind = Engine.Kamino_simple;
      ycsb = Ycsb.A;
      uniform = false;
      records = 1_000_000;
      heap_bytes = 768 * mib;
      ops_per_second = 150_000;
      crash_cycles = 15;
      crash_tasks = 32;
    };
    {
      name = "ycsb-a-uniform-dyn10";
      kind = Engine.Kamino_dynamic { alpha = 0.1; policy = Backup.Lru_policy };
      ycsb = Ycsb.A;
      uniform = true;
      records = 1_000_000;
      heap_bytes = 768 * mib;
      ops_per_second = 100_000;
      crash_cycles = 9;
      crash_tasks = 32;
    };
    {
      name = "ycsb-e-zipf";
      kind = Engine.Kamino_simple;
      ycsb = Ycsb.E;
      uniform = false;
      records = 1_000_000;
      heap_bytes = 832 * mib;
      ops_per_second = 65_000;
      crash_cycles = 15;
      crash_tasks = 1;
    };
  ]

(* Toy scale: the same workloads over 20k records, for the benchmark's own
   self-test. *)
let toy w = { w with records = 20_000; heap_bytes = (if w.ycsb = Ycsb.E then 40 else 32) * mib; ops_per_second = 1_000 }

let find ~toy:is_toy name =
  List.find_opt (fun w -> w.name = name) full
  |> Option.map (fun w -> if is_toy then toy w else w)

let config w =
  {
    Engine.default_config with
    Engine.heap_bytes = w.heap_bytes;
    log_slots = 256;
    data_log_bytes = 8 * mib;
  }

let alpha w = match w.kind with Engine.Kamino_dynamic { alpha; _ } -> alpha | _ -> 1.0

let op_mix w =
  match w.ycsb with
  | Ycsb.A -> "50% read / 50% update"
  | Ycsb.E -> "95% scan of 1-100 keys / 5% insert"
  | _ -> Ycsb.name w.ycsb

let crash_mode_name = function
  | Region.Words_survive_randomly -> "words_survive_randomly"
  | Region.Lines_survive_randomly -> "lines_survive_randomly"
  | Region.Drop_unflushed -> "drop_unflushed"

let config_json w =
  let c = config w in
  Printf.sprintf
    "{\"name\": %S, \"engine\": %S, \"alpha\": %g, \"records\": %d, \"value_bytes\": %d, \
     \"node_bytes\": %d, \"heap_bytes\": %d, \"clients\": %d, \"op_mix\": %S, \
     \"key_distribution\": %S, \"cost_model\": \"default\", \"crash_mode\": %S, \
     \"ops_per_second\": %d, \"crash_cycles\": %d, \"crash_tasks\": %d}"
    w.name (Engine.kind_name w.kind) (alpha w) w.records value_size node_size c.Engine.heap_bytes
    clients (op_mix w)
    (if w.uniform then "uniform" else Printf.sprintf "scrambled zipf theta=%g" theta)
    (crash_mode_name c.Engine.crash_mode) w.ops_per_second w.crash_cycles w.crash_tasks

(* Versioned values: [key] and [version] stamped in the first 16 bytes, a
   filler byte derived from both in the rest, so a torn, stale or
   misplaced value fails [Value.check]. *)
module Value = struct
  let filler key ver = Char.unsafe_chr (33 + (((key * 31) + ver) land 63))

  let make key ver =
    let b = Bytes.create value_size in
    Bytes.set_int64_le b 0 (Int64.of_int key);
    Bytes.set_int64_le b 8 (Int64.of_int ver);
    Bytes.fill b 16 (value_size - 16) (filler key ver);
    Bytes.unsafe_to_string b

  (* The filler as one 8-byte word (low 63 bits): torn writes are
     word-granular. *)
  let filler_word key ver = Char.code (filler key ver) * 0x0101010101010101

  let rec filled s f i =
    i >= value_size || (Int64.to_int (String.get_int64_le s i) = f && filled s f (i + 8))

  let check s ~key ~ver =
    String.length s = value_size
    && Int64.to_int (String.get_int64_le s 0) = key
    && Int64.to_int (String.get_int64_le s 8) = ver
    && filled s (filler_word key ver) 16
end
