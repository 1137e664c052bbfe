(* Stacked rows: one op stream replayed through each layer's public
   functions in turn, nvm -> heap -> core -> index -> kvstore, timing each
   row from outside. A layer's wall cost is the difference between
   adjacent rows. The rows run on the store after the oracle has finished
   with it: they write through lower layers behind the engine's back, so
   nothing checks the store afterwards.

   - nvm: [Region] read of each op's value extent, or write + persist.
   - heap: as nvm, but an insert first takes a fresh object from
     [Heap.alloc].
   - core: one engine transaction on the value object, no index.
   - index: [Btree.find_tx] / [Btree.insert] / [Btree.scan], no value
     access.
   - kvstore: the [Kv] call the measured run made. *)

module Region = Kamino_nvm.Region
module Heap = Kamino_heap.Heap
module Engine = Kamino_core.Engine
module Btree = Kamino_index.Btree
module Kv = Kamino_kv.Kv
module Ycsb = Kamino_workload.Ycsb

let now_ns () = Int64.to_int (Monotonic_clock.now ())

type kind = Read | Update | Insert | Scan

type stream = {
  kind : kind array;
  key : int array;
  count : int array;  (* scan length *)
  first : int array;  (* op i's value pointers are ptrs.(first.(i)) .. ptrs.(first.(i+1)-1) *)
  ptrs : int array;
  vals : string array;  (* value written by update/insert ops *)
}

(* The value object's extent as the store lays it out: a length word, then
   the bytes. *)
let extent = 8 + Spec.value_size

(* The store's index: the store descriptor at the heap root holds the
   tree's descriptor pointer in its first word. *)
let attach_tree kv =
  let e = Kv.engine kv in
  let tree = Btree.attach e (Engine.peek_int e (Engine.root e) 0) in
  if Btree.cardinal tree <> Kv.size kv then failwith "rows: store index did not attach";
  tree

(* Draw [m] ops and resolve every value pointer they touch (outside any
   timed row). An insert's pointer, used by the nvm row that has no
   allocator, is the value object of an existing key. *)
let draw gen rng ~m ~records tree =
  let kind = Array.make m Read and key = Array.make m 0 and count = Array.make m 0 in
  let vals = Array.make m "" in
  let first = Array.make (m + 1) 0 in
  let ptrs = ref (Array.make (4 * m) 0) and n = ref 0 in
  let push p =
    if !n = Array.length !ptrs then begin
      let a = Array.make (2 * !n) 0 in
      Array.blit !ptrs 0 a 0 !n;
      ptrs := a
    end;
    !ptrs.(!n) <- p;
    incr n
  in
  let find k =
    match Btree.find tree k with Some p -> p | None -> failwith "rows: key not in the store"
  in
  for i = 0 to m - 1 do
    first.(i) <- !n;
    match Ycsb.next gen rng with
    | Ycsb.Read k ->
        kind.(i) <- Read;
        key.(i) <- k;
        push (find k)
    | Ycsb.Update k ->
        kind.(i) <- Update;
        key.(i) <- k;
        vals.(i) <- Spec.Value.make k 0;
        push (find k)
    | Ycsb.Insert k ->
        kind.(i) <- Insert;
        key.(i) <- k;
        vals.(i) <- Spec.Value.make k 0;
        push (find (k mod records))
    | Ycsb.Scan (lo, c) ->
        kind.(i) <- Scan;
        key.(i) <- lo;
        count.(i) <- c;
        ignore (Btree.scan tree ~lo ~count:c (fun _ p -> push p))
    | Ycsb.Rmw _ -> invalid_arg "rows: rmw ops are not replayed"
  done;
  first.(m) <- !n;
  { kind; key; count; first; ptrs = !ptrs; vals }

type row = {
  name : string;
  wall_ns : float;
      (* median over 500-op segments of wall ns per op, at reference host
         speed *)
  words_per_op : float;
  allocs_per_op : float;
  loads_per_op : float;  (* NVM loads charged during the row *)
}

let median a =
  let a = Array.copy a in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let time_row e ~name ~allocs s f =
  let m = Array.length s.kind in
  let seg = 500 in
  let segs = Array.make (max 1 (m / seg)) nan and n_seg = ref 0 in
  let loads0 = (Engine.main_counters e).Region.loads in
  let probe0 = Probe.run () in
  let w0 = int_of_float (Gc.minor_words ()) in
  let t = ref (now_ns ()) in
  for i = 0 to m - 1 do
    f i;
    if (i + 1) mod seg = 0 then begin
      let now = now_ns () in
      segs.(!n_seg) <- float_of_int (now - !t) /. float_of_int seg;
      incr n_seg;
      t := now
    end
  done;
  let words = int_of_float (Gc.minor_words ()) - w0 in
  let speed = Probe.scale (float_of_int (probe0 + Probe.run ()) /. 2.0) in
  let per x = float_of_int x /. float_of_int m in
  {
    name;
    wall_ns = median (Array.sub segs 0 (max 1 !n_seg)) *. speed;
    words_per_op = per words;
    allocs_per_op = per allocs;
    loads_per_op = per ((Engine.main_counters e).Region.loads - loads0);
  }

(* Index and kvstore rows insert their keys this far above the stream's,
   so neither sees the other's inserts. *)
let index_key_offset = 1 lsl 40
let kv_key_offset = 1 lsl 41

let run kv tree s =
  let e = Kv.engine kv in
  let buf = Bytes.create extent in
  let inserts = Array.fold_left (fun acc k -> if k = Insert then acc + 1 else acc) 0 s.kind in
  let read_raw region p = Region.read_into region p buf 0 extent in
  let write_raw region p v =
    Region.write_int region p (String.length v);
    Region.write_string region (p + 8) v;
    Region.persist region p extent
  in
  let raw_row ~with_heap i =
    let region = Engine.main_region e in
    let p = s.ptrs.(s.first.(i)) in
    match s.kind.(i) with
    | Read -> read_raw region p
    | Update -> write_raw region p s.vals.(i)
    | Insert ->
        let p = if with_heap then Heap.alloc (Engine.heap e) extent else p in
        write_raw region p s.vals.(i)
    | Scan ->
        for j = s.first.(i) to s.first.(i + 1) - 1 do
          read_raw region s.ptrs.(j)
        done
  in
  let core i =
    let p = s.ptrs.(s.first.(i)) in
    match s.kind.(i) with
    | Read ->
        Engine.with_tx e (fun tx ->
            Engine.read_lock tx p;
            ignore (Engine.read_string tx p 8 (Engine.read_int tx p 0)))
    | Update ->
        Engine.with_tx e (fun tx ->
            Engine.add tx p;
            Engine.write_int tx p 0 Spec.value_size;
            Engine.write_string tx p 8 s.vals.(i))
    | Insert ->
        Engine.with_tx e (fun tx ->
            let p = Engine.alloc tx extent in
            Engine.write_int tx p 0 Spec.value_size;
            Engine.write_string tx p 8 s.vals.(i))
    | Scan ->
        for j = s.first.(i) to s.first.(i + 1) - 1 do
          let p = s.ptrs.(j) in
          ignore (Engine.peek_string e p 8 (Engine.peek_int e p 0))
        done
  in
  let index i =
    let k = s.key.(i) in
    match s.kind.(i) with
    | Read | Update -> ignore (Engine.with_tx e (fun tx -> Btree.find_tx tx tree k))
    | Insert ->
        let p = s.ptrs.(s.first.(i)) in
        ignore (Engine.with_tx e (fun tx -> Btree.insert tx tree (k + index_key_offset) p))
    | Scan -> ignore (Btree.scan tree ~lo:k ~count:s.count.(i) (fun _ _ -> ()))
  in
  let kvstore i =
    let k = s.key.(i) in
    match s.kind.(i) with
    | Read -> ignore (Kv.get kv k)
    | Update -> Kv.put kv k s.vals.(i)
    | Insert -> Kv.put kv (k + kv_key_offset) s.vals.(i)
    | Scan -> ignore (Kv.scan kv ~lo:k ~count:s.count.(i) (fun _ _ -> ()))
  in
  (* An untimed pass first, so the nvm row does not pay for warming the
     caches on the rows after it. *)
  for i = 0 to Array.length s.kind - 1 do
    raw_row ~with_heap:false i
  done;
  [
    time_row e ~name:"nvm" ~allocs:0 s (raw_row ~with_heap:false);
    time_row e ~name:"heap" ~allocs:inserts s (raw_row ~with_heap:true);
    time_row e ~name:"core" ~allocs:inserts s core;
    time_row e ~name:"index" ~allocs:0 s index;
    time_row e ~name:"kvstore" ~allocs:inserts s kvstore;
  ]
