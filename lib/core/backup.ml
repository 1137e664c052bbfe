module Region = Kamino_nvm.Region
module Heap = Kamino_heap.Heap

type policy = Lru_policy | Fifo_policy

type dynamic = {
  slots : Heap.t;
  table : Phash.t;
  lru : Lru.t;
  policy : policy;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

type t = Full of Region.t | Dynamic of dynamic

(* The look-up table's value word packs the slot offset and the copy length
   so the slot allocator can be reconstructed from the table alone after a
   crash (the allocator metadata itself is volatile). Single-word values
   keep Phash's crash-atomic publish discipline intact. *)
let pack_slot ~slot ~len = slot lor (len lsl 32)

let unpack_slot v = (v land 0xFFFFFFFF, v lsr 32)

let create_full region = Full region

let full_region = function Full region -> Some region | Dynamic _ -> None

(* [capacity] is explicit rather than derived from the table region's size:
   regions are now sized with geometric growth headroom ([Phash.chain_size]),
   so "region bytes / 32" would no longer name the intended initial
   capacity. *)
let create_dynamic ~slots ~table ~capacity ~policy =
  Dynamic
    {
      slots = Heap.format slots;
      table = Phash.format table ~capacity;
      lru = Lru.create ();
      policy;
      hits = 0;
      misses = 0;
      evictions = 0;
    }

let reopen t =
  match t with
  | Full region -> Full region
  | Dynamic d ->
      (* The table is the persistent truth; the slot allocator's own
         metadata was volatile and is rebuilt from the mapping. Resident
         keys re-enter the recency queue so they stay evictable.

         Both passes stream: the allocator rebuild consumes the table's
         reverse iteration directly (the write order per object is the same
         as the old prepend-a-list-then-rebuild path), so reattaching at
         millions of resident copies allocates no intermediate list. *)
      let table = Phash.open_existing (Phash.region d.table) in
      let slots =
        Heap.rebuild_via (Heap.region d.slots) ~iter:(fun f ->
            Phash.iter_rev table (fun ~key:_ ~value ->
                let slot, len = unpack_slot value in
                f slot len))
      in
      let lru = Lru.create ~size_hint:(Phash.count table) () in
      Phash.iter table (fun ~key ~value:_ -> Lru.touch lru key);
      Dynamic
        { slots; table; lru; policy = d.policy; hits = 0; misses = 0; evictions = 0 }

let initialize_full t ~main =
  match t with
  | Full region ->
      Region.copy_between ~src:main ~src_off:0 ~dst:region ~dst_off:0
        ~len:(Region.size main);
      Region.persist_all region
  | Dynamic _ -> ()

let evict d ~locked =
  match Lru.evict_candidate d.lru ~locked with
  | None -> false
  | Some key ->
      let packed = Phash.find_or d.table ~key ~default:(-1) in
      if packed < 0 then begin
        (* The queue briefly knew a key the table does not (should not
           happen); drop it and try again. *)
        Lru.remove d.lru key;
        true
      end
      else begin
        let slot, _len = unpack_slot packed in
        ignore (Phash.remove d.table ~key);
        Heap.free d.slots slot;
        Lru.remove d.lru key;
        d.evictions <- d.evictions + 1;
        true
      end

let rec alloc_slot d ~len ~locked ~pressure ~relieved =
  match Heap.alloc d.slots len with
  | slot -> slot
  | exception Out_of_memory ->
      if evict d ~locked then alloc_slot d ~len ~locked ~pressure ~relieved
      else if not relieved then begin
        (* Everything resident is pinned — usually because committed write
           sets are still queued at the applier. Let the engine drain it,
           unpinning their copies, and retry once. *)
        pressure ();
        alloc_slot d ~len ~locked ~pressure ~relieved:true
      end
      else
        failwith
          "Backup: dynamic backup exhausted — every resident copy is locked \
           (working set exceeds alpha * heap)"

let drop_resident d ~key ~slot =
  ignore (Phash.remove d.table ~key);
  Heap.free d.slots slot;
  Lru.remove d.lru key

(* Forget the resident copy for a range whose object identity has died —
   called after rolling back an aborted or incomplete transaction, whose
   fresh allocations may be re-carved with different extent boundaries. *)
let drop t ~off =
  match t with
  | Full _ -> ()
  | Dynamic d ->
      let packed = Phash.find_or d.table ~key:off ~default:(-1) in
      if packed >= 0 then begin
        let slot, _len = unpack_slot packed in
        drop_resident d ~key:off ~slot
      end

(* Publish a mapping, shedding residents if the look-up table itself is the
   bottleneck. [Phash.Overload] only fires when the table region has no
   growth headroom left; evicting one entry leaves a reusable tombstone. *)
let rec publish_mapping d ~key ~value ~locked ~pressure ~relieved =
  match Phash.insert d.table ~key ~value with
  | () -> ()
  | exception Phash.Overload _ ->
      if evict d ~locked then publish_mapping d ~key ~value ~locked ~pressure ~relieved
      else if not relieved then begin
        pressure ();
        publish_mapping d ~key ~value ~locked ~pressure ~relieved:true
      end
      else
        failwith
          "Backup: dynamic look-up table exhausted — every resident copy is \
           locked and the table region cannot grow"

let ensure_copy t ~main ~off ~len ~locked ~pressure =
  match t with
  | Full _ -> ()
  | Dynamic d -> (
      let packed = Phash.find_or d.table ~key:off ~default:(-1) in
      let hit =
        if packed >= 0 then begin
          let slot, stored_len = unpack_slot packed in
          if stored_len = len then true
          else begin
            (* The same address hosts a different-sized object now (its
               previous allocation was rolled back by an abort or crash).
               The stale copy is useless — and copying the new extent
               into the undersized slot would corrupt its neighbours. *)
            drop_resident d ~key:off ~slot;
            false
          end
        end
        else false
      in
      match hit with
      | true ->
          d.hits <- d.hits + 1;
          (* FIFO ablation: recency is insertion order only. *)
          if d.policy = Lru_policy then Lru.touch d.lru off
      | false ->
          d.misses <- d.misses + 1;
          let slot = alloc_slot d ~len ~locked ~pressure ~relieved:false in
          let dst = Heap.region d.slots in
          Region.copy_between ~src:main ~src_off:off ~dst ~dst_off:slot ~len;
          Region.persist dst slot len;
          (* Publish the mapping only after the copy is durable; Phash's
             two-step insert keeps the entry itself crash-atomic. *)
          publish_mapping d ~key:off ~value:(pack_slot ~slot ~len) ~locked ~pressure
            ~relieved:false;
          Lru.touch d.lru off)

let is_full t = match t with Full _ -> true | Dynamic _ -> false

let has_copy t ~off =
  match t with
  | Full _ -> true
  | Dynamic d -> Phash.find_or d.table ~key:off ~default:(-1) >= 0

let roll_forward t ~main ~off ~len =
  match t with
  | Full region ->
      Region.copy_between ~src:main ~src_off:off ~dst:region ~dst_off:off ~len;
      Region.persist region off len
  | Dynamic d ->
      let packed = Phash.find_or d.table ~key:off ~default:(-1) in
      if packed < 0 then
        failwith
          (Printf.sprintf
             "Backup.roll_forward: no resident copy for range at %d — locking \
              discipline violated"
             off);
      let slot, stored_len = unpack_slot packed in
      if stored_len <> len then
        failwith
          (Printf.sprintf
             "Backup.roll_forward: resident copy at %d has length %d, range has %d"
             off stored_len len);
      let dst = Heap.region d.slots in
      Region.copy_between ~src:main ~src_off:off ~dst ~dst_off:slot ~len;
      Region.persist dst slot len

let roll_back t ~main ~off ~len =
  match t with
  | Full region ->
      Region.copy_between ~src:region ~src_off:off ~dst:main ~dst_off:off ~len;
      Region.persist main off len;
      true
  | Dynamic d ->
      let packed = Phash.find_or d.table ~key:off ~default:(-1) in
      if packed < 0 then false
      else begin
        let slot, stored_len = unpack_slot packed in
        if stored_len <> len then
          failwith
            (Printf.sprintf
               "Backup.roll_back: resident copy at %d has length %d, range has %d" off
               stored_len len);
        Region.copy_between ~src:(Heap.region d.slots) ~src_off:slot ~dst:main
          ~dst_off:off ~len;
        Region.persist main off len;
        true
      end

let storage_bytes t =
  match t with
  | Full region -> Region.size region
  | Dynamic d -> Region.size (Heap.region d.slots) + (Phash.capacity d.table * 16)

let hits t = match t with Full _ -> 0 | Dynamic d -> d.hits

let misses t = match t with Full _ -> 0 | Dynamic d -> d.misses

let evictions t = match t with Full _ -> 0 | Dynamic d -> d.evictions

let resident t = match t with Full _ -> 0 | Dynamic d -> Phash.count d.table

(* Completed incremental resizes of the look-up table (metrics gauge). *)
let migrations t =
  match t with Full _ -> 0 | Dynamic d -> Phash.migrations d.table

let copy_matches ?len t ~main ~off =
  match t with
  | Full region ->
      let len = Option.value len ~default:64 in
      Some (Region.equal_ranges region off main off len)
  | Dynamic d -> (
      match Phash.find d.table ~key:off with
      | None -> None
      | Some packed ->
          let slot, stored_len = unpack_slot packed in
          let len = Option.value len ~default:stored_len in
          let len = min len stored_len in
          Some (Region.equal_ranges (Heap.region d.slots) slot main off len))

let dump_mapping t =
  match t with
  | Full _ -> []
  | Dynamic d ->
      let acc = ref [] in
      Phash.iter d.table (fun ~key ~value ->
          let slot, len = unpack_slot value in
          acc := (key, slot, len) :: !acc);
      List.sort compare !acc
