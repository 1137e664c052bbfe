(* Slot [i] keeps its key at [2i] and its id at [2i + 1]; an id of -1 marks
   the slot empty. The slot count is [2^bits], at most 3/4 of it in use, so
   every probe run ends at an empty slot. *)
type t = {
  mutable slots : int array;
  mutable bits : int;
  mutable count : int;
}

(* 2^63 divided by the golden ratio, rounded to odd. Keys are NVM offsets
   that share their low bits; the product's top [bits] bits spread them. *)
let golden = 0x4F1BBCDCBFA53E0B

let home key bits = (key * golden) lsr (Sys.int_size - bits)

let fits bits n = 4 * n <= 3 lsl bits

let create ?(size_hint = 0) () =
  let rec bits b = if fits b size_hint then b else bits (b + 1) in
  let bits = bits 4 in
  { slots = Array.make (2 lsl bits) (-1); bits; count = 0 }

let length t = t.count

(* The slot holding [key], or the empty slot that ends its probe run. *)
let rec slot_of slots mask key i =
  if Array.unsafe_get slots ((2 * i) + 1) < 0 || Array.unsafe_get slots (2 * i) = key then i
  else slot_of slots mask key ((i + 1) land mask)

let find t key =
  let i = slot_of t.slots ((1 lsl t.bits) - 1) key (home key t.bits) in
  Array.unsafe_get t.slots ((2 * i) + 1)

let rec insert slots mask key id i =
  if Array.unsafe_get slots ((2 * i) + 1) < 0 then begin
    Array.unsafe_set slots (2 * i) key;
    Array.unsafe_set slots ((2 * i) + 1) id
  end
  else insert slots mask key id ((i + 1) land mask)

let grow t =
  let old = t.slots and bits = t.bits + 1 in
  let slots = Array.make (2 lsl bits) (-1) in
  let mask = (1 lsl bits) - 1 in
  for i = 0 to (Array.length old / 2) - 1 do
    let id = old.((2 * i) + 1) in
    if id >= 0 then begin
      let key = old.(2 * i) in
      insert slots mask key id (home key bits)
    end
  done;
  t.slots <- slots;
  t.bits <- bits

let add t key id =
  if not (fits t.bits (t.count + 1)) then grow t;
  insert t.slots ((1 lsl t.bits) - 1) key id (home key t.bits);
  t.count <- t.count + 1

(* Backward-shift deletion: walk the rest of the probe run and move each
   entry whose home does not lie cyclically in (hole, j] into the hole, so
   no tombstone is left behind. *)
let remove t key =
  let slots = t.slots and bits = t.bits in
  let mask = (1 lsl bits) - 1 in
  let i = slot_of slots mask key (home key bits) in
  let id = slots.((2 * i) + 1) in
  if id >= 0 then begin
    let hole = ref i and j = ref ((i + 1) land mask) in
    while slots.((2 * !j) + 1) >= 0 do
      let k = slots.(2 * !j) in
      let h = home k bits in
      let movable = if !hole <= !j then h <= !hole || h > !j else h <= !hole && h > !j in
      if movable then begin
        slots.(2 * !hole) <- k;
        slots.((2 * !hole) + 1) <- slots.((2 * !j) + 1);
        hole := !j
      end;
      j := (!j + 1) land mask
    done;
    slots.(2 * !hole) <- -1;
    slots.((2 * !hole) + 1) <- -1;
    t.count <- t.count - 1
  end;
  id
