(* Node [n] is the [stride] words at [n * stride] of [nodes]: its key, the
   node towards the MRU end and the node towards the LRU end, -1 standing
   for none. Removed nodes are chained through their next word from [free]
   and reused before [nodes] grows. *)
let f_key = 0

let f_prev = 1

let f_next = 2

let stride = 3

type t = {
  index : Flat_index.t;  (* key -> node *)
  mutable nodes : int array;
  mutable used : int;  (* nodes handed out, free ones included *)
  mutable free : int;
  mutable mru : int;
  mutable lru : int;
}

let create ?(size_hint = 1024) () =
  let n = max 16 size_hint in
  {
    index = Flat_index.create ~size_hint:n ();
    nodes = Array.make (n * stride) (-1);
    used = 0;
    free = -1;
    mru = -1;
    lru = -1;
  }

let length t = Flat_index.length t.index

let mem t key = Flat_index.find t.index key >= 0

let get t n f = t.nodes.((n * stride) + f)

let set t n f v = t.nodes.((n * stride) + f) <- v

let unlink t n =
  let p = get t n f_prev and s = get t n f_next in
  if p >= 0 then set t p f_next s else t.mru <- s;
  if s >= 0 then set t s f_prev p else t.lru <- p

let push_front t n =
  set t n f_prev (-1);
  set t n f_next t.mru;
  if t.mru >= 0 then set t t.mru f_prev n else t.lru <- n;
  t.mru <- n

let new_node t key =
  let n =
    if t.free >= 0 then begin
      let n = t.free in
      t.free <- get t n f_next;
      n
    end
    else begin
      let n = t.used in
      if (n + 1) * stride > Array.length t.nodes then begin
        let nodes = Array.make (2 * Array.length t.nodes) (-1) in
        Array.blit t.nodes 0 nodes 0 (Array.length t.nodes);
        t.nodes <- nodes
      end;
      t.used <- n + 1;
      n
    end
  in
  set t n f_key key;
  n

let touch t key =
  let n = Flat_index.find t.index key in
  if n < 0 then begin
    let n = new_node t key in
    Flat_index.add t.index key n;
    push_front t n
  end
  else if n <> t.mru then begin
    unlink t n;
    push_front t n
  end

let remove t key =
  let n = Flat_index.remove t.index key in
  if n >= 0 then begin
    unlink t n;
    set t n f_next t.free;
    t.free <- n
  end

let rec first_unlocked t locked n =
  if n < 0 then None
  else
    let key = get t n f_key in
    if locked key then first_unlocked t locked (get t n f_prev) else Some key

let evict_candidate t ~locked = first_unlocked t locked t.lru

let iter_lru_order t f =
  let rec walk n =
    if n >= 0 then begin
      f (get t n f_key);
      walk (get t n f_prev)
    end
  in
  walk t.lru
