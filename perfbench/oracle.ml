(* The correctness oracle: a volatile model of the store (the version of
   every key's current value), checked on every read, and the failure
   ledger that feeds [failed_ops_ratio]. *)

module Kv = Kamino_kv.Kv
module Value = Spec.Value

type t = {
  ver : int array;  (* version of each present key's current value *)
  mutable keyspace : int;  (* keys [0, keyspace) are present *)
  dirty : int array;  (* keys written since the last read-back *)
  mutable n_dirty : int;
  is_dirty : Bytes.t;
  mutable attempted : int;
  mutable failed : int;
  mutable first_error : string option;
}

let create ~records ~capacity =
  {
    ver = Array.make capacity 0;
    keyspace = records;
    dirty = Array.make capacity 0;
    n_dirty = 0;
    is_dirty = Bytes.make capacity '\000';
    attempted = 0;
    failed = 0;
    first_error = None;
  }

let fail t msg =
  t.failed <- t.failed + 1;
  if t.first_error = None then t.first_error <- Some msg

let mark_dirty t k =
  if Bytes.unsafe_get t.is_dirty k = '\000' then begin
    Bytes.unsafe_set t.is_dirty k '\001';
    t.dirty.(t.n_dirty) <- k;
    t.n_dirty <- t.n_dirty + 1
  end

(* An acknowledged write of version [ver] to [k]. *)
let wrote t k ver =
  t.ver.(k) <- ver;
  if k >= t.keyspace then t.keyspace <- k + 1;
  mark_dirty t k

let check_get t k = function
  | Some s when Value.check s ~key:k ~ver:t.ver.(k) -> ()
  | Some _ -> fail t (Printf.sprintf "get %d: wrong value (expected version %d)" k t.ver.(k))
  | None -> fail t (Printf.sprintf "get %d: key missing" k)

(* A scan from [lo] of [count] must return the next [count] present keys,
   in order, each with its current version. [keys]/[vals] hold what the
   store returned. *)
let check_scan t ~lo ~count ~n ~keys ~vals =
  let expect = max 0 (min count (t.keyspace - lo)) in
  if n <> expect then fail t (Printf.sprintf "scan %d+%d: %d keys, expected %d" lo count n expect)
  else
    let bad = ref (-1) in
    for i = n - 1 downto 0 do
      let k = keys.(i) in
      if k <> lo + i || not (Value.check vals.(i) ~key:k ~ver:t.ver.(k)) then bad := i
    done;
    if !bad >= 0 then fail t (Printf.sprintf "scan %d+%d: wrong binding at %d" lo count !bad)

(* After a recovery: every acknowledged write since the last read-back
   must be there. Each missing or wrong key is one failed op. *)
let read_back t kv =
  for i = 0 to t.n_dirty - 1 do
    let k = t.dirty.(i) in
    Bytes.unsafe_set t.is_dirty k '\000';
    t.attempted <- t.attempted + 1;
    match Kv.get kv k with
    | Some s when Value.check s ~key:k ~ver:t.ver.(k) -> ()
    | _ -> fail t (Printf.sprintf "acknowledged write to %d (version %d) lost by recovery" k t.ver.(k))
    | exception e -> fail t (Printf.sprintf "read-back of %d raised %s" k (Printexc.to_string e))
  done;
  t.n_dirty <- 0

(* The self-test's planted fault: one expectation the store cannot meet. *)
let plant_fault t k =
  t.ver.(k) <- t.ver.(k) + 1;
  mark_dirty t k
