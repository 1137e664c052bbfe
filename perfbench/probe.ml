(* A fixed reference computation, timed to gauge how fast the host runs
   right now. On a shared host a neighbour's load can slow every wall
   clock figure by tens of percent for minutes at a time; scaling a wall
   time by the probe's nominal time over its current one gives the figure
   at reference host speed, which is what the gated wall metrics report.

   The probe runs no code of the store and allocates nothing, so neither
   a change to the store nor the state of the garbage collector can move
   it. Its work resembles the store's hot paths: dependent loads scattered
   over a region far larger than the caches, 264-byte copies between
   random places in it, and hash-table look-ups and updates. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let size = 128 * 1024 * 1024

let copy = 264

let keys = 65_536

let iters = 2_048

(* The probe's median time on the 2-core x86-64 host the bounds were set
   on. Only ratios to it matter: it fixes the scale of the normalised
   figures. *)
let nominal_ns = 1_500_000.0

let state =
  lazy
    (let h = Hashtbl.create keys in
     for i = 0 to keys - 1 do
       Hashtbl.replace h (i * 7919) i
     done;
     (Bytes.make size 'p', h))

(* Wall ns of one probe run. *)
let run () =
  let b, h = Lazy.force state in
  let x = ref 0x2545F4914F6CDD1D and acc = ref 0 in
  let t0 = now_ns () in
  for i = 1 to iters do
    let v = !x in
    let v = v lxor (v lsl 13) in
    let v = v lxor (v lsr 7) in
    let v = v lxor (v lsl 17) in
    let src = v land (size - 1) land lnot 63 in
    acc := !acc + Char.code (Bytes.unsafe_get b src);
    x := v lxor !acc;
    let dst = (v lsr 20) land (size - 1) land lnot 63 in
    Bytes.blit b (min src (size - copy)) b (min dst (size - copy)) copy;
    let k = (v lsr 40) land (keys - 1) * 7919 in
    acc := !acc + Hashtbl.find h k;
    Hashtbl.replace h k i
  done;
  ignore (Sys.opaque_identity !acc);
  now_ns () - t0

(* Factor that takes a wall time measured next to probe runs of
   [probe_ns] to reference host speed. *)
let scale probe_ns = nominal_ns /. probe_ns

(* Accumulates wall time over parts of a phase, raw and at reference
   speed, probing before the first part and after each one; a part is
   scaled by the mean of the probes around it. *)
type meter = { mutable last : int; mutable raw_ns : int; mutable ref_ns : float }

let meter () = { last = run (); raw_ns = 0; ref_ns = 0.0 }

let part m f =
  let t0 = now_ns () in
  let x = f () in
  let dt = now_ns () - t0 in
  let p = run () in
  m.raw_ns <- m.raw_ns + dt;
  m.ref_ns <- m.ref_ns +. (float_of_int dt *. scale (float_of_int (m.last + p) /. 2.0));
  m.last <- p;
  x
