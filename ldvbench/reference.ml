(* A fixed reference computation, timed around the benchmark's steps to
   tell how fast the host is running at that moment.

   The benchmark shares the cores of a host with other tenants, and that
   host changes speed by up to 1.7x for seconds to minutes at a time: a
   fixed loop can run at one speed for a whole 30-second run and at the
   other speed for the next. How much a step slows depends on what the
   other tenants contend for: caches and execution units, or memory. So
   the reference has two parts, both lookups in a hash table of string
   keys built once before any step: one in a small table that stays in
   the core's caches, one in a table of some 20 MB that does not. Their
   geometric mean followed the steps' times across host speeds more
   closely than either part, an allocation loop or an integer loop
   (METRICS.md). Neither part allocates, so the reference's own time
   does not depend on the garbage collector, and it uses the OCaml
   standard library only, so no change to the program under test changes
   its cost. *)

type part = { keys : string array; table : (string, int) Hashtbl.t; lookups : int }

let part ~n_keys ~lookups =
  lazy
    (let keys = Array.init n_keys (fun i -> Printf.sprintf "key-%d-%d" ((i * 7919) mod 100_003) i) in
     let table = Hashtbl.create n_keys in
     Array.iteri (fun i k -> Hashtbl.replace table k i) keys;
     { keys; table; lookups })

let small = part ~n_keys:4096 ~lookups:125_000
let large = part ~n_keys:200_000 ~lookups:20_000

(* Build both tables; call before forking the steps, so that every child
   shares the same ones. *)
let init () =
  ignore (Lazy.force small);
  ignore (Lazy.force large)

let time_part p =
  let { keys; table; lookups } = Lazy.force p in
  let n = Array.length keys in
  let t0 = Spans.now () in
  let acc = ref 0 in
  for r = 0 to lookups - 1 do
    acc := !acc + Hashtbl.find table keys.(r * 48271 mod n)
  done;
  let t1 = Spans.now () in
  ignore (Sys.opaque_identity !acc);
  t1 -. t0

(* The reference time, in seconds: the geometric mean of the two
   parts' times. *)
let time () = sqrt (time_part small *. time_part large)

(* What [time] reads on the reference host. *)
let nominal_s = 0.01

(* The factor that scales a time measured between two reference
   readings [before] and [after] to the reference host. *)
let scale ~before ~after = nominal_s /. ((before +. after) /. 2.)
