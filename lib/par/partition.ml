module Ir = Secpol_policy.Ir

type key = Subject | Asset

(* 32-bit FNV-1a; OCaml's native int is at least 63 bits, so the masked
   multiply never overflows into the sign bit *)
let fnv_offset = 0x811c9dc5

let fnv_prime = 0x01000193

let mask32 = 0xFFFFFFFF

let hash_string s =
  let h = ref fnv_offset in
  String.iter
    (fun c -> h := (!h lxor Char.code c) * fnv_prime land mask32)
    s;
  !h

let shard_of_string ~shards s =
  if shards < 1 then invalid_arg "Partition.shard_of_string: shards < 1";
  hash_string s mod shards

let label_of key (req : Ir.request) =
  match key with Subject -> req.Ir.subject | Asset -> req.Ir.asset

let assign_by ~shards label items =
  if shards < 1 then invalid_arg "Partition.assign_by: shards < 1";
  let counts = Array.make shards 0 in
  let shard = Array.map (fun item -> shard_of_string ~shards (label item)) items in
  Array.iter (fun s -> counts.(s) <- counts.(s) + 1) shard;
  let slots = Array.map (fun n -> Array.make n 0) counts in
  let filled = Array.make shards 0 in
  Array.iteri
    (fun i s ->
      slots.(s).(filled.(s)) <- i;
      filled.(s) <- filled.(s) + 1)
    shard;
  slots

let assign key ~shards reqs = assign_by ~shards (label_of key) reqs
