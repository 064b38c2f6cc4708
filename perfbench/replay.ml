(* In-process replay of served batches through the daemon's public
   stages (traced runs only).

   Mirrors [Daemon.handle_decide] stage by stage — [Wire.decode_payload],
   [Partition.assign_by] by subject, [Pool.try_submit] of a [Batch.push]
   + [Engine.decide_batch] job on an in-process one-domain [Pool],
   [Pool.await_timeout], [Wire.encode_payload] — and [handle_reload]'s
   [Compile.of_source], [Verify.diff], [Table.compile] and [Pool.swap],
   timing each call as a span.  The replayed answers must equal the
   served ones wherever the policy fixes the answer (rated requests
   depend on the clock they were stamped with). *)

module Policy = Secpol_policy
module Ast = Policy.Ast
module Ir = Policy.Ir
module Pool = Secpol_par.Pool
module Partition = Secpol_par.Partition
module Wire = Secpol_serve.Wire

type event =
  | Decide of { id : int; batch : Mix.batch; gen : int; served : bool array }
  | Reload of int

(* Per replayed batch, ns and minor-heap words. *)
type batch_stats = {
  n : int;
  bytes : int;  (** request + response frames *)
  decode_ns : int;
  partition_ns : int;
  partition_mw : float;
  handoff_ns : int;  (** a no-op job through the pool *)
  job_ns : int;  (** decide job, submit until the result is back *)
  fill_ns : int;
  fill_mw : float;
  decide_ns : int;
  decide_mw : float;
  encode_ns : int;
}

type reload_stats = {
  compile_ns : int;
  verify_ns : int;
  table_ns : int;
  swap_ns : int;
}

type result = {
  batches : batch_stats list;
  reloads : reload_stats list;
  mismatches : int;
  spans : Spans.span list;
}

let strategy = Policy.Table.Deny_overrides

let watchdog_s = 1.0

(* The daemon's decide job, with the arena fill and the decision sweep
   timed on the worker domain. *)
let decide_job reqs idxs now w =
  let t0 = Util.now_ns () and w0 = Gc.minor_words () in
  let n = Array.length idxs in
  let batch = Policy.Batch.create ~capacity:(max 1 n) () in
  Array.iter (fun i -> Policy.Batch.push ~now batch reqs.(i)) idxs;
  let out = Array.make n Ast.Deny in
  let t1 = Util.now_ns () and w1 = Gc.minor_words () in
  Policy.Engine.decide_batch (Pool.worker_engine w) batch ~out;
  let t2 = Util.now_ns () and w2 = Gc.minor_words () in
  (out, t0, t1, t2, w1 -. w0, w2 -. w1)

let await ticket =
  match Pool.await_timeout ticket ~timeout_s:watchdog_s with
  | Some (Ok v) -> v
  | Some (Error e) -> raise e
  | None -> failwith "replay: pool job missed its deadline"

let run ~templates ~kind_of_gen ~source_of_gen ~first_gen events =
  let buf = Spans.create () in
  let span = Spans.record buf in
  let db0 = Mix.db_of_source (source_of_gen first_gen) in
  let pool =
    Pool.create ~domains:1 (Policy.Table.compile ~strategy db0) db0
  in
  let started = Util.now_ns () in
  let gen = ref first_gen in
  let reloads = ref [] in
  let reload_to g =
    let root = Spans.fresh () in
    let stage name f =
      let s = Util.now_ns () in
      let r = f () in
      let e = Util.now_ns () in
      ignore (span ~parent:root ~msg:g name s e);
      (r, e - s)
    in
    let s = Util.now_ns () in
    let db, compile_ns =
      stage "reload.compile" (fun () -> Mix.db_of_source (source_of_gen g))
    in
    let _, verify_ns =
      stage "reload.verify" (fun () ->
          let report = Policy.Verify.diff ~strategy (Pool.db pool) db in
          Policy.Verify.count_direction Policy.Verify.Widened report)
    in
    let table, table_ns =
      stage "reload.table" (fun () -> Policy.Table.compile ~strategy db)
    in
    let _, swap_ns = stage "reload.swap" (fun () -> Pool.swap pool table db) in
    ignore (span ~sid:root ~msg:g "reload" s (Util.now_ns ()));
    reloads := { compile_ns; verify_ns; table_ns; swap_ns } :: !reloads;
    gen := g
  in
  let mismatches = ref 0 in
  let batches = ref [] in
  let replay id (b : Mix.batch) served =
    let payload = Wire.encode_payload (Wire.Decide_req { id; reqs = b.reqs }) in
    let root = Spans.fresh () in
    let t0 = Util.now_ns () in
    let reqs =
      match Wire.decode_payload payload with
      | Wire.Decide_req { reqs; _ } -> reqs
      | _ -> failwith "replay: not a decide request"
    in
    let t1 = Util.now_ns () and w1 = Gc.minor_words () in
    let shards =
      Partition.assign_by ~shards:(Pool.domains pool)
        (fun (r : Ir.request) -> r.subject)
        reqs
    in
    let t2 = Util.now_ns () and w2 = Gc.minor_words () in
    let now = Util.ns_to_s (t2 - started) in
    let n = Array.length reqs in
    let allows = Array.make n false in
    let job_spans = ref [] in
    Array.iteri
      (fun shard idxs ->
        if Array.length idxs > 0 then begin
          let s = Util.now_ns () in
          match Pool.try_submit pool ~shard (decide_job reqs idxs now) with
          | None -> failwith "replay: pool ring full"
          | Some ticket ->
              let out, f0, f1, f2, fill_mw, decide_mw = await ticket in
              let e = Util.now_ns () in
              Array.iteri (fun k i -> allows.(i) <- out.(k) = Ast.Allow) idxs;
              job_spans := (s, e, f0, f1, f2, fill_mw, decide_mw) :: !job_spans
        end)
      shards;
    let t3 = Util.now_ns () in
    let resp =
      Wire.encode_payload
        (Wire.Decide_resp { id; degraded = false; shed = false; allows })
    in
    let t4 = Util.now_ns () in
    ignore (span ~parent:root ~msg:id "wire.decode" t0 t1);
    ignore (span ~parent:root ~msg:id "partition" t1 t2);
    let job_ns = ref 0 and fill_ns = ref 0 and decide_ns = ref 0 in
    let fill_mw = ref 0.0 and decide_mw = ref 0.0 in
    List.iter
      (fun (s, e, f0, f1, f2, fmw, dmw) ->
        let job = span ~parent:root ~msg:id "pool.job" s e in
        ignore (span ~parent:job ~msg:id "batch.fill" f0 f1);
        ignore (span ~parent:job ~msg:id "decide" f1 f2);
        job_ns := !job_ns + (e - s);
        fill_ns := !fill_ns + (f1 - f0);
        decide_ns := !decide_ns + (f2 - f1);
        fill_mw := !fill_mw +. fmw;
        decide_mw := !decide_mw +. dmw)
      !job_spans;
    ignore (span ~parent:root ~msg:id "wire.encode" t3 t4);
    ignore (span ~sid:root ~msg:id "replay" t0 t4);
    (* a no-op job: the pool's own hand-off cost, outside the batch *)
    let h0 = Util.now_ns () in
    (match Pool.try_submit pool ~shard:0 (fun _ -> ()) with
    | None -> failwith "replay: pool ring full"
    | Some ticket -> await ticket);
    let h1 = Util.now_ns () in
    ignore (span ~msg:id "pool.handoff" h0 h1);
    let rated_fixed = kind_of_gen !gen = Mix.Hardened in
    Array.iteri
      (fun i a ->
        let rated = rated_fixed && templates.(b.tmpl.(i)).Mix.rated in
        if a <> served.(i) && not rated then incr mismatches)
      allows;
    batches :=
      {
        n;
        bytes = String.length payload + String.length resp + 8;
        decode_ns = t1 - t0;
        partition_ns = t2 - t1;
        partition_mw = w2 -. w1;
        handoff_ns = h1 - h0;
        job_ns = !job_ns;
        fill_ns = !fill_ns;
        fill_mw = !fill_mw;
        decide_ns = !decide_ns;
        decide_mw = !decide_mw;
        encode_ns = t4 - t3;
      }
      :: !batches
  in
  List.iter
    (function
      | Reload g -> reload_to g
      | Decide { id; batch; gen = g; served } ->
          if g <> !gen then reload_to g;
          replay id batch served)
    events;
  Pool.shutdown pool;
  {
    batches = List.rev !batches;
    reloads = List.rev !reloads;
    mismatches = !mismatches;
    spans = Spans.merge [ buf ];
  }
