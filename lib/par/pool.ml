module Ir = Secpol_policy.Ir
module Ast = Secpol_policy.Ast
module Batch = Secpol_policy.Batch
module Engine = Secpol_policy.Engine
module Table = Secpol_policy.Table
module Registry = Secpol_obs.Registry
module Clock = Secpol_obs.Clock

(* ------------------------------------------------------------------ *)
(* Policy generations                                                  *)
(* ------------------------------------------------------------------ *)

(* The RCU side of the pool: the current policy lives behind one atomic
   pointer.  A swap publishes a whole new generation — epoch, compiled
   table, source db — in a single store; workers re-read the pointer at
   job boundaries and rebind their private engine when the epoch moved.
   Readers never block writers and writers never block readers: the only
   shared mutable word on the decision path is this pointer. *)
type generation = { epoch : int; table : Table.t; db : Ir.db }

(* ------------------------------------------------------------------ *)
(* Tickets                                                             *)
(* ------------------------------------------------------------------ *)

type 'a state = Pending | Done of 'a | Raised of exn

type 'a ticket = {
  t_mu : Mutex.t;
  t_cv : Condition.t;
  mutable state : 'a state;
}

let ticket () = { t_mu = Mutex.create (); t_cv = Condition.create (); state = Pending }

let resolve ticket st =
  Mutex.lock ticket.t_mu;
  ticket.state <- st;
  Condition.broadcast ticket.t_cv;
  Mutex.unlock ticket.t_mu

let wake ticket () =
  Mutex.lock ticket.t_mu;
  Condition.broadcast ticket.t_cv;
  Mutex.unlock ticket.t_mu

(* ------------------------------------------------------------------ *)
(* Deadlines                                                           *)
(* ------------------------------------------------------------------ *)

(* [Condition] has no timed wait, so one timer systhread per process
   keeps every deadline.  A timed waiter arms its deadline here, then
   blocks on its ticket's condvar exactly as an untimed one does: the
   worker's [resolve] wakes it directly.  The timer sleeps in
   [Unix.select] on a self-pipe until the earliest armed deadline, then
   broadcasts the overdue tickets' condvars so their waiters re-read the
   clock and give up.  An arm pokes the pipe only when it comes before
   the timer's current target; a disarm just removes its entry, and a
   timer that wakes to nothing due re-targets, so a daemon whose batches
   finish long before the watchdog costs the timer a wake-up or two per
   deadline period, not one per batch.

   Lock order: the timer releases the alarm lock before it takes any
   ticket lock, so a waiter may arm or disarm while holding its own. *)

module Deadlines = Map.Make (struct
  type t = float * int (* deadline, arm sequence number *)

  let compare (d1, i1) (d2, i2) =
    match Float.compare d1 d2 with 0 -> Int.compare i1 i2 | c -> c
end)

let alarm_mu = Mutex.create ()

let armed : (unit -> unit) Deadlines.t ref = ref Deadlines.empty

let target = ref infinity (* the deadline the timer is sleeping toward *)

let arms = ref 0

let poke_fd : Unix.file_descr option ref = ref None

let poke_byte = Bytes.make 1 '!'

let drain_buf = Bytes.create 64

let rec timer_loop wake_fd =
  Mutex.lock alarm_mu;
  let now = Clock.now () in
  let rec take_due due =
    match Deadlines.min_binding_opt !armed with
    | Some (((deadline, _) as key), wake) when deadline <= now ->
        armed := Deadlines.remove key !armed;
        take_due (wake :: due)
    | Some ((deadline, _), _) ->
        target := deadline;
        due
    | None ->
        target := infinity;
        due
  in
  let due = take_due [] in
  let sleep_s = if !target = infinity then -1.0 else !target -. now in
  Mutex.unlock alarm_mu;
  List.iter (fun wake -> wake ()) due;
  (match Unix.select [ wake_fd ] [] [] sleep_s with
  | [], _, _ -> ()
  | _ -> (
      try ignore (Unix.read wake_fd drain_buf 0 64)
      with Unix.Unix_error _ -> ())
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
  timer_loop wake_fd

(* Started by the first [create] in the process, so the self-pipe gets a
   low descriptor before a daemon opens its connections. *)
let start_timer () =
  Mutex.protect alarm_mu (fun () ->
      if Option.is_none !poke_fd then begin
        let r, w = Unix.pipe ~cloexec:true () in
        Unix.set_nonblock r;
        Unix.set_nonblock w;
        ignore (Thread.create timer_loop r);
        poke_fd := Some w
      end)

let arm deadline wake =
  Mutex.protect alarm_mu (fun () ->
      incr arms;
      let key = (deadline, !arms) in
      armed := Deadlines.add key wake !armed;
      if deadline < !target then begin
        target := deadline;
        match !poke_fd with
        | Some w -> (
            (* a full pipe already holds a wake-up *)
            try ignore (Unix.single_write w poke_byte 0 1)
            with Unix.Unix_error _ -> ())
        | None -> ()
      end;
      key)

let disarm key =
  Mutex.protect alarm_mu (fun () -> armed := Deadlines.remove key !armed)

let deadlines_armed () = Mutex.protect alarm_mu (fun () -> !arms)

(* The one wait: block until the ticket resolves or [deadline] (a
   {!Clock.now} reading; [infinity] for none) passes, in which case the
   state is still [Pending].  A resolved ticket arms nothing. *)
let wait ticket ~deadline =
  Mutex.lock ticket.t_mu;
  let key =
    match ticket.state with
    | Pending when deadline < infinity -> Some (arm deadline (wake ticket))
    | _ -> None
  in
  let rec block () =
    match ticket.state with
    | Pending when deadline = infinity || Clock.now () < deadline ->
        Condition.wait ticket.t_cv ticket.t_mu;
        block ()
    | st -> st
  in
  let st = block () in
  Mutex.unlock ticket.t_mu;
  Option.iter disarm key;
  st

let await ticket =
  match wait ticket ~deadline:infinity with
  | Done v -> v
  | Raised e -> raise e
  | Pending -> assert false

let await_timeout ticket ~timeout_s =
  match wait ticket ~deadline:(Clock.now () +. timeout_s) with
  | Done v -> Some (Ok v)
  | Raised e -> Some (Error e)
  | Pending -> None

(* ------------------------------------------------------------------ *)
(* Workers and rings                                                   *)
(* ------------------------------------------------------------------ *)

type worker = {
  mutable engine : Engine.t;
  mutable registry : Registry.t; (* instruments of the current engine *)
  retired : Registry.t; (* accumulated telemetry of pre-swap engines *)
  mutable retired_stats : Engine.stats;
  mutable epoch_seen : int;
}

type task = worker -> unit

(* An SPSC ring per shard: one consumer (the pinned worker domain), many
   producers (client connection threads) serialised by the producer
   mutex.  Head and tail are atomics so the consumer's fast path never
   takes the lock; the condvar only parks an idle consumer. *)
type ring = {
  slots : task option array; (* length is a power of two *)
  mask : int;
  head : int Atomic.t; (* next slot to consume *)
  tail : int Atomic.t; (* next slot to fill *)
  mu : Mutex.t;
  cv : Condition.t;
}

let rec next_pow2 n k = if k >= n then k else next_pow2 n (k * 2)

let ring_create capacity =
  let capacity = next_pow2 (max capacity 1) 1 in
  {
    slots = Array.make capacity None;
    mask = capacity - 1;
    head = Atomic.make 0;
    tail = Atomic.make 0;
    mu = Mutex.create ();
    cv = Condition.create ();
  }

(* Returns false when the ring is full — admission control is the
   caller's problem (the daemon retries then sheds, per the gateway
   discipline), not the ring's. *)
let ring_push ring job =
  Mutex.lock ring.mu;
  let tail = Atomic.get ring.tail in
  if tail - Atomic.get ring.head >= Array.length ring.slots then begin
    Mutex.unlock ring.mu;
    false
  end
  else begin
    ring.slots.(tail land ring.mask) <- Some job;
    Atomic.set ring.tail (tail + 1);
    Condition.signal ring.cv;
    Mutex.unlock ring.mu;
    true
  end

(* Consumer side: spin briefly (a loaded ring almost always has the next
   job visible within a few relaxed reads), then park on the condvar.
   Jobs already admitted are always drained, even after [stop] — the
   zero-dropped guarantee extends through shutdown. *)
let ring_pop ring ~stop =
  let take head =
    let slot = head land ring.mask in
    let job = ring.slots.(slot) in
    ring.slots.(slot) <- None;
    Atomic.set ring.head (head + 1);
    job
  in
  let rec go spins =
    let head = Atomic.get ring.head in
    if Atomic.get ring.tail > head then take head
    else if Atomic.get stop then None
    else if spins > 0 then begin
      Domain.cpu_relax ();
      go (spins - 1)
    end
    else begin
      Mutex.lock ring.mu;
      if Atomic.get ring.tail = Atomic.get ring.head && not (Atomic.get stop)
      then Condition.wait ring.cv ring.mu;
      Mutex.unlock ring.mu;
      go 64
    end
  in
  go 64

(* ------------------------------------------------------------------ *)
(* The pool                                                            *)
(* ------------------------------------------------------------------ *)

type t = {
  current : generation Atomic.t;
  rings : ring array;
  mutable handles : unit Domain.t array;
  stop : bool Atomic.t;
  mutable joined : bool;
}

let make_engine registry gen =
  Engine.of_table ~cache:false ~obs:registry gen.table gen.db

(* Job-boundary epoch check: requests of a batch already being decided
   finish against the generation they started on (a coherent answer),
   and the very next job observes the new table.  Telemetry of the
   outgoing engine is folded into the worker's retired registry so a
   swap never zeroes the shard's cumulative counters. *)
let refresh pool w =
  let gen = Atomic.get pool.current in
  if gen.epoch <> w.epoch_seen then begin
    Registry.merge_into ~into:w.retired w.registry;
    w.retired_stats <-
      Engine.add_stats w.retired_stats (Engine.stats w.engine);
    let registry = Registry.create () in
    w.registry <- registry;
    w.engine <- make_engine registry gen;
    w.epoch_seen <- gen.epoch
  end

let worker_loop pool w ring ready =
  Atomic.incr ready;
  let rec loop () =
    match ring_pop ring ~stop:pool.stop with
    | None -> ()
    | Some job ->
        refresh pool w;
        job w;
        loop ()
  in
  loop ()

let create ?(queue_capacity = 1024) ~domains table db =
  if domains < 1 then invalid_arg "Pool.create: domains < 1";
  if queue_capacity < 1 then invalid_arg "Pool.create: queue_capacity < 1";
  start_timer ();
  let gen = { epoch = 1; table; db } in
  let pool =
    {
      current = Atomic.make gen;
      rings = Array.init domains (fun _ -> ring_create queue_capacity);
      handles = [||];
      stop = Atomic.make false;
      joined = false;
    }
  in
  let workers =
    Array.init domains (fun _ ->
        let registry = Registry.create () in
        {
          engine = make_engine registry gen;
          registry;
          retired = Registry.create ();
          retired_stats = Engine.zero_stats;
          epoch_seen = gen.epoch;
        })
  in
  let ready = Atomic.make 0 in
  pool.handles <-
    Array.init domains (fun shard ->
        Domain.spawn (fun () ->
            worker_loop pool workers.(shard) pool.rings.(shard) ready));
  (* Readiness barrier: return only once every worker is in its serve
     loop, so callers never bill domain startup to the first requests. *)
  while Atomic.get ready < domains do
    Domain.cpu_relax ()
  done;
  pool

let domains pool = Array.length pool.rings

let epoch pool = (Atomic.get pool.current).epoch

let db pool = (Atomic.get pool.current).db

let rec swap pool new_table new_db =
  let gen = Atomic.get pool.current in
  let next = { epoch = gen.epoch + 1; table = new_table; db = new_db } in
  if Atomic.compare_and_set pool.current gen next then next.epoch
  else swap pool new_table new_db

let try_submit pool ~shard f =
  if shard < 0 || shard >= Array.length pool.rings then
    invalid_arg "Pool.try_submit: shard out of range";
  if Atomic.get pool.stop then None
  else begin
    let t = ticket () in
    let job w =
      resolve t (try Done (f w) with e -> Raised e)
    in
    if ring_push pool.rings.(shard) job then Some t else None
  end

let worker_engine w = w.engine

let worker_epoch w = w.epoch_seen

let worker_snapshot w =
  let registry = Registry.create () in
  Registry.merge_into ~into:registry w.retired;
  Registry.merge_into ~into:registry w.registry;
  (Engine.add_stats w.retired_stats (Engine.stats w.engine), registry)

let shutdown pool =
  if not pool.joined then begin
    pool.joined <- true;
    Atomic.set pool.stop true;
    Array.iter
      (fun ring ->
        Mutex.lock ring.mu;
        Condition.broadcast ring.cv;
        Mutex.unlock ring.mu)
      pool.rings;
    Array.iter Domain.join pool.handles
  end

(* ------------------------------------------------------------------ *)
(* One-shot sharded runs                                               *)
(* ------------------------------------------------------------------ *)

type 'a job = Engine.t -> (float * Ir.request) array -> 'a array

let scalar engine = Array.map (fun (now, req) -> Engine.decide ~now engine req)

let batched engine work =
  let out = Array.make (Array.length work) Ast.Deny in
  Engine.decide_batch engine (Batch.of_work work) ~out;
  out

type 'a sharded = {
  results : 'a array;
  per_shard : int array;
  elapsed_s : float;
  throughput : float;
  engine : Engine.stats;
  registry : Registry.t;
}

let run_sharded ?(key = Partition.Subject) ~domains job table db work =
  let pool = create ~domains table db in
  Fun.protect
    ~finally:(fun () -> shutdown pool)
    (fun () ->
      let shards = Partition.assign key ~shards:domains (Array.map snd work) in
      let slices = Array.map (Array.map (fun i -> work.(i))) shards in
      (* all submitted before any is awaited; each ring of this fresh pool
         holds at most one job at a time, so admission cannot fail *)
      let on_every_shard f =
        Array.mapi
          (fun shard x -> Option.get (try_submit pool ~shard (f x)))
          slices
        |> Array.map await
      in
      let started = Clock.now () in
      let outs = on_every_shard (fun slice w -> job w.engine slice) in
      (* clamped, so a sub-resolution run reports a lower bound on
         throughput, not an infinite one that would poison ratio gates *)
      let elapsed_s = Float.max (Clock.now () -. started) Clock.resolution in
      let snapshots = on_every_shard (fun _ -> worker_snapshot) in
      let registry = Registry.create () in
      Array.iter (fun (_, r) -> Registry.merge_into ~into:registry r) snapshots;
      let order = Array.concat (Array.to_list shards) in
      let flat = Array.concat (Array.to_list outs) in
      let results = Array.copy flat in
      Array.iteri (fun k i -> results.(i) <- flat.(k)) order;
      {
        results;
        per_shard = Array.map Array.length shards;
        elapsed_s;
        throughput = float_of_int (Array.length work) /. elapsed_s;
        engine =
          Array.fold_left
            (fun acc (stats, _) -> Engine.add_stats acc stats)
            Engine.zero_stats snapshots;
        registry;
      })
