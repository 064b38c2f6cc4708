(** A persistent domain pool: the one parallel runner for policy
    decisions.

    The pool spawns one pinned worker per shard {e once}; each worker
    owns a private {!Secpol_policy.Engine.of_table} engine and
    {!Secpol_obs.Registry} over the shared immutable
    {!Secpol_policy.Table}, and drains jobs from its own request ring.
    [secpold] keeps one pool for its whole lifetime, so domain startup
    never lands on a request; one-shot bulk runs ({!run_sharded}) create
    a pool, submit one job per shard and shut it down.

    {b Hot swap (RCU-style).}  The current policy generation — epoch,
    compiled table, source db — lives behind a single atomic pointer.
    {!swap} publishes a new generation in one store; every worker
    re-reads the pointer at job boundaries and rebinds its engine when
    the epoch moved.  Decisions in flight complete against the
    generation they started on; no decision ever sees a half-swapped
    policy, no reader ever blocks, and nothing is dropped.  Telemetry
    survives the swap: the outgoing engine's counters are folded into
    the worker's cumulative registry before rebinding.

    {b Admission.}  {!try_submit} never blocks: a full ring returns
    [None] and the caller decides — the daemon retries briefly, then
    sheds with a fail-safe deny, mirroring the gateway's retry-then-shed
    discipline.  Jobs that {e were} admitted are always executed, even
    during shutdown. *)

type t

type worker
(** A worker's view of itself, passed to every job it executes: the
    shard's private engine and telemetry.  Only valid inside the job —
    never stash it. *)

type 'a ticket
(** A pending result.  Resolved exactly once by the worker; awaiting
    after resolution returns immediately. *)

val create :
  ?queue_capacity:int ->
  domains:int ->
  Secpol_policy.Table.t ->
  Secpol_policy.Ir.db ->
  t
(** Spawn [domains] pinned workers over a compiled table and its source
    db (generation 1).  [queue_capacity] (default 1024, rounded up to a
    power of two) bounds each shard's request ring — the backpressure
    point.  Worker engines are cacheless: the daemon decides through
    {!Secpol_policy.Engine.decide_batch}, which bypasses the cache.
    Returns only once every worker is parked in its serve loop, so
    first-request latency never includes domain startup.  The first
    call in a process also starts the deadline timer thread of
    {!await_timeout}.
    @raise Invalid_argument when [domains < 1] or [queue_capacity < 1]. *)

val domains : t -> int

val epoch : t -> int
(** Epoch of the currently published generation (starts at 1). *)

val db : t -> Secpol_policy.Ir.db

val swap : t -> Secpol_policy.Table.t -> Secpol_policy.Ir.db -> int
(** Publish a new policy generation; returns its epoch.  The caller
    compiles (and gates) the table off-path first — by the time [swap]
    returns, every job submitted afterwards is decided under the new
    generation.  Lock-free; concurrent swaps serialise on the CAS. *)

val try_submit : t -> shard:int -> (worker -> 'a) -> 'a ticket option
(** Enqueue a job on a shard's ring.  [None] means the ring is full
    (shed or retry — caller's choice); [Some ticket] means the job
    {e will} run, in submission order for that shard.
    @raise Invalid_argument when [shard] is out of range. *)

val await : 'a ticket -> 'a
(** Block until the job completes; re-raises the job's exception. *)

val await_timeout : 'a ticket -> timeout_s:float -> ('a, exn) result option
(** Like {!await} with a deadline: [None] when the deadline passed with
    the job still pending (the job is {e not} cancelled — a later await
    can still collect it).  The wait blocks on the ticket, so the
    worker's completion wakes the caller directly and a batch decided in
    microseconds is collected in microseconds.  The deadline is kept by
    one timer thread per process, started by the first {!create}: it
    sleeps until the earliest armed deadline and then wakes the overdue
    waiters, so [None] comes no earlier than [timeout_s] and within
    scheduling slack after it.  An already-resolved ticket returns at
    once and arms nothing. *)

val deadlines_armed : unit -> int
(** Deadlines armed with the timer thread since the process started —
    one per {!await_timeout} on a still-pending ticket.  Telemetry; the
    tests read it. *)

val worker_engine : worker -> Secpol_policy.Engine.t
(** The shard's current private engine — rebound on epoch change, so
    hold it no longer than the current job.  Exposed for jobs that need
    more than deciding (tests inject stalls through it). *)

val worker_epoch : worker -> int
(** Generation epoch the worker's engine is currently bound to. *)

val worker_snapshot : worker -> Secpol_policy.Engine.stats * Secpol_obs.Registry.t
(** Cumulative engine stats and a freshly merged registry copy for this
    shard — pre-swap generations included.  Run it {e as a job} on the
    shard so it reads quiesced state. *)

val shutdown : t -> unit
(** Stop accepting jobs, drain every ring, join every worker.
    Idempotent.  Jobs admitted before shutdown still execute. *)

(** {2 One-shot sharded runs} *)

type 'a job =
  Secpol_policy.Engine.t ->
  (float * Secpol_policy.Ir.request) array ->
  'a array
(** Decides every [(now, request)] pair in order, one result each. *)

val scalar : Secpol_policy.Engine.outcome job
(** One {!Secpol_policy.Engine.decide} per request. *)

val batched : Secpol_policy.Ast.decision job
(** One {!Secpol_policy.Batch} arena and one
    {!Secpol_policy.Engine.decide_batch} call. *)

type 'a sharded = {
  results : 'a array;  (** one per request, in input order *)
  per_shard : int array;  (** requests each shard decided *)
  elapsed_s : float;  (** submit to last await, >= the clock resolution *)
  throughput : float;  (** requests per elapsed second *)
  engine : Secpol_policy.Engine.stats;  (** summed over shards *)
  registry : Secpol_obs.Registry.t;  (** shard registries merged *)
}

val run_sharded :
  ?key:Partition.key ->
  domains:int ->
  'a job ->
  Secpol_policy.Table.t ->
  Secpol_policy.Ir.db ->
  (float * Secpol_policy.Ir.request) array ->
  'a sharded
(** Create a [domains]-worker pool, split [work] with {!Partition.assign}
    under [key] (default {!Partition.Subject}), run [job] once per shard,
    scatter the results back into input order and shut the pool down;
    pool startup stays off the clock.  Per-key state never leaves its
    shard and each shard keeps input order, so the run equals [job] over
    all of [work] on one cacheless engine (timestamps must be
    non-decreasing per key, see {!Secpol_policy.Rate_window}).
    @raise Invalid_argument when [domains < 1]. *)
