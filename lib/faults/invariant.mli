(** Safety invariants checked throughout a chaos run.

    A checker is stateful: {!check} is called at every slice boundary and
    examines only what changed since the last call, {!finalize} adds the
    end-of-run obligations.  The checks:

    - {b counters}: bus counters never go backwards and the arbitration
      queue stays bounded (a partitioned segment must shed load, not
      queue forever);
    - {b approved_rx}: under any fault, no frame is delivered to an
      HPE-guarded node outside its approved reading list for the mode in
      force — faults may cost availability, never policy violations;
    - {b failsafe_deadline}: once the policy engine stalls, the car is in
      fail-safe no later than {!Harness.failsafe_bound};
    - {b latched} (degrading plans): the run ends latched in fail-safe;
    - {b convergence} (recoverable plans): the final vehicle state equals
      a never-faulted run's steady state, field by field. *)

type violation = { time : float; check : string; detail : string }

type t

val create : Harness.t -> t

val check : t -> unit
(** Examine everything since the previous call; record violations. *)

val finalize : t -> reference:Secpol_vehicle.Topology_car.t -> unit
(** Run {!check} once more, then the end-of-run obligations.
    [reference] is a never-faulted car advanced to the same horizon. *)

val violations : t -> violation list
(** Chronological. *)

val ok : t -> bool

(** The blast-radius invariant for topology cars.

    A segment-scoped fault may do anything to its own segment; every
    {e other} segment must stay within a declared bound, checked
    streaming at every slice:

    - {b blast_pending}: the segment's arbitration queue stays under
      [max_pending];
    - {b blast_latency}: the segment's cumulative delivery-latency p99
      stays under [p99_ms];
    - {b blast_liveness}: frames keep arriving every slice (after two
      warm-up slices);
    - {b blast_decisions}: enforcement never starts blocking designed
      traffic outside the blast ([Topology_car.false_blocks_in] stays
      flat);
    - {b blast_gateway_backlog}: every gateway's in-flight forwards stay
      under [max_gateway_backlog] — the check a gateway with an unbounded
      queue fails when its destination segment saturates. *)
module Blast : sig
  type bound = { max_pending : int; p99_ms : float; max_gateway_backlog : int }

  val default_bound : bound

  type t

  val create :
    ?bound:bound ->
    faulted:(unit -> string list) ->
    Secpol_vehicle.Topology_car.t ->
    t
  (** [faulted] returns the segments currently inside the blast region
      (excluded from the per-segment checks); the caller keeps it
      monotone over a run. *)

  val check : t -> unit
  (** Sweep every segment and gateway once; record violations. *)

  val fail : t -> check:string -> string -> unit
  (** Record an externally detected violation (the blast runner's
      end-of-run obligations use this). *)

  val violations : t -> violation list
  (** Chronological. *)

  val ok : t -> bool
end
