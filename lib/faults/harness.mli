(** One car under one fault plan.

    The harness builds a driving single-bus {!Secpol_vehicle.Topology_car}
    with distributed (HPE) enforcement, arms a {!Watchdog} whose ping is a
    live policy decision and whose expiry drives the car into fail-safe,
    schedules every fault in the plan (and its recovery) on the simulation
    engine, and keeps the bookkeeping — injection/clearing times, mode
    timeline, stall and fail-safe timestamps — that {!Invariant} and
    {!Report} consume. *)

type record = {
  entry : Plan.entry;
  mutable injected_at : float option;
  mutable cleared_at : float option;
}

type t

val create :
  ?watchdog_period:float ->
  ?watchdog_deadline:float ->
  seed:int64 ->
  plan:Plan.t ->
  unit ->
  t
(** Watchdog defaults: 10 ms ping period, 50 ms deadline.  Per-(mode,
    node) HPE configs are cached here, while the policy engine still
    answers, so scrubs and the fail-safe transition never consult it live.
    @raise Invalid_argument on an invalid plan. *)

val run : t -> unit
(** Run the simulation to the plan's horizon. *)

val run_until : t -> float -> unit
(** Advance to an intermediate time (the chaos runner steps in slices and
    checks invariants between them). *)

val car : t -> Secpol_vehicle.Topology_car.t

val obs : t -> Secpol_obs.Registry.t

val clock : t -> Clock.t

val watchdog : t -> Watchdog.t

val plan : t -> Plan.t

val records : t -> record list
(** Plan order, with injection/clearing timestamps filled in as the run
    progresses. *)

val stall_started : t -> float option
(** When the first policy stall was injected, if any. *)

val stall_cleared : t -> float option

val failsafe_entered : t -> float option
(** When the watchdog drove the car into fail-safe, if it did. *)

val min_clock_factor : t -> float
(** Slowest watchdog clock rate seen so far (1.0 without skew faults). *)

val mode_at : t -> float -> Secpol_vehicle.Modes.t
(** Operating mode at a past simulation time, from the harness's mode
    timeline. *)

val mode_changes : t -> (float * Secpol_vehicle.Modes.t) list
(** Chronological (time, new mode), starting with the initial mode. *)

val config_for :
  t ->
  mode:Secpol_vehicle.Modes.t ->
  node:string ->
  Secpol_hpe.Config.t option
(** The cached HPE config for one (mode, node); [None] for unknown
    nodes. *)

val failsafe_bound : t -> stall_at:float -> float
(** Latest acceptable fail-safe entry for a stall injected at [stall_at]:
    one watchdog period to notice, the deadline of continuous failure,
    one period of grid slack — stretched by the slowest clock factor. *)
